"""Discrete-event replay of a request trace against an engine pool.

The simulator owns the clock and the bookkeeping; every *decision* —
admit or drop, when a batch closes, which lane runs it — is delegated
to a :mod:`repro.sched` scheduler.  Two event sources advance the
clock: request arrivals (from the trace) and scheduler wake-ups
(batch-window expiries, lanes coming free).  Whichever comes first is
processed.  Service time and energy come from the pool's
:class:`~repro.serve.pool.ServiceProfile` — i.e. from the
cycle-accurate cost of the actual compiled programs, whichever
registered execution backend serves the batch — so queueing delay,
service delay and energy-per-request are all grounded in the paper's
latency model rather than in host wall-clock.

A dispatch validates, prices and places its batch, but computes no
result: results feed no scheduling, timing or energy decision.  Once
the event loop is done, :meth:`~repro.serve.pool.EnginePool.execute_batches`
takes every dispatched batch: a stateful backend's batches run one by
one on their lanes then, and a pure backend's (the default ``model``)
are grouped per kernel and run on demand.  The first read of a result
runs its kernel group's rows in cross-batch chunks (one call amortized
over many batches, as one instruction stream is amortized over a
subarray's tiles).  A caller that reads no result runs no result math;
one that reads them all gets what executing at dispatch would give, and
the report's bytes are the same either way.

Each dispatch appends its batch to the replay's
:class:`~repro.serve.metrics.RequestLog`, one row per served request,
and records nothing else per request: the report's per-request metrics
are filled from the log once the loop is done, and ``report.responses``
builds each :class:`~repro.serve.request.Response` when it is read.

The replay is deterministic: same trace, same pool, same scheduler
config, byte-identical report — including the drop set, per-tenant
stats and queue-depth timeline.  A fresh scheduler instance is built
per replay, so nothing accumulates between calls.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ParameterError
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, TraceEvent, Tracer
from repro.serve.batcher import BatchPolicy, PolyBatch
from repro.serve.metrics import BatchRecord, DropRecord, RequestLog, ServeReport, aggregate
from repro.serve.pool import EnginePool
from repro.serve.request import Request


class ServingSimulator:
    """Replays traces; accumulates nothing between :meth:`replay` calls."""

    def __init__(self, pool: EnginePool, policy: BatchPolicy = BatchPolicy(), *,
                 backend: Optional[str] = None,
                 scheduler: Union[str, Callable] = "fifo",
                 scheduler_options: Optional[Dict[str, Any]] = None,
                 admission_gate: Optional[Callable[[Request], Optional[str]]] = None):
        self.pool = pool
        self.policy = policy
        self.backend = backend if backend is not None else "model"
        self.scheduler = scheduler
        self.scheduler_options = dict(scheduler_options or {})
        # Optional pre-admission gate (e.g. repro.check.HEDepthGate): a
        # callable mapping a request to a drop-reason string, consulted
        # *before* the scheduler so static rejections (circuit too deep
        # for its ring) never occupy queue capacity.  ``None`` -> the
        # replay is byte-identical to the ungated path.
        self.admission_gate = admission_gate

    def _make_scheduler(self):
        """A fresh scheduler per replay (schedulers hold queue state)."""
        if isinstance(self.scheduler, str):
            from repro.sched.registry import create_scheduler

            return create_scheduler(
                self.scheduler, self.pool, self.policy,
                backend=self.backend, **self.scheduler_options,
            )
        return self.scheduler(
            self.pool, self.policy,
            backend=self.backend, **self.scheduler_options,
        )

    def replay(self, requests: Sequence[Request], *,
               tracer: Optional[Tracer] = None) -> ServeReport:
        """Serve a full trace; returns the aggregated report.

        ``tracer`` receives the request-lifecycle span events (see
        :mod:`repro.obs`): the simulator emits arrive / admit / drop /
        dispatch / respond here, the scheduler and its batcher and lane
        pool add enqueue / batch_open / lane_start / lane_finish, and
        the engine pool adds profile events.  The default
        :class:`~repro.obs.NullTracer` is free, and no tracer can
        perturb the replay — emission is strictly write-only.
        """
        tracer = NULL_TRACER if tracer is None else tracer
        trace = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        seen = set()
        for r in trace:
            if r.request_id in seen:
                raise ParameterError(f"duplicate request id {r.request_id}")
            seen.add(r.request_id)

        scheduler = self._make_scheduler()
        bind_tracer = getattr(scheduler, "bind_tracer", None)
        if bind_tracer is not None:
            bind_tracer(tracer)
        # The pool outlives replays; (re)bind its tracer every time so a
        # traced replay never leaks events into the next untraced one.
        self.pool.tracer = tracer
        # The records, each kept once; aggregate() fills the metrics
        # from them after the loop.  Queue depth is sampled as it goes.
        log = RequestLog()
        batches: List[BatchRecord] = []
        drops: List[DropRecord] = []
        registry = MetricsRegistry()
        depth_gauge = registry.gauge("sched.queue_depth")

        def record_depth(now_s: float) -> None:
            depth_gauge.sample(now_s, scheduler.waiting())

        # Per dispatch: (batch, pool lane) for execute_batches after the
        # loop, in the log's run order.
        pending: List[Tuple[PolyBatch, int]] = []

        def dispatch(batch: PolyBatch, now_s: float) -> None:
            placement = scheduler.place(batch, now_s)
            profile = self.pool.validate(
                batch, backend=self.backend, lane=placement.pool_lane
            )
            start = placement.start_s
            finish = start + profile.latency_s
            energy_per_request = profile.energy_nj / batch.size
            # Padding/occupancy are physical: the invocation runs all
            # profile.capacity slots even when the policy caps the batch
            # below it, and energy is charged accordingly.
            physical_padding = profile.capacity - batch.size
            pending.append((batch, placement.pool_lane))
            log.record(batch.requests, start, finish, energy_per_request,
                       placement.lane, batch.size, physical_padding)
            if tracer.enabled:
                tracer.emit(TraceEvent(
                    "dispatch", now_s, None, batch.batch_id, placement.lane,
                    "", "",
                    {"params": batch.key[0], "op": batch.key[1],
                     "size": batch.size, "capacity": profile.capacity,
                     "start_s": start, "energy_nj": profile.energy_nj},
                ))
                for request in batch.requests:
                    tracer.emit(TraceEvent(
                        "respond", finish, request.request_id,
                        batch.batch_id, placement.lane, request.kind,
                        request.tenant,
                        {"dispatched_s": now_s, "start_s": start,
                         "energy_nj": energy_per_request,
                         "batch_size": batch.size},
                    ))
            batches.append(BatchRecord(
                batch.batch_id, batch.key, batch.size, profile.capacity,
                now_s, start, finish, placement.lane, profile.energy_nj))

        index = 0
        while index < len(trace) or scheduler.waiting():
            next_arrival = trace[index].arrival_s if index < len(trace) else float("inf")
            wakeup = scheduler.next_event_s()
            if index < len(trace) and next_arrival <= wakeup:
                request = trace[index]
                index += 1
                if tracer.enabled:
                    tracer.emit(TraceEvent(
                        "arrive", request.arrival_s, request.request_id,
                        None, None, request.kind, request.tenant,
                        {"params": request.params_name, "op": request.op,
                         "deadline_s": request.deadline_s},
                    ))
                reason = None
                if self.admission_gate is not None:
                    reason = self.admission_gate(request)
                if reason is None:
                    reason = scheduler.admit(request, request.arrival_s)
                if reason is not None:
                    if tracer.enabled:
                        tracer.emit(TraceEvent(
                            "drop", request.arrival_s, request.request_id,
                            None, None, request.kind, request.tenant,
                            {"reason": reason},
                        ))
                    drops.append(DropRecord(
                        request.request_id, request.tenant, request.kind,
                        request.arrival_s, reason,
                        request.deadline_s is not None))
                else:
                    if tracer.enabled:
                        tracer.emit(TraceEvent(
                            "admit", request.arrival_s, request.request_id,
                            None, None, request.kind, request.tenant,
                        ))
                    for batch in scheduler.enqueue(request, request.arrival_s):
                        dispatch(batch, request.arrival_s)
                record_depth(request.arrival_s)
            elif wakeup != float("inf"):
                for batch in scheduler.poll(wakeup):
                    dispatch(batch, wakeup)
                record_depth(wakeup)
            else:
                # Trace exhausted and the scheduler has no wake-up of its
                # own (e.g. an infinite max-wait): drain at end of input.
                end_s = trace[-1].arrival_s
                for batch in scheduler.flush(end_s):
                    dispatch(batch, end_s)
                record_depth(end_s)

        # Results feed no decision of the loop: stateful backends run
        # every batch now, and a pure backend's results run when read.
        log.set_results(
            self.pool.execute_batches(pending, backend=self.backend))

        lanes = scheduler.lane_report()
        # Streaming tracers (WindowedAggregator / SLOTracer / Sampling)
        # buffer state until end of stream: flush them so trailing
        # windows finalize and deferred sampling decisions land, then
        # surface any burn-rate alerts into the report.  Duck-typed so
        # plain tracers (Null/Recording) are untouched.
        tracer_finish = getattr(tracer, "finish", None)
        if tracer_finish is not None:
            tracer_finish()
        alerts = list(getattr(tracer, "alerts", ()))
        return aggregate(
            log,
            batches,
            total_lanes=lanes.total_lanes,
            busy_s=lanes.busy_s,
            drops=drops,
            scheduler=getattr(scheduler, "name", str(self.scheduler)),
            alerts=alerts,
            registry=registry,
        )
