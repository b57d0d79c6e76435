"""The scheduler protocol: admission, queueing, placement as one seam.

A *scheduler* owns every policy decision the serving simulator makes
about a trace — whether to accept a request (*admit*), when to close a
batch (*enqueue*/*poll*/*flush*), and which lane runs it (*place*).
The simulator keeps the clock, the event loop, and the bookkeeping of
responses; the scheduler keeps the queues and the lane occupancy.  The
contract is small and purely deterministic: same trace, same config,
byte-identical decisions.

The protocol decomposes a replay into seven calls:

- :meth:`Scheduler.admit` — at arrival time, accept (``None``) or drop
  the request with a reason string (``"queue_full"``,
  ``"deadline_unmet"``, ...).  Drops are explicit and final; the
  simulator records them in the report's drop set.
- :meth:`Scheduler.enqueue` — queue an admitted request; returns any
  batches that became ready *right now* (a batch filled, or the policy
  chose to dispatch early).
- :meth:`Scheduler.next_event_s` — the next instant the scheduler
  needs control (a batch window expiring, a lane coming free), or
  ``inf`` when it is idle.  Never in the past: the simulator advances
  its clock to this value.
- :meth:`Scheduler.poll` — the batches to dispatch at that instant.
- :meth:`Scheduler.flush` — end of trace: everything still queued.
- :meth:`Scheduler.place` — bind one batch to a lane, returning the
  :class:`Placement` (which lane, and when service starts given the
  lane's occupancy).  Called exactly once per dispatched batch, in
  dispatch order — placement order is the fairness lever.
- :meth:`Scheduler.lane_report` — total lanes and busy time, for the
  report's utilization number.

:meth:`Scheduler.next_event_s` and :meth:`Scheduler.waiting` are reads
whose answers change only through the scheduler's own ``enqueue``,
``poll``, ``flush`` and ``place``: never through ``admit``, and never
through time passing between calls.  The cluster tier relies on it to
cache both answers per chip between those calls.

The built-ins share their queue plumbing through
:class:`BatchingScheduler`: it owns the coalescing batcher (per-replay
batch ids, capacity from the pool), the tracer binding, the service
time of a batch key and the one ``enqueue`` event, so each policy keeps
only its own decisions.

Two lane models ship with the built-ins.  The ``fifo`` scheduler keeps
PR 1's semantics: every parameter set owns ``pool.lane_count`` private
lanes, which the scheduler itself round-robins.  The global schedulers
(``slo``, ``adaptive``) instead treat lanes as one shared resource via
:class:`GlobalLanePool`: the same physical subarray gangs, but any of
them can be re-targeted to any parameter set (engine construction is
cheap and compiled programs are cached in the pool), so idle Kyber
capacity absorbs Dilithium or HE bursts.  The pool grows by
``lanes_per_params`` for each distinct parameter set a trace touches —
hardware identical to the per-parameter model, assignment flexible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Set, Tuple, runtime_checkable

from repro.errors import SchedulerError
from repro.obs.tracer import NULL_TRACER, TraceEvent
from repro.serve.batcher import BatchPolicy, CoalescingBatcher, PolyBatch
from repro.serve.request import Request


@dataclass(frozen=True)
class Placement:
    """Where and when one dispatched batch runs.

    Attributes:
        lane: the lane identity recorded in the report (a global lane
            index for shared-lane schedulers; the per-parameter lane
            index for fifo).
        pool_lane: index into the pool's cached backend instances for
            the batch's parameter set (always in ``[0, pool size)``) —
            what :meth:`repro.serve.pool.EnginePool.serve` executes on.
        start_s: when service starts (dispatch time, or later if the
            lane was still busy).
    """

    lane: int
    pool_lane: int
    start_s: float


@dataclass(frozen=True)
class LaneReport:
    """Lane accounting a replay ends with (feeds report utilization)."""

    total_lanes: int
    busy_s: float


@runtime_checkable
class Scheduler(Protocol):
    """Structural interface of a serving scheduler (see module docs)."""

    name: str

    def admit(self, request: Request, now_s: float) -> Optional[str]:
        """Drop reason, or ``None`` to accept."""
        ...  # pragma: no cover - protocol

    def enqueue(self, request: Request, now_s: float) -> List[PolyBatch]:
        """Queue an admitted request; returns batches ready right now."""
        ...  # pragma: no cover - protocol

    def waiting(self) -> int:
        """Requests currently queued (the report's queue-depth sample).

        Changes only through enqueue/poll/flush/place (see module docs).
        """
        ...  # pragma: no cover - protocol

    def next_event_s(self) -> float:
        """Next instant the scheduler needs control (inf when idle).

        Changes only through enqueue/poll/flush/place (see module docs).
        """
        ...  # pragma: no cover - protocol

    def poll(self, now_s: float) -> List[PolyBatch]:
        """Batches to dispatch at ``now_s``, in dispatch order."""
        ...  # pragma: no cover - protocol

    def flush(self, now_s: float) -> List[PolyBatch]:
        """End of trace: every still-open batch, in dispatch order."""
        ...  # pragma: no cover - protocol

    def place(self, batch: PolyBatch, now_s: float) -> Placement:
        """Bind a batch to a lane and commit the lane's busy window."""
        ...  # pragma: no cover - protocol

    def lane_report(self) -> LaneReport:
        """Total lanes and busy seconds accumulated over the replay."""
        ...  # pragma: no cover - protocol

    # Schedulers may additionally implement ``bind_tracer(tracer)`` —
    # the simulator calls it (when present) before each replay so the
    # scheduler, its batcher and its lane pool emit lifecycle events
    # (enqueue / batch_open / lane_start / lane_finish) through the
    # replay's :class:`repro.obs.Tracer`.  It is deliberately not part
    # of the structural protocol: a third-party scheduler without it is
    # still valid, it just contributes no events.


class GlobalLanePool:
    """Physical lanes as one globally shared, deterministic resource.

    One lane is one subarray gang.  The pool starts empty and grows by
    ``lanes_per_params`` the first time each parameter set appears —
    the same hardware the per-parameter model would dedicate, pooled.
    Placement prefers an idle lane that last served the batch's
    parameter set (program caches stay warm), then the lowest-numbered
    idle lane, then the lane that frees soonest; all ties break on the
    lane index, so placement is a pure function of the dispatch
    sequence.
    """

    def __init__(self, lanes_per_params: int):
        if lanes_per_params < 1:
            raise SchedulerError(
                f"lanes_per_params must be >= 1, got {lanes_per_params}"
            )
        self.lanes_per_params = lanes_per_params
        self.free_at: Dict[int, float] = {}
        self.last_params: Dict[int, Optional[str]] = {}
        self.busy_s = 0.0
        self._known: Set[str] = set()
        # Bound by the owning scheduler's bind_tracer.
        self.tracer = NULL_TRACER

    def __len__(self) -> int:
        return len(self.free_at)

    def ensure(self, params_name: str) -> None:
        """Grow the pool when a new parameter set first appears."""
        if params_name in self._known:
            return
        base = len(self.free_at)
        for index in range(base, base + self.lanes_per_params):
            self.free_at[index] = 0.0
            self.last_params[index] = None
        self._known.add(params_name)

    def idle_count(self, now_s: float) -> int:
        """How many lanes are free at ``now_s``."""
        return sum(1 for t in self.free_at.values() if t <= now_s)

    def earliest_free_s(self) -> float:
        """When the next lane frees up (inf for an empty pool)."""
        return min(self.free_at.values(), default=float("inf"))

    def placement(self, params_name: str, now_s: float, latency_s: float,
                  *, batch_id: Optional[int] = None) -> Placement:
        """:meth:`place` wrapped as the scheduler-protocol result.

        ``pool_lane`` folds the global index onto the pool's cached
        backend instances (interchangeable within a parameter set) —
        the one mapping both global schedulers must agree on.
        ``batch_id`` only labels the emitted lane events.
        """
        lane, start = self.place(params_name, now_s, latency_s,
                                 batch_id=batch_id)
        return Placement(
            lane=lane,
            pool_lane=lane % self.lanes_per_params,
            start_s=start,
        )

    def place(self, params_name: str, now_s: float, latency_s: float,
              *, batch_id: Optional[int] = None) -> Tuple[int, float]:
        """Pick a lane, commit its busy window; returns (lane, start)."""
        self.ensure(params_name)
        idle = [g for g in sorted(self.free_at) if self.free_at[g] <= now_s]
        if idle:
            affine = [g for g in idle if self.last_params[g] == params_name]
            lane = affine[0] if affine else idle[0]
            start = now_s
        else:
            lane = min(self.free_at, key=lambda g: (self.free_at[g], g))
            start = self.free_at[lane]
        self.free_at[lane] = start + latency_s
        self.last_params[lane] = params_name
        self.busy_s += latency_s
        emit_lane_span(self.tracer, lane, start, latency_s, params_name,
                       batch_id)
        return lane, start

    def report(self) -> LaneReport:
        return LaneReport(total_lanes=max(1, len(self.free_at)),
                          busy_s=self.busy_s)


def emit_lane_span(tracer, lane: int, start_s: float, latency_s: float,
                   params_name: str, batch_id: Optional[int]) -> None:
    """Emit the ``lane_start``/``lane_finish`` pair of one placed batch.

    Both are emitted at placement time: the finish instant is already
    known on the simulated clock.
    """
    if not tracer.enabled:
        return
    attrs = {"params": params_name}
    tracer.emit(TraceEvent("lane_start", start_s, None, batch_id, lane,
                           "", "", attrs))
    tracer.emit(TraceEvent("lane_finish", start_s + latency_s, None,
                           batch_id, lane, "", "", attrs))


class BatchingScheduler:
    """Queue plumbing the built-in schedulers share; subclass for a policy.

    Owns the :class:`~repro.serve.batcher.CoalescingBatcher` (per-replay
    batch ids, so two replays of one trace give byte-identical reports;
    capacity from the pool), optionally a :class:`GlobalLanePool`, the
    tracer binding, the service time of a batch key and the one
    ``enqueue`` event.  The batcher keeps the waiting counts, total and
    per tenant.  A subclass implements the protocol's policy methods on
    top of ``self._batcher`` and queues through :meth:`_add`.
    """

    def __init__(self, pool, policy: BatchPolicy, *, backend: str = "model",
                 group_of: Optional[Callable[[Request], tuple]] = None,
                 shared_lanes: bool = False):
        self.pool = pool
        self.policy = policy
        self.backend = backend
        self._batcher = CoalescingBatcher(
            policy,
            lambda key: pool.capacity(key, backend=backend),
            id_factory=itertools.count().__next__,
            group_of=group_of,
        )
        self._lanes = GlobalLanePool(pool.lane_count) if shared_lanes \
            else None
        self.tracer = NULL_TRACER
        # Batch key -> invocation latency: fixed for the pool's life,
        # so asked of the pool once per key and replay.
        self._latency: Dict[tuple, float] = {}

    def bind_tracer(self, tracer) -> None:
        """Route this replay's lifecycle events through ``tracer``."""
        self.tracer = tracer
        self._batcher.tracer = tracer
        if self._lanes is not None:
            self._lanes.tracer = tracer

    def _service_s(self, key: tuple) -> float:
        """Latency of one invocation for ``key`` on this backend."""
        latency = self._latency.get(key)
        if latency is None:
            latency = self._latency[key] = self.pool.profile(
                key, backend=self.backend).latency_s
        return latency

    def _add(self, request: Request, now_s: float) -> List[PolyBatch]:
        """Queue ``request``; returns the batch it filled, if any."""
        full = self._batcher.add(request)
        if self.tracer.enabled:
            waiting = self._batcher.tenant_waiting(request.tenant)
            if full is None:
                batch = self._batcher.open_batch(
                    self._batcher.group_of(request))
            else:
                # The arrival's own batch counts even though filling it
                # just took it off the queue.
                batch = full
                waiting += sum(1 for member in full.requests
                               if member.tenant == request.tenant)
            self.tracer.emit(TraceEvent(
                "enqueue", now_s, request.request_id, batch.batch_id, None,
                request.kind, request.tenant,
                {**self._enqueue_attrs(), "tenant_waiting": waiting},
            ))
        return [] if full is None else [full]

    def _enqueue_attrs(self) -> Dict[str, object]:
        """Policy attrs for the enqueue event, read after the add."""
        return {}
