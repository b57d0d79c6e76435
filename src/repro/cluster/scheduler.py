"""Two-level scheduling: the router picks a chip, the chip picks a lane.

``cluster:<inner>`` (registered as a namespace in
:mod:`repro.sched.registry`) wraps N independent instances of the
``<inner>`` policy — one per simulated chip — behind the
:class:`~repro.sched.base.Scheduler` protocol, so a plain
:class:`~repro.serve.simulator.ServingSimulator` drives a whole cluster
without learning anything new.  Each inner instance keeps private lane
occupancy, so every SCHED001-009 conformance rule holds per chip.

Namespacing keeps the merged event stream unambiguous and collapses to
the identity on a cluster of one (the byte-parity guarantee):

- batch ids:  ``global = local * chips + chip``
- lane ids:   ``global = local * chips + chip``

so the owning chip of any batch or lane is ``id % chips``.

Chip lifecycle is driven by :class:`ChipEvent`\\ s on the replay clock:
``drain`` removes a chip from routing but lets queued work finish,
``fail`` flushes its open batches and re-enqueues the member requests
onto surviving chips (request conservation — SCHED009 — holds across
failures), ``restore`` returns it to the routing pool.

The event loop reads each chip's next wake-up and queue depth from a
per-chip cache instead of asking every chip on every turn.  The cache
is exact: a chip's ``next_event_s()`` and ``waiting()`` change only
through its own ``enqueue``/``poll``/``flush``/``place`` (the
:class:`~repro.sched.base.Scheduler` contract), and the cluster
refreshes a chip's entries right after each of those calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import SchedulerError
from repro.obs.tracer import NULL_TRACER, TraceEvent
from repro.sched.base import LaneReport, Placement
from repro.serve.batcher import BatchPolicy, PolyBatch
from repro.serve.request import Request

__all__ = ["ChipEvent", "ClusterScheduler", "cluster_factory"]

_CHIP_ACTIONS = ("drain", "fail", "restore")


@dataclass(frozen=True)
class ChipEvent:
    """A chip lifecycle change at ``t_s`` on the replay clock."""

    t_s: float
    chip: int
    action: str

    def __post_init__(self) -> None:
        if self.action not in _CHIP_ACTIONS:
            raise SchedulerError(
                f"unknown chip action {self.action!r}; "
                f"expected one of {_CHIP_ACTIONS}"
            )
        if self.t_s < 0.0:
            raise SchedulerError(f"chip event time must be >= 0, got {self.t_s}")


class _ChipTracer:
    """Per-chip tracer shim that namespaces ids and labels the chip.

    Inner schedulers emit ``enqueue``/``batch_open`` *before* the batch
    surfaces (original local batch id) and ``lane_start``/``lane_finish``
    at ``place()`` time (batch id already namespaced, lane still local) —
    so batch ids rewrite only on the former pair and lanes only on the
    latter.
    """

    __slots__ = ("base", "chip", "chips", "enabled")

    def __init__(self, base, chip: int, chips: int):
        self.base = base
        self.chip = chip
        self.chips = chips
        self.enabled = base.enabled

    def emit(self, event: TraceEvent) -> None:
        phase, t_s, request_id, batch_id, lane, kind, tenant, attrs = event
        if phase in ("enqueue", "batch_open"):
            if batch_id is not None:
                batch_id = batch_id * self.chips + self.chip
        elif phase in ("lane_start", "lane_finish"):
            lane = lane * self.chips + self.chip
        self.base.emit(TraceEvent(phase, t_s, request_id, batch_id, lane,
                                  kind, tenant, {**attrs, "chip": self.chip}))


class ClusterScheduler:
    """N per-chip schedulers behind one router front door."""

    def __init__(self, pool, policy: BatchPolicy, *, inner: str = "fifo",
                 backend: str = "model", chips: int = 1,
                 router: str = "affinity",
                 router_options: Optional[dict] = None,
                 chip_events: Sequence[Union[ChipEvent, tuple]] = (),
                 **inner_options):
        from repro.cluster.router import create_router
        from repro.sched.registry import create_scheduler

        if isinstance(chips, bool) or not isinstance(chips, int) or chips < 1:
            raise SchedulerError(f"cluster needs chips >= 1, got {chips!r}")
        if inner.startswith("cluster:"):
            raise SchedulerError("cluster schedulers do not nest")
        self.pool = pool
        self.policy = policy
        self.backend = backend
        self.chips = chips
        self.inner = inner
        # A cluster of one reports the inner policy's own name so its
        # serialized reports stay byte-identical to single-chip goldens.
        self.name = inner if chips == 1 else f"cluster:{inner}"
        self._chips = [
            create_scheduler(inner, pool, policy, backend=backend,
                             **dict(inner_options))
            for _ in range(chips)
        ]
        self.router = create_router(router, chips,
                                    **dict(router_options or {}))
        events = [event if isinstance(event, ChipEvent) else ChipEvent(*event)
                  for event in chip_events]
        for event in events:
            if not 0 <= event.chip < chips:
                raise SchedulerError(
                    f"chip event targets chip {event.chip}, "
                    f"cluster has {chips}"
                )
        self._pending = sorted(events, key=lambda e: (e.t_s, e.chip))
        self._live = set(range(chips))
        self._live_order: Tuple[int, ...] = tuple(range(chips))
        self._route: Dict[int, int] = {}
        # Each chip's cached next wake-up and queue depth (module docs).
        self._next_s = [scheduler.next_event_s() for scheduler in self._chips]
        self._waiting = [scheduler.waiting() for scheduler in self._chips]
        self.tracer = NULL_TRACER

    def _sync(self, chip: int) -> None:
        """Refresh the chip's cached wake-up and queue depth."""
        scheduler = self._chips[chip]
        self._next_s[chip] = scheduler.next_event_s()
        self._waiting[chip] = scheduler.waiting()

    # -- tracing -----------------------------------------------------------

    def bind_tracer(self, tracer) -> None:
        """Give each chip a shim that namespaces its events."""
        self.tracer = tracer
        for chip, scheduler in enumerate(self._chips):
            bind = getattr(scheduler, "bind_tracer", None)
            if bind is not None:
                bind(_ChipTracer(tracer, chip, self.chips)
                     if tracer.enabled else tracer)

    # -- admission and queueing -------------------------------------------

    def admit(self, request: Request, now_s: float) -> Optional[str]:
        if not self._live:
            return "no_live_chips"
        chip = self.router.chip_for(request, self._live_order)
        reason = self._chips[chip].admit(request, now_s)
        if reason is None:
            self._route[request.request_id] = chip
        return reason

    def enqueue(self, request: Request, now_s: float) -> List[PolyBatch]:
        chip = self._route.pop(request.request_id, None)
        if chip is None:
            chip = self.router.chip_for(request, self._live_order)
        return self._surface(self._chips[chip].enqueue(request, now_s), chip)

    def waiting(self) -> int:
        return sum(self._waiting)

    # -- dispatch ----------------------------------------------------------

    def next_event_s(self) -> float:
        t_s = min(self._next_s)
        if self._pending:
            t_s = min(t_s, self._pending[0].t_s)
        return t_s

    def poll(self, now_s: float) -> List[PolyBatch]:
        surfaced: List[PolyBatch] = []
        while self._pending and self._pending[0].t_s <= now_s:
            self._apply(self._pending.pop(0), now_s, surfaced)
        due = [chip for chip, t_s in enumerate(self._next_s) if t_s <= now_s]
        for chip in due:
            surfaced.extend(self._surface(self._chips[chip].poll(now_s), chip))
        return surfaced

    def flush(self, now_s: float) -> List[PolyBatch]:
        surfaced: List[PolyBatch] = []
        for chip, scheduler in enumerate(self._chips):
            surfaced.extend(self._surface(scheduler.flush(now_s), chip))
        return surfaced

    def _apply(self, event: ChipEvent, now_s: float,
               surfaced: List[PolyBatch]) -> None:
        if event.action == "restore":
            self._live.add(event.chip)
        else:
            self._live.discard(event.chip)
        self._live_order = tuple(sorted(self._live))
        if event.action == "fail":
            # A failed chip loses its open batches; the member requests
            # re-enqueue on surviving chips so conservation holds.
            lost = self._chips[event.chip].flush(now_s)
            self._sync(event.chip)
            for batch in lost:
                for member in batch.requests:
                    if not self._live:
                        raise SchedulerError(
                            f"chip {event.chip} failed with queued work "
                            f"and no live chips remain"
                        )
                    target = self.router.chip_for(member, self._live_order)
                    surfaced.extend(self._surface(
                        self._chips[target].enqueue(member, now_s), target))

    # -- placement ---------------------------------------------------------

    def _surface(self, batches: List[PolyBatch], chip: int) -> List[PolyBatch]:
        """Namespace the batches a chip call returned; refresh its cache."""
        self._sync(chip)
        # PolyBatch is mutable by design; rewriting in place keeps the
        # id the simulator sees consistent with later place() calls.
        for batch in batches:
            batch.batch_id = batch.batch_id * self.chips + chip
        return batches

    def place(self, batch: PolyBatch, now_s: float) -> Placement:
        chip = batch.batch_id % self.chips
        placement = self._chips[chip].place(batch, now_s)
        self._sync(chip)
        return Placement(
            lane=placement.lane * self.chips + chip,
            pool_lane=placement.pool_lane,
            start_s=placement.start_s,
        )

    def lane_report(self) -> LaneReport:
        reports = [scheduler.lane_report() for scheduler in self._chips]
        return LaneReport(
            total_lanes=sum(report.total_lanes for report in reports),
            busy_s=sum(report.busy_s for report in reports),
        )

    # -- introspection -----------------------------------------------------

    @property
    def live_chips(self) -> Tuple[int, ...]:
        return self._live_order


def cluster_factory(inner: str):
    """The ``cluster`` namespace wrapper: a factory for ``cluster:<inner>``."""

    def factory(pool, policy: BatchPolicy, *, backend: str = "model",
                chips: int = 1, router: str = "affinity",
                router_options: Optional[dict] = None,
                chip_events: Sequence[Union[ChipEvent, tuple]] = (),
                **inner_options):
        return ClusterScheduler(
            pool, policy, inner=inner, backend=backend, chips=chips,
            router=router, router_options=router_options,
            chip_events=chip_events, **inner_options)

    return factory
