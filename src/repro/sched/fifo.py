"""The extracted PR 1 policy: admit everything, fixed window, RR lanes.

``fifo`` is the serving simulator's original behavior lifted behind the
:class:`~repro.sched.base.Scheduler` protocol, kept as the regression
baseline: every request is admitted, batches close on the policy's
fixed ``max_wait_s`` window (or when full), each parameter set owns its
own ``pool.lane_count`` lanes, and batches round-robin across them.
Replaying a trace through ``fifo`` reproduces the pre-scheduler
simulator's numbers exactly — asserted in ``tests/sched``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SchedulerError
from repro.sched.base import BatchingScheduler, LaneReport, Placement, emit_lane_span
from repro.serve.batcher import BatchPolicy, PolyBatch
from repro.serve.request import Request


class FifoScheduler(BatchingScheduler):
    """Admit-all, fixed-window coalescing, per-parameter round-robin."""

    name = "fifo"

    def __init__(self, pool, policy: BatchPolicy, *, backend: str = "model",
                 **options):
        if options:
            raise SchedulerError(
                f"fifo scheduler takes no options, got {sorted(options)}"
            )
        super().__init__(pool, policy, backend=backend)
        self._free_at: Dict[Tuple[str, int], float] = {}
        self._busy_s: Dict[Tuple[str, int], float] = {}
        # Per-replay round-robin state, so lane phase never leaks
        # between replays.
        self._rr: Dict[str, int] = {}

    # -- admission and queueing -------------------------------------------

    def admit(self, request: Request, now_s: float) -> Optional[str]:
        return None  # fifo never drops

    def enqueue(self, request: Request, now_s: float) -> List[PolyBatch]:
        return self._add(request, now_s)

    def waiting(self) -> int:
        return len(self._batcher)

    # -- dispatch ----------------------------------------------------------

    def next_event_s(self) -> float:
        return self._batcher.next_deadline_s()

    def poll(self, now_s: float) -> List[PolyBatch]:
        return self._batcher.take_expired(now_s)

    def flush(self, now_s: float) -> List[PolyBatch]:
        return self._batcher.drain()

    # -- placement ---------------------------------------------------------

    def place(self, batch: PolyBatch, now_s: float) -> Placement:
        params_name = batch.key[0]
        lane = self._rr.get(params_name, 0)
        self._rr[params_name] = (lane + 1) % self.pool.lane_count
        lane_key = (params_name, lane)
        start = max(now_s, self._free_at.get(lane_key, 0.0))
        latency = self._service_s(batch.key)
        self._free_at[lane_key] = start + latency
        self._busy_s[lane_key] = self._busy_s.get(lane_key, 0.0) + latency
        emit_lane_span(self.tracer, lane, start, latency, params_name,
                       batch.batch_id)
        return Placement(lane=lane, pool_lane=lane, start_s=start)

    def lane_report(self) -> LaneReport:
        params_used = {name for name, _ in self._free_at}
        return LaneReport(
            total_lanes=self.pool.lane_count * max(1, len(params_used)),
            busy_s=sum(self._busy_s.values()),
        )
