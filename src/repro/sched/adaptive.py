"""Load-aware batching: the coalescing window follows queue pressure.

The fixed-window trade is visible in ``bench_serve_latency``: short
windows buy tail latency at 3-4x the energy per request (batches
dispatch nearly empty), long windows buy occupancy at the cost of p99.
The ``adaptive`` scheduler refuses the trade by moving the window with
load:

- **Pressure-scaled window.**  The effective max-wait interpolates
  between ``min_wait_s`` and ``max_wait_s`` with the number of queued
  requests: an idle system dispatches quickly, a backlogged one holds
  batches open until they fill — which is exactly when company is
  plentiful, so the wider window costs little extra latency and wins
  occupancy (fewer invocations, less lane time, shorter queues, lower
  p99 *and* lower energy under burst).
- **Idle-lane early dispatch.**  The pressure window only governs
  batches that have no lane to run on — waiting is free when every
  lane is busy.  The moment a lane idles, an open batch claims it if
  it is at least ``idle_fill`` full (nearly-full: padding cost is
  marginal) or has already coalesced for ``min_wait_s`` (a straggler:
  more waiting buys little company but pays full latency).  Fresh,
  nearly-empty batches keep waiting, which bounds the energy cost.

Lanes are the global shared pool (:class:`~repro.sched.base.
GlobalLanePool`), so "a lane is idle" means *any* subarray gang in the
system, not just the batch's own parameter set — idle Kyber capacity
absorbs a Dilithium burst.

Defaults anchor on the policy's fixed window: ``min_wait_s =
policy.max_wait_s`` (the operator's declared latency tolerance is the
*base* window) and ``max_wait_s = 4x`` that (the pressure-widened
cap), with ``idle_fill = 1.0`` — on the paper's small per-invocation
capacities (3-9 requests) a fractional fill floor rounds up to "full"
for most keys anyway, so fill-based early dispatch is opt-in.
``benchmarks/bench_sched_policies.py`` shows the result on the bursty
mixed-tenant trace: energy per request identical to the best fixed
window, p99 cut by roughly a third.

Wake-ups and polls read the batcher's deadline index instead of
visiting every open batch.  One pressure window applies to all batches
at once, and float rounding of ``x + c`` never decreases as ``x``
grows, so the earliest window expiry is ``oldest + window_s()`` and the
earliest straggler is ``oldest + min_wait_s`` for the batcher's oldest
batch, bit for bit; the batches past either are a prefix of the oldest-
first order.  The nearly-full batches are tracked as they are queued
and popped (none at the default ``idle_fill = 1.0``, where only a full
batch qualifies and the batcher closes it at once).  While any is open
the eligibility term reads ``0.0``: the wake-up takes the later of it
and the earliest lane-free time, and no lane frees before ``0.0``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import SchedulerError
from repro.sched.base import BatchingScheduler, LaneReport, Placement
from repro.serve.batcher import BatchPolicy, PolyBatch
from repro.serve.request import Request


class AdaptiveScheduler(BatchingScheduler):
    """Pressure-scaled windows with idle-lane early dispatch."""

    name = "adaptive"

    def __init__(self, pool, policy: BatchPolicy, *, backend: str = "model",
                 min_wait_s: Optional[float] = None,
                 max_wait_s: Optional[float] = None,
                 pressure: int = 16, idle_fill: float = 1.0, **options):
        if options:
            raise SchedulerError(
                f"adaptive scheduler got unknown options {sorted(options)}; "
                "known: min_wait_s, max_wait_s, pressure, idle_fill"
            )
        base = policy.max_wait_s
        if base == float("inf") and (min_wait_s is None or max_wait_s is None):
            raise SchedulerError(
                "adaptive scheduler needs finite windows; give min_wait_s "
                "and max_wait_s explicitly when policy.max_wait_s is inf"
            )
        self.min_wait_s = base if min_wait_s is None else min_wait_s
        self.max_wait_s = base * 4 if max_wait_s is None else max_wait_s
        if not 0 <= self.min_wait_s <= self.max_wait_s:
            raise SchedulerError(
                f"need 0 <= min_wait_s <= max_wait_s, got "
                f"{self.min_wait_s} .. {self.max_wait_s}"
            )
        if pressure < 1:
            raise SchedulerError(f"pressure must be >= 1, got {pressure}")
        if not 0 < idle_fill <= 1:
            raise SchedulerError(f"idle_fill must be in (0, 1], got {idle_fill}")
        super().__init__(pool, policy, backend=backend, shared_lanes=True)
        self.pressure = pressure
        self.idle_fill = idle_fill
        self._now = 0.0
        # Open batches at or above idle_fill x capacity, by group.
        self._nearly_full: Dict[tuple, PolyBatch] = {}

    # -- the load-scaled window -------------------------------------------

    def window_s(self) -> float:
        """Effective max-wait at the current queue depth."""
        fraction = min(1.0, len(self._batcher) / self.pressure)
        return self.min_wait_s + (self.max_wait_s - self.min_wait_s) * fraction

    def _deadline_s(self, batch: PolyBatch) -> float:
        return batch.oldest_arrival_s + self.window_s()

    def _is_nearly_full(self, batch: PolyBatch) -> bool:
        return batch.size >= self.idle_fill * batch.capacity

    def _eligible_at_s(self, batch: PolyBatch) -> float:
        """Earliest instant the batch may claim an idle lane."""
        if self._is_nearly_full(batch):
            return 0.0  # nearly full: any idle lane, immediately
        return batch.oldest_arrival_s + self.min_wait_s

    def _eligible(self, batch: PolyBatch, now_s: float) -> bool:
        """Worth an idle lane right now: nearly full, or a straggler.

        Must share ``_eligible_at_s``'s exact arithmetic: the event loop
        wakes at that instant and re-checks with this predicate, so any
        float divergence between the two would stall the replay.
        """
        return now_s >= self._eligible_at_s(batch)

    # -- admission and queueing -------------------------------------------

    def admit(self, request: Request, now_s: float) -> Optional[str]:
        return None  # adaptive shapes batches, never drops

    def enqueue(self, request: Request, now_s: float) -> List[PolyBatch]:
        self._now = now_s
        self._lanes.ensure(request.params_name)
        # Only a filled batch leaves here.  Early dispatch happens in
        # poll(): arrivals at one instant must all coalesce before an
        # idle lane may claim the batch (the event loop gives arrivals
        # priority on time ties, and next_event_s fires a wake-up at
        # this same instant).
        ready = self._add(request, now_s)
        if self.idle_fill < 1:
            # At idle_fill 1 only a full batch is nearly full, and the
            # batcher has already closed it.
            group = self._batcher.group_of(request)
            batch = self._batcher.open_batch(group)
            if batch is None:  # the request filled its batch
                self._nearly_full.pop(group, None)
            elif self._is_nearly_full(batch):
                self._nearly_full[group] = batch
        return ready

    def _enqueue_attrs(self) -> Dict[str, object]:
        # Read after a filled batch left the queue.
        return {"window_s": self.window_s()}

    def waiting(self) -> int:
        return len(self._batcher)

    # -- dispatch ----------------------------------------------------------

    def next_event_s(self) -> float:
        item = self._batcher.oldest_item()
        if item is None:
            return float("inf")
        _, oldest = item
        # The pressure window is the fallback; the early-dispatch moment
        # is when a batch becomes lane-worthy AND a lane is free
        # (earliest_free is in the past when one is idle already — the
        # max() then lands on the eligibility time, i.e. right after all
        # same-instant arrivals coalesce).  Per batch that is
        # min(deadline, max(eligible_at, earliest_free)); both terms are
        # monotone in the batch's oldest arrival, so the minimum over
        # the open batches reads the oldest one (module docs).
        eligible_s = 0.0 if self._nearly_full else self._eligible_at_s(oldest)
        wakeup = min(self._deadline_s(oldest),
                     max(eligible_s, self._lanes.earliest_free_s()))
        # Never schedule into the past: a window that shrank below the
        # current instant dispatches at the current instant.
        return max(wakeup, self._now)

    def poll(self, now_s: float) -> List[PolyBatch]:
        self._now = now_s
        out: List[PolyBatch] = []
        changed = True
        while changed:
            changed = False
            # Window expiries first, oldest first.  The window re-shrinks
            # as the queue drains, so re-check the new oldest each time;
            # once the oldest is in time, so is every younger batch.
            while True:
                item = self._batcher.oldest_item()
                if item is None or self._deadline_s(item[1]) > now_s:
                    break
                out.append(self._pop(item[0]))
                changed = True
            # ...then early dispatch: one eligible batch (oldest first)
            # per lane still idle once the batches above claim theirs.
            for _ in range(self._lanes.idle_count(now_s) - len(out)):
                group = self._oldest_eligible(now_s)
                if group is None:
                    break
                out.append(self._pop(group))
                changed = True
        return out

    def _oldest_eligible(self, now_s: float) -> Optional[tuple]:
        """The group of the oldest batch worth an idle lane now, if any.

        A straggler is eligible only if the oldest batch is (its
        eligibility is monotone in the oldest arrival); a nearly-full
        batch is eligible at any age.
        """
        best = self._batcher.oldest_item()
        if best is not None and not self._eligible(best[1], now_s):
            best = None
        for item in self._nearly_full.items():
            if self._eligible(item[1], now_s) and (
                    best is None or _age_key(item) < _age_key(best)):
                best = item
        return None if best is None else best[0]

    def flush(self, now_s: float) -> List[PolyBatch]:
        self._now = now_s
        open_items = sorted(self._batcher.open_items(), key=_age_key)
        return [self._pop(group) for group, _ in open_items]

    def _pop(self, group: tuple) -> PolyBatch:
        self._nearly_full.pop(group, None)
        return self._batcher.pop(group)

    # -- placement ---------------------------------------------------------

    def place(self, batch: PolyBatch, now_s: float) -> Placement:
        return self._lanes.placement(batch.key[0], now_s,
                                     self._service_s(batch.key),
                                     batch_id=batch.batch_id)

    def lane_report(self) -> LaneReport:
        return self._lanes.report()


def _age_key(item: tuple) -> tuple:
    """Oldest-first order of a (group, batch) pair; ids break ties."""
    batch = item[1]
    return batch.oldest_arrival_s, batch.batch_id
