"""SLO-aware scheduling: queue limits, deadlines, weighted fairness.

The ``slo`` scheduler makes overload behavior a first-class, measured
result instead of an unbounded queue:

- **Admission control.**  The waiting queue is bounded at
  ``queue_limit`` requests globally, and each tenant additionally owns
  a share of it proportional to its configured weight (an unlisted
  tenant weighs ``1.0``; with no weights configured the global bound is
  the only one).  A request arriving past either bound is dropped with
  reason ``"queue_full"``.  A request whose deadline cannot be met even
  by an idle lane starting immediately (``arrival + service >
  deadline``) is dropped with reason ``"deadline_unmet"``.  Both
  decisions depend only on the request and the queue state, so the
  drop set is deterministic.
- **Deadline-driven dispatch.**  Batches coalesce per (tenant, batch
  key) — single-tenant batches keep the fairness accounting exact —
  and close at ``min(oldest arrival + max_wait, min over deadlines of
  (deadline - service))``: a batch is forced out early enough that its
  tightest request can still finish on time if a lane is free.
- **Deficit round-robin.**  Dispatch (and therefore lane-placement)
  order follows DRR over tenants: each round a tenant earns ``quantum
  x weight`` credits and spends one per request dispatched, so a heavy
  tenant cannot starve a light one of lanes when several batches are
  ready at one instant, and the round-robin cursor advances on every
  dispatch — solo or tied — so no tenant is served twice in a row
  while another waits.

Lanes are the global shared pool of :class:`~repro.sched.base.
GlobalLanePool`: idle capacity from any parameter set serves any
tenant's burst.

Wake-ups visit no open batch.  The max-wait half of the dispatch
deadline is the batcher's deadline index; the SLO half is a lazy
min-heap of ``tightest deadline - service`` per batch, pushed whenever a
queued request carries its batch's tightest deadline (the batch keeps
that running minimum, as it keeps its oldest arrival).  Both are exact:
float rounding of ``x - s`` never decreases as ``x`` grows, so
``min(d - s)`` over a batch's requests is ``min(d) - s`` bit for bit,
and the minimum over batches of ``min(a, b)`` is the smaller of the two
indexes' tops.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Dict, List, Mapping, Optional

from repro.errors import SchedulerError
from repro.sched.base import BatchingScheduler, LaneReport, Placement
from repro.serve.batcher import BatchPolicy, PolyBatch
from repro.serve.request import Request

#: Drop reasons the admission path can return.
DROP_QUEUE_FULL = "queue_full"
DROP_DEADLINE_UNMET = "deadline_unmet"


class SLOScheduler(BatchingScheduler):
    """Bounded queues, per-request deadlines, DRR tenant fairness."""

    name = "slo"

    def __init__(self, pool, policy: BatchPolicy, *, backend: str = "model",
                 queue_limit: int = 64,
                 tenant_weights: Optional[Mapping[str, float]] = None,
                 quantum: float = 4.0, **options):
        if options:
            raise SchedulerError(
                f"slo scheduler got unknown options {sorted(options)}; "
                "known: queue_limit, tenant_weights, quantum"
            )
        if queue_limit < 1:
            raise SchedulerError(f"queue_limit must be >= 1, got {queue_limit}")
        # ``not 0 < x < inf`` also rejects NaN, which every comparison fails.
        if not 0 < quantum < math.inf:
            raise SchedulerError(f"quantum must be finite and > 0, got {quantum}")
        self.tenant_weights = dict(tenant_weights or {})
        for tenant, weight in self.tenant_weights.items():
            if not 0 < weight < math.inf:
                raise SchedulerError(
                    f"tenant {tenant!r} weight must be finite and > 0, "
                    f"got {weight}"
                )
        super().__init__(
            pool, policy, backend=backend, shared_lanes=True,
            group_of=lambda request: (request.tenant, request.batch_key),
        )
        self.queue_limit = queue_limit
        self.quantum = quantum
        self._deficit: Dict[str, float] = {}
        self._last_tenant: Optional[str] = None
        # Lazy min-heap of (tightest deadline - service, seq, group,
        # batch); an entry is live while its batch is the group's open
        # batch (module docs).
        self._slo_index: List[tuple] = []
        self._slo_seq = itertools.count()

    # -- weighted shares ---------------------------------------------------

    def weight(self, tenant: str) -> float:
        return self.tenant_weights.get(tenant, 1.0)

    def share(self, tenant: str) -> int:
        """The tenant's bounded slice of the waiting queue.

        With no weights configured every tenant may use the whole
        (globally bounded) queue; with weights, shares are fixed
        fractions of ``queue_limit`` (computed from the config alone,
        so admission is independent of which tenants happen to be
        active).
        """
        if not self.tenant_weights:
            return self.queue_limit
        total = sum(self.tenant_weights.values())
        if tenant not in self.tenant_weights:
            total += 1.0
        return max(1, round(self.queue_limit * self.weight(tenant) / total))

    # -- admission and queueing -------------------------------------------

    def admit(self, request: Request, now_s: float) -> Optional[str]:
        if request.deadline_s is not None:
            if now_s + self._service_s(request.batch_key) > request.deadline_s:
                return DROP_DEADLINE_UNMET
        if len(self._batcher) >= self.queue_limit:
            return DROP_QUEUE_FULL
        if self._batcher.tenant_waiting(request.tenant) >= self.share(request.tenant):
            return DROP_QUEUE_FULL
        return None

    def enqueue(self, request: Request, now_s: float) -> List[PolyBatch]:
        self._lanes.ensure(request.params_name)
        ready = self._add(request, now_s)
        # Price the key as soon as a batch of it is queued: the pool
        # emits a key's one profile event when it first prices it, and
        # that event keeps its place in the stream.
        service = self._service_s(request.batch_key)
        deadline = request.deadline_s
        if deadline is not None and not ready:
            group = self._batcher.group_of(request)
            batch = self._batcher.open_batch(group)
            if batch.tightest_deadline_s == deadline:
                heappush(self._slo_index, (deadline - service,
                                           next(self._slo_seq), group, batch))
        return ready

    def waiting(self) -> int:
        return len(self._batcher)

    # -- dispatch ----------------------------------------------------------

    def _slo_top(self) -> Optional[tuple]:
        """The live SLO-index entry with the earliest start-by time."""
        index = self._slo_index
        while index:
            _, _, group, batch = entry = index[0]
            if self._batcher.open_batch(group) is batch:
                return entry
            heappop(index)
        return None

    def next_event_s(self) -> float:
        """Earliest dispatch deadline: the min over open batches of
        ``min(oldest + max_wait_s, tightest - service)``, from the two
        indexes (module docs)."""
        entry = self._slo_top()
        slo_s = float("inf") if entry is None else entry[0]
        return min(self._batcher.next_deadline_s(), slo_s)

    def poll(self, now_s: float) -> List[PolyBatch]:
        expired = self._batcher.take_expired(now_s)
        while True:
            entry = self._slo_top()
            if entry is None or entry[0] > now_s:
                break
            heappop(self._slo_index)
            expired.append(self._batcher.pop(entry[2]))
        # DRR orders by tenant, then (oldest arrival, batch id): the
        # order the batches expired in does not matter.
        return self._drr_order(expired)

    def flush(self, now_s: float) -> List[PolyBatch]:
        self._slo_index.clear()
        return self._drr_order(self._batcher.drain())

    def _drr_order(self, batches: List[PolyBatch]) -> List[PolyBatch]:
        """Deficit-round-robin dispatch order over the batches' tenants.

        Runs for every dispatch — including a solo batch — so the
        deficit counters and the round-robin cursor always reflect what
        was actually served.
        """
        if not batches:
            return batches
        by_tenant: Dict[str, List[PolyBatch]] = {}
        for batch in batches:
            by_tenant.setdefault(batch.requests[0].tenant, []).append(batch)
        for queue in by_tenant.values():
            queue.sort(key=lambda b: (b.oldest_arrival_s, b.batch_id))
        tenants = sorted(by_tenant)
        if self._last_tenant is not None:
            # Resume the round after the tenant served last time.
            tenants = ([t for t in tenants if t > self._last_tenant]
                       + [t for t in tenants if t <= self._last_tenant])
        order: List[PolyBatch] = []
        while any(by_tenant.values()):
            for tenant in tenants:
                queue = by_tenant[tenant]
                if not queue:
                    continue
                self._deficit[tenant] = (self._deficit.get(tenant, 0.0)
                                         + self.quantum * self.weight(tenant))
                dispatched = False
                while queue and queue[0].size <= self._deficit[tenant]:
                    batch = queue.pop(0)
                    self._deficit[tenant] -= batch.size
                    order.append(batch)
                    dispatched = True
                if not queue:
                    # Classic DRR: an emptied queue forfeits its credit.
                    self._deficit[tenant] = 0.0
                if dispatched:
                    # The resume cursor advances on actual dispatch only:
                    # a tenant whose large batch merely accrued deficit
                    # this round was not served, and the cursor must not
                    # drift past it.
                    self._last_tenant = tenant
        return order

    # -- placement ---------------------------------------------------------

    def place(self, batch: PolyBatch, now_s: float) -> Placement:
        return self._lanes.placement(
            batch.key[0], now_s, self._service_s(batch.key),
            batch_id=batch.batch_id,
        )

    def lane_report(self) -> LaneReport:
        return self._lanes.report()
