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
"""

from __future__ import annotations

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
        if quantum <= 0:
            raise SchedulerError(f"quantum must be > 0, got {quantum}")
        self.tenant_weights = dict(tenant_weights or {})
        for tenant, weight in self.tenant_weights.items():
            if weight <= 0:
                raise SchedulerError(
                    f"tenant {tenant!r} weight must be > 0, got {weight}"
                )
        super().__init__(
            pool, policy, backend=backend, shared_lanes=True,
            group_of=lambda request: (request.tenant, request.batch_key),
        )
        self.queue_limit = queue_limit
        self.quantum = quantum
        self._deficit: Dict[str, float] = {}
        self._last_tenant: Optional[str] = None

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
        return self._add(request, now_s)

    def waiting(self) -> int:
        return len(self._batcher)

    # -- dispatch ----------------------------------------------------------

    def _dispatch_deadline_s(self, batch: PolyBatch) -> float:
        """Latest instant the batch may wait and still meet every SLO."""
        deadline = batch.oldest_arrival_s + self.policy.max_wait_s
        service = self._service_s(batch.key)
        for request in batch.requests:
            if request.deadline_s is not None:
                deadline = min(deadline, request.deadline_s - service)
        return deadline

    def next_event_s(self) -> float:
        deadlines = [
            self._dispatch_deadline_s(batch)
            for _, batch in self._batcher.open_items()
        ]
        return min(deadlines, default=float("inf"))

    def poll(self, now_s: float) -> List[PolyBatch]:
        expired = [
            group for group, batch in self._batcher.open_items()
            if self._dispatch_deadline_s(batch) <= now_s
        ]
        return self._drr_order([self._batcher.pop(group) for group in expired])

    def flush(self, now_s: float) -> List[PolyBatch]:
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
