"""Coalescing batcher: independent requests -> engine-capacity batches.

The engine amortizes one instruction stream over its whole batch, so
serving efficiency is batch occupancy.  The batcher holds an open
:class:`PolyBatch` per compatibility key (parameter set + op + fixed
operand) and closes a batch when either

- it reaches capacity (``min(engine batch, policy.max_batch)``), or
- its oldest request has waited ``policy.max_wait_s``.

Partial batches dispatch with their free slots zero-filled, following
the paper's convention for under-full subarrays (the engine's
:meth:`~repro.core.engine.BPNTTEngine.load` pads the remaining slots
with zero polynomials); the padding count is carried on the batch so
per-request energy accounting can charge the waste to the live
requests.

The batcher finds its next deadline without visiting the open batches:
it keeps a lazy min-heap of ``(oldest arrival, batch id, group,
batch)`` entries.  A batch gets an entry when it opens and a new one
whenever an added request lowers its oldest arrival (a failed chip
re-enqueueing older requests into a newer batch).  An entry is live
while its batch is still the group's open batch and the batch's oldest
arrival still equals the key; stale entries are dropped when they reach
the top.  The result is exact, not approximate: float rounding of
``x + c`` never decreases as ``x`` grows, so ``min(o + c)`` over the
batches equals ``min(o) + c`` bit for bit, and the batches whose
``o + c`` has passed are a prefix of the heap order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import itemgetter
from typing import Callable, Dict, List, Optional

from repro.errors import CapacityError, ParameterError
from repro.obs.tracer import NULL_TRACER, TraceEvent
from repro.serve.request import Request

_batch_ids = itertools.count()


@dataclass(frozen=True)
class BatchPolicy:
    """Coalescing knobs.

    Attributes:
        max_wait_s: longest a request may wait for co-batched company
            before its batch is forced out.
        max_batch: cap on requests per batch; ``None`` means the
            engine's full capacity.
    """

    max_wait_s: float = 2e-3
    max_batch: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.max_wait_s >= 0:  # also nan, which never times out
            raise ParameterError(f"max_wait_s must be >= 0, got {self.max_wait_s}")
        if self.max_batch is not None and self.max_batch < 1:
            raise ParameterError(f"max_batch must be >= 1, got {self.max_batch}")

    def effective_capacity(self, engine_capacity: int) -> int:
        if self.max_batch is None:
            return engine_capacity
        return min(self.max_batch, engine_capacity)


@dataclass
class PolyBatch:
    """Requests sharing one engine invocation."""

    key: tuple
    capacity: int
    batch_id: int = field(default_factory=lambda: next(_batch_ids))
    requests: List[Request] = field(default_factory=list)
    # Running mins of the members' arrivals and deadlines, so a batch's
    # deadlines are O(1) reads.
    _oldest_s: float = field(init=False, repr=False, compare=False)
    _tightest_s: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._oldest_s = min((r.arrival_s for r in self.requests),
                             default=float("inf"))
        self._tightest_s = min((r.deadline_s for r in self.requests
                                if r.deadline_s is not None),
                               default=float("inf"))

    def add(self, request: Request) -> None:
        """Append a compatible request; reject mismatches loudly."""
        if request.batch_key != self.key:
            raise ParameterError(
                f"request {request.request_id} (key {request.batch_key!r}) is "
                f"incompatible with batch key {self.key!r}; one invocation "
                "runs one parameter set, op and fixed operand"
            )
        if self.full:
            raise CapacityError(
                f"batch {self.batch_id} already holds {self.capacity} requests"
            )
        self.requests.append(request)
        if request.arrival_s < self._oldest_s:
            self._oldest_s = request.arrival_s
        deadline = request.deadline_s
        if deadline is not None and deadline < self._tightest_s:
            self._tightest_s = deadline

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def full(self) -> bool:
        return self.size >= self.capacity

    @property
    def padding(self) -> int:
        """Zero-filled slots if dispatched now."""
        return self.capacity - self.size

    @property
    def oldest_arrival_s(self) -> float:
        if not self.requests:
            raise CapacityError(f"batch {self.batch_id} is empty")
        return self._oldest_s

    @property
    def tightest_deadline_s(self) -> float:
        """Earliest member deadline (inf when no member carries one)."""
        return self._tightest_s

    def deadline_s(self, policy: BatchPolicy) -> float:
        """Latest instant this batch may keep waiting."""
        return self.oldest_arrival_s + policy.max_wait_s


class CoalescingBatcher:
    """Groups arriving requests into per-group open batches.

    ``capacity_of`` maps a batch key to the engine capacity for that
    parameter set (the pool provides it), letting the batcher size
    batches without owning any engine state.  ``group_of`` picks the
    coalescing granularity: by default requests sharing a batch key
    share a batch, but a scheduler may split further (e.g. per tenant
    *and* key, so fairness accounting stays single-tenant) — every
    group's requests must still share one batch key.
    """

    def __init__(self, policy: BatchPolicy, capacity_of: Callable[[tuple], int],
                 *, id_factory: Optional[Callable[[], int]] = None,
                 group_of: Optional[Callable[[Request], tuple]] = None):
        # ``id_factory`` overrides the module-global batch-id counter;
        # schedulers pass a per-replay counter so two replays of the
        # same trace produce byte-identical reports.  Ids must increase
        # from call to call (both counters do): the deadline index breaks
        # ties on them, and their order is the open batches' insertion
        # order.
        self.policy = policy
        self.capacity_of = capacity_of
        self._id_factory = id_factory or (lambda: next(_batch_ids))
        self.group_of = group_of or (lambda request: request.batch_key)
        self._open: Dict[tuple, PolyBatch] = {}
        # Lazy min-heap of (oldest arrival, batch id, group, batch); see
        # the module docs.
        self._index: List[tuple] = []
        # Running counts of the requests in open batches, kept on every
        # add and close so readers never rescan the open batches.
        self._waiting = 0
        self._tenant_waiting: Dict[str, int] = {}
        # Observability seam: schedulers bind the replay's tracer here
        # (see Scheduler.bind_tracer); batch_open events mark the
        # batch-formation stage of the request lifecycle.  Emission is
        # append-only and never read back, so it cannot perturb
        # coalescing decisions.
        self.tracer = NULL_TRACER

    def __len__(self) -> int:
        """Requests currently waiting in open batches."""
        return self._waiting

    def tenant_waiting(self, tenant: str) -> int:
        """Requests of ``tenant`` currently waiting in open batches."""
        return self._tenant_waiting.get(tenant, 0)

    def add(self, request: Request) -> Optional[PolyBatch]:
        """Admit one request; returns the batch if this filled it."""
        group = self.group_of(request)
        batch = self._open.get(group)
        lowered = batch is None or request.arrival_s < batch._oldest_s
        if batch is None:
            capacity = self.policy.effective_capacity(
                self.capacity_of(request.batch_key)
            )
            batch = PolyBatch(key=request.batch_key, capacity=capacity,
                              batch_id=self._id_factory())
            self._open[group] = batch
            if self.tracer.enabled:
                self.tracer.emit(TraceEvent(
                    "batch_open", request.arrival_s, None, batch.batch_id,
                    None, request.kind, request.tenant,
                    {"params": request.params_name, "op": request.op,
                     "capacity": capacity},
                ))
        batch.add(request)
        self._waiting += 1
        tenant = request.tenant
        self._tenant_waiting[tenant] = self._tenant_waiting.get(tenant, 0) + 1
        if batch.full:
            return self.pop(group)
        if lowered:
            heappush(self._index,
                     (batch._oldest_s, batch.batch_id, group, batch))
        return None

    def open_batch(self, group: tuple) -> Optional[PolyBatch]:
        """The batch currently open for ``group`` (None when closed)."""
        return self._open.get(group)

    def open_items(self) -> List[tuple]:
        """The (group, batch) pairs currently open, insertion-ordered.

        Schedulers with their own dispatch rules (deadlines, pressure
        windows) iterate this and :meth:`pop` what they close.
        """
        return list(self._open.items())

    def pop(self, group: tuple) -> PolyBatch:
        """Close and return one open batch by its group."""
        batch = self._open.pop(group)
        self._waiting -= batch.size
        for request in batch.requests:
            self._tenant_waiting[request.tenant] -= 1
        return batch

    def _top(self) -> Optional[tuple]:
        """The live index entry of the oldest open batch, if any."""
        index = self._index
        while index:
            entry = index[0]
            oldest_s, _, group, batch = entry
            if self._open.get(group) is batch and batch._oldest_s == oldest_s:
                return entry
            heappop(index)
        return None

    def oldest_item(self) -> Optional[tuple]:
        """The (group, batch) pair whose oldest member arrived first.

        Ties go to the lower batch id, so repeated calls walk the open
        batches in ``(oldest_arrival_s, batch_id)`` order as the caller
        pops them.  ``None`` when no batch is open.
        """
        entry = self._top()
        return None if entry is None else entry[2:]

    def next_deadline_s(self) -> float:
        """Earliest max-wait expiry among open batches (inf when idle)."""
        entry = self._top()
        if entry is None:
            return float("inf")
        return entry[3].deadline_s(self.policy)

    def take_expired(self, now_s: float) -> List[PolyBatch]:
        """Pop every open batch whose max-wait deadline has passed.

        The batches come back in insertion order.  When nothing has
        expired, only the oldest batch's deadline is read.
        """
        expired = []
        while True:
            entry = self._top()
            if entry is None or entry[3].deadline_s(self.policy) > now_s:
                break
            expired.append(heappop(self._index))
        expired.sort(key=itemgetter(1))
        return [self.pop(entry[2]) for entry in expired]

    def drain(self) -> List[PolyBatch]:
        """Pop all open batches (end of trace)."""
        batches = list(self._open.values())
        self._open.clear()
        self._index.clear()
        self._waiting = 0
        self._tenant_waiting.clear()
        return batches
