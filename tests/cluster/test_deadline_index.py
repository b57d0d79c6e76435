"""Generated replays: every indexed wake-up equals the scan it replaced.

The batcher, ``adaptive`` and ``slo`` read their next deadline from an
index instead of visiting every open batch (see
:mod:`repro.serve.batcher`).  The reference oracles below are the scans
they replaced, written against the open batches.  A ``hypothesis``
strategy draws the inner policy (``adaptive`` with ``idle_fill`` in
(0, 1]), 1-4 chips with drain/fail/restore events (a failed chip
re-enqueues older requests into newer batches on the survivors, which
lowers their oldest arrival), optional deadlines and same-instant ties.
On every event-loop turn each chip's ``next_event_s``/``poll`` and its
batcher's ``next_deadline_s``/``take_expired`` must give what the scan
gives, from the same state.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterScheduler
from repro.errors import SchedulerError
from repro.ntt.params import STANDARD_PARAMS, NTTParams
from repro.serve import BatchPolicy, EnginePool, PoolConfig, ServingSimulator
from repro.serve.batcher import CoalescingBatcher
from repro.serve.request import Request

RING = "tiny-deadline-index"
RING_N = 16
RING_Q = 97
TENANTS = ("t0", "t1")
#: Operand keys; ``None`` is the operand-less ``ntt`` kernel.
OPERANDS = (None, 0, 1, 2)
GAPS_S = (0.0, 0.0, 1e-6, 5e-6, 5e-5, 2e-4)
DEADLINES_S = (None, None, 2e-6, 1e-5, 1e-4, 1e-3)
INF = float("inf")


# -- the scans the indexes replaced ----------------------------------------

def oldest_first(items):
    return sorted(items, key=lambda item: (item[1].oldest_arrival_s,
                                           item[1].batch_id))


def scan_next_deadline(batcher):
    return min((batch.deadline_s(batcher.policy)
                for _, batch in batcher.open_items()), default=INF)


def scan_take_expired(batcher, now_s):
    return [batch for _, batch in batcher.open_items()
            if batch.deadline_s(batcher.policy) <= now_s]


def adaptive_eligible_at(scheduler, batch):
    if batch.size >= scheduler.idle_fill * batch.capacity:
        return 0.0
    return batch.oldest_arrival_s + scheduler.min_wait_s


def adaptive_window(scheduler, waiting):
    fraction = min(1.0, waiting / scheduler.pressure)
    return scheduler.min_wait_s + (
        scheduler.max_wait_s - scheduler.min_wait_s) * fraction


def scan_adaptive_next_event(scheduler):
    items = scheduler._batcher.open_items()
    if not items:
        return INF
    earliest_free = scheduler._lanes.earliest_free_s()
    window = adaptive_window(scheduler, len(scheduler._batcher))
    return max(min(
        min(batch.oldest_arrival_s + window,
            max(adaptive_eligible_at(scheduler, batch), earliest_free))
        for _, batch in items), scheduler._now)


def scan_adaptive_poll(scheduler, now_s):
    """The batches ``adaptive``'s scanning poll popped, in its order."""
    open_batches = dict(scheduler._batcher.open_items())
    waiting = len(scheduler._batcher)
    idle = scheduler._lanes.idle_count(now_s)
    out = []
    changed = True
    while changed:
        changed = False
        for group, batch in oldest_first(open_batches.items()):
            if batch.oldest_arrival_s + adaptive_window(
                    scheduler, waiting) <= now_s:
                out.append(open_batches.pop(group))
                waiting -= batch.size
                changed = True
        eligible = [group for group, batch
                    in oldest_first(open_batches.items())
                    if now_s >= adaptive_eligible_at(scheduler, batch)]
        for group in eligible[:max(0, idle - len(out))]:
            batch = open_batches.pop(group)
            out.append(batch)
            waiting -= batch.size
            changed = True
    return out


def slo_dispatch_deadline(scheduler, batch):
    deadline = batch.oldest_arrival_s + scheduler.policy.max_wait_s
    service = scheduler._service_s(batch.key)
    for request in batch.requests:
        if request.deadline_s is not None:
            deadline = min(deadline, request.deadline_s - service)
    return deadline


def scan_slo_next_event(scheduler):
    return min((slo_dispatch_deadline(scheduler, batch)
                for _, batch in scheduler._batcher.open_items()),
               default=INF)


def scan_slo_poll(scheduler, now_s):
    """The batches ``slo``'s scanning poll expired (DRR orders them)."""
    return [batch for _, batch in scheduler._batcher.open_items()
            if slo_dispatch_deadline(scheduler, batch) <= now_s]


ORACLES = {
    "fifo": (lambda s: scan_next_deadline(s._batcher),
             lambda s, now_s: scan_take_expired(s._batcher, now_s), True),
    "adaptive": (scan_adaptive_next_event, scan_adaptive_poll, True),
    "slo": (scan_slo_next_event, scan_slo_poll, False),
}


# -- checking the indexed chips against the scans ---------------------------

def ids(batches):
    return [id(batch) for batch in batches]


def checked(chip, inner, turns):
    """Wrap one chip scheduler (and its batcher) with the oracles."""
    next_oracle, poll_oracle, ordered = ORACLES[inner]
    batcher = chip._batcher
    next_event_s, poll = chip.next_event_s, chip.poll
    next_deadline_s, take_expired = (batcher.next_deadline_s,
                                     batcher.take_expired)

    def checked_next_event_s():
        expected = next_oracle(chip)
        assert next_deadline_s() == scan_next_deadline(batcher)
        got = next_event_s()
        assert got == expected
        turns.append(None)
        return got

    def checked_poll(now_s):
        expected = poll_oracle(chip, now_s)
        got = poll(now_s)
        if ordered:
            assert ids(got) == ids(expected)
        else:
            assert sorted(ids(got)) == sorted(ids(expected))
        return got

    def checked_take_expired(now_s):
        expected = scan_take_expired(batcher, now_s)
        got = take_expired(now_s)
        assert ids(got) == ids(expected)
        return got

    chip.next_event_s, chip.poll = checked_next_event_s, checked_poll
    batcher.take_expired = checked_take_expired


def checked_cluster(inner, turns):
    def factory(pool, policy, *, backend="model", **options):
        cluster = ClusterScheduler(pool, policy, inner=inner,
                                   backend=backend, **options)
        for chip in cluster._chips:
            checked(chip, inner, turns)
        return cluster
    return factory


def operand(key):
    return tuple((key * 5 + j * 3 + 1) % RING_Q for j in range(RING_N))


def request_fields(i, key, t_s, tenant, budget):
    return dict(
        request_id=i, op="ntt" if key is None else "polymul",
        params_name=RING,
        payload=tuple((i * 7 + j) % RING_Q for j in range(RING_N)),
        operand=None if key is None else operand(key),
        arrival_s=t_s, tenant=tenant,
        deadline_s=None if budget is None else t_s + budget)


@pytest.fixture(scope="module")
def pool():
    STANDARD_PARAMS[RING] = NTTParams(n=RING_N, q=RING_Q,
                                      name="deadline index ring")
    yield EnginePool(PoolConfig(size=2, rows=32, cols=32))
    STANDARD_PARAMS.pop(RING, None)


@st.composite
def index_cases(draw):
    inner = draw(st.sampled_from(("fifo", "adaptive", "slo")))
    chips = draw(st.integers(min_value=1, max_value=4))
    count = draw(st.integers(min_value=1, max_value=50))
    # Request fields, not requests: the ring is registered only while
    # the ``pool`` fixture is alive, after ``@example`` values are built.
    trace = []
    t_s = 0.0
    for i in range(count):
        t_s += draw(st.sampled_from(GAPS_S))
        key = draw(st.sampled_from(OPERANDS))
        budget = draw(st.sampled_from(DEADLINES_S))
        trace.append(request_fields(i, key, t_s,
                                    draw(st.sampled_from(TENANTS)), budget))
    chip_events = tuple(
        (trace[index % count]["arrival_s"] + offset, chip, action)
        for index, offset, chip, action in draw(st.lists(
            st.tuples(st.integers(min_value=0, max_value=49),
                      st.sampled_from((0.0, 1e-6, 1e-4)),
                      st.integers(min_value=0, max_value=chips - 1),
                      st.sampled_from(("drain", "fail", "restore"))),
            max_size=4)))
    options = {"chips": chips, "chip_events": chip_events,
               "router": draw(st.sampled_from(("affinity", "round-robin")))}
    if inner == "adaptive":
        options["idle_fill"] = draw(st.one_of(
            st.just(1.0), st.sampled_from((0.25, 0.5, 0.75)),
            st.floats(min_value=0.01, max_value=1.0)))
        options["pressure"] = draw(st.sampled_from((1, 2, 16)))
    if inner == "slo":
        options["queue_limit"] = draw(st.sampled_from((2, 8, 64)))
    max_wait_s = draw(st.sampled_from((0.0, 1e-4, 2e-4, 1e-3)))
    return inner, options, max_wait_s, trace


@settings(max_examples=150, deadline=None)
@given(case=index_cases())
# slo drops the one request at admission (its 2 us deadline is shorter
# than its service time), so the event loop takes no turn.
@example(case=("slo", {"chips": 1, "chip_events": (), "router": "affinity",
                       "queue_limit": 2}, 0.0,
               [request_fields(0, 0, 0.0, "t0", 2e-6)]))
def test_indexed_wakeups_equal_the_scans(pool, case):
    inner, options, max_wait_s, fields = case
    trace = [Request(**f) for f in fields]
    turns = []
    sim = ServingSimulator(pool, BatchPolicy(max_wait_s=max_wait_s),
                           scheduler=checked_cluster(inner, turns),
                           scheduler_options=options)
    try:
        report = sim.replay(trace)
    except SchedulerError as exc:
        # A failed chip took queued work down with the last live chip.
        assert "no live chips remain" in str(exc)
        return
    assert turns or (report.count == 0 and len(report.drops) == len(trace))
    assert report.count + len(report.drops) == len(trace)


def test_a_lowered_batch_is_reindexed(tiny_request):
    """An older request joining a newer batch moves its deadline up, and
    expired batches still come back in insertion order."""
    batcher = CoalescingBatcher(BatchPolicy(max_wait_s=1e-3),
                                lambda key: 4,
                                id_factory=itertools.count().__next__)
    batcher.add(tiny_request(0, arrival_s=0.5))
    batcher.add(tiny_request(1, arrival_s=0.6, op="intt"))
    assert batcher.next_deadline_s() == 0.5 + 1e-3
    batcher.add(tiny_request(2, arrival_s=0.2, op="intt"))
    assert batcher.next_deadline_s() == 0.2 + 1e-3
    assert batcher.take_expired(0.2 + 1e-3 - 1e-9) == []
    expired = batcher.take_expired(0.5 + 1e-3)
    assert [batch.batch_id for batch in expired] == [0, 1]
    assert batcher.next_deadline_s() == INF and len(batcher) == 0
