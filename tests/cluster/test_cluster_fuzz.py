"""Generated cluster replays: the conformance rules hold and the bytes match.

A ``hypothesis`` strategy draws the inner policy, the router, the chip
count, drain/fail/restore events, the batch window, the ``slo`` queue
limit and a small tiny-ring trace with same-instant ties, optional
deadlines and a handful of operand keys.  Every draw replays twice:
through the real ``cluster:<inner>`` scheduler and through
:class:`ScanningCluster`, a reference that asks every chip for its
next wake-up, its queue depth and its poll on every event-loop turn.
The two must serialize the same report and the same event stream, and
the real one must pass ``check_cluster_trace`` (CLUSTER001-003 plus
the per-chip SCHED rules) and conserve requests.
"""

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import check_cluster_trace
from repro.cluster import ClusterScheduler
from repro.errors import SchedulerError
from repro.ntt.params import STANDARD_PARAMS, NTTParams
from repro.obs import RecordingTracer
from repro.obs.exporters import to_jsonl
from repro.serve import BatchPolicy, EnginePool, PoolConfig, ServingSimulator
from repro.serve.batcher import PolyBatch
from repro.serve.metrics import serialize_report
from repro.serve.request import Request

RING = "tiny-cluster-fuzz"
RING_N = 16
RING_Q = 97
TENANTS = ("t0", "t1", "t2")
#: Operand keys; ``None`` is the operand-less ``ntt`` kernel.
OPERANDS = (None, 0, 1, 2, 3)
#: Inter-arrival gaps around the tiny ring's 1-4 us service time; the
#: zeros make same-instant ties.
GAPS_S = (0.0, 0.0, 1e-6, 5e-6, 5e-5, 2e-4)
DEADLINES_S = (None, 2e-6, 1e-5, 1e-4, 1e-3)
NO_LIVE_CHIPS = "no live chips remain"


class ScanningCluster(ClusterScheduler):
    """Reference event loop: rescan every chip on every turn."""

    def waiting(self) -> int:
        return sum(scheduler.waiting() for scheduler in self._chips)

    def next_event_s(self) -> float:
        t_s = min(scheduler.next_event_s() for scheduler in self._chips)
        if self._pending:
            t_s = min(t_s, self._pending[0].t_s)
        return t_s

    def poll(self, now_s: float) -> List[PolyBatch]:
        surfaced: List[PolyBatch] = []
        while self._pending and self._pending[0].t_s <= now_s:
            self._apply(self._pending.pop(0), now_s, surfaced)
        for chip, scheduler in enumerate(self._chips):
            if scheduler.next_event_s() <= now_s:
                surfaced.extend(self._surface(scheduler.poll(now_s), chip))
        return surfaced


def scanning_factory(inner: str):
    def factory(pool, policy, *, backend="model", **options):
        return ScanningCluster(pool, policy, inner=inner, backend=backend,
                               **options)
    return factory


def operand(key: int) -> tuple:
    return tuple((key * 5 + j * 3 + 1) % RING_Q for j in range(RING_N))


@pytest.fixture(scope="module")
def pool():
    STANDARD_PARAMS[RING] = NTTParams(n=RING_N, q=RING_Q,
                                      name="cluster fuzz ring")
    pool = EnginePool(PoolConfig(size=2, rows=32, cols=32))
    # Price every key up front: the pool outlives replays and emits a
    # profile event only the first time it prices a key.
    for key in OPERANDS:
        pool.profile(Request(
            request_id=0, op="ntt" if key is None else "polymul",
            params_name=RING, payload=(0,) * RING_N,
            operand=None if key is None else operand(key)).batch_key)
    yield pool
    STANDARD_PARAMS.pop(RING, None)


@st.composite
def cluster_cases(draw):
    inner = draw(st.sampled_from(("fifo", "slo", "adaptive")))
    chips = draw(st.integers(min_value=1, max_value=6))
    count = draw(st.integers(min_value=1, max_value=60))
    trace = []
    t_s = 0.0
    for i in range(count):
        t_s += draw(st.sampled_from(GAPS_S))
        key = draw(st.sampled_from(OPERANDS))
        budget = draw(st.sampled_from(DEADLINES_S))
        trace.append(Request(
            request_id=i, op="ntt" if key is None else "polymul",
            params_name=RING,
            payload=tuple((i * 7 + j) % RING_Q for j in range(RING_N)),
            operand=None if key is None else operand(key),
            arrival_s=t_s, tenant=draw(st.sampled_from(TENANTS)),
            deadline_s=None if budget is None else t_s + budget))
    # Chip events land on arrival instants (ties with arrivals) or just
    # after them.
    chip_events = tuple(
        (trace[index % count].arrival_s + offset, chip, action)
        for index, offset, chip, action in draw(st.lists(
            st.tuples(st.integers(min_value=0, max_value=59),
                      st.sampled_from((0.0, 1e-6, 1e-4)),
                      st.integers(min_value=0, max_value=chips - 1),
                      st.sampled_from(("drain", "fail", "restore"))),
            max_size=4)))
    options = {
        "chips": chips,
        "router": draw(st.sampled_from(("affinity", "round-robin"))),
        "chip_events": chip_events,
    }
    if inner == "slo":
        options["queue_limit"] = draw(st.sampled_from((2, 8, 64)))
    max_wait_s = draw(st.sampled_from((0.0, 1e-4, 2e-4, 1e-3)))
    return inner, options, max_wait_s, trace


def replay(pool, scheduler, options, max_wait_s, trace):
    """(report, events) of one traced replay, or None if no chip was left."""
    sim = ServingSimulator(pool, BatchPolicy(max_wait_s=max_wait_s),
                           scheduler=scheduler, scheduler_options=options)
    tracer = RecordingTracer()
    try:
        report = sim.replay(trace, tracer=tracer)
    except SchedulerError as exc:
        if NO_LIVE_CHIPS not in str(exc):
            raise
        return None
    return report, tracer.events


@settings(max_examples=150, deadline=None)
@given(case=cluster_cases())
def test_cluster_replay_matches_the_scanning_reference(pool, case):
    inner, options, max_wait_s, trace = case
    reference = replay(pool, scanning_factory(inner), options, max_wait_s,
                       trace)
    result = replay(pool, f"cluster:{inner}", options, max_wait_s, trace)
    if reference is None:
        # A failed chip took queued work down with the last live chip.
        assert result is None
        return
    report, events = result
    findings = check_cluster_trace(events, chips=options["chips"],
                                   chip_events=options["chip_events"],
                                   shared_lanes=inner != "fifo")
    assert [d for d in findings if d.is_error] == []
    assert report.count + len(report.drops) == report.offered == len(trace)
    assert serialize_report(report) == serialize_report(reference[0])
    assert to_jsonl(events) == to_jsonl(reference[1])
