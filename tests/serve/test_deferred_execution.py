"""Result math on demand, in cross-batch chunks.

A replay validates, prices and places every batch as it dispatches, and
computes results only when they are read:
:meth:`~repro.serve.pool.EnginePool.execute_batches` groups the batches
of a pure backend per instance and batch key into chunks of at most
:data:`~repro.serve.pool.EXECUTE_CHUNK_COEFFS` coefficients, and the
first read of a result runs the chunk that holds it; a stateful
backend runs its batches one by one on their lanes after the event
loop.  These tests hold every per-request result to the gold model and
to the one-batch-at-a-time path of :meth:`EnginePool.serve`, count the
``execute`` calls that reads (and no reads) leave, and check that a
report's pending results keep no pool alive.
"""

import gc
import math
import random
import weakref
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import register_backend, unregister_backend
from repro.backends.model import BATCH_MIN_N, ModelBackend
from repro.errors import BackendError
from repro.ntt.params import STANDARD_PARAMS, NTTParams
from repro.serve import (
    BatchPolicy,
    EnginePool,
    PoolConfig,
    ReplayConfig,
    ServingSimulator,
    serialize_report,
)
from repro.serve import pool as pool_module
from repro.serve.batcher import PolyBatch
from repro.serve.request import Request, gold_result
from repro.utils.primes import find_ntt_prime

SCALAR_RING = "deferred-scalar-ring"
BATCHED_RING = "deferred-batched-ring"
RINGS = {
    SCALAR_RING: NTTParams(n=16, q=97, name="16-point deferred ring"),
    BATCHED_RING: NTTParams(n=BATCH_MIN_N, q=find_ntt_prime(12, BATCH_MIN_N),
                            name="64-point deferred ring"),
}
#: Subarray side per ring: batch 4 on the 16-point ring, 9 on the
#: 64-point one, so batches carry several rows and compile stays fast.
SIDE = {SCALAR_RING: 32, BATCHED_RING: 128}
#: (backend, ring) pairs: model on its scalar and batched paths and the
#: sram interpreter on the tiny ring.
CASES = [("model", SCALAR_RING), ("model", BATCHED_RING),
         ("sram", SCALAR_RING)]
OPS = ("ntt", "intt", "polymul")


@pytest.fixture
def rings(monkeypatch):
    for name, params in RINGS.items():
        monkeypatch.setitem(STANDARD_PARAMS, name, params)


def _trace(ring, count, seed, ops, operands):
    params = RINGS[ring]
    rng = random.Random(seed)
    pool = [tuple(rng.randrange(params.q) for _ in range(params.n))
            for _ in range(operands)]
    trace, now = [], 0.0
    for request_id in range(count):
        op = rng.choice(ops)
        now += rng.choice((0.0, 1e-5, 2e-4))
        trace.append(Request(
            request_id=request_id, op=op, params_name=ring,
            payload=tuple(rng.randrange(params.q) for _ in range(params.n)),
            operand=rng.choice(pool) if op == "polymul" else None,
            arrival_s=now))
    return trace


def _pool(ring, size=2):
    return EnginePool(PoolConfig(size=size, rows=SIDE[ring], cols=SIDE[ring]))


class _Recorder:
    """Wraps ``execute_batches`` to keep the (batch, lane) pairs it ran."""

    def __init__(self, pool):
        self.pending = []
        run = pool.execute_batches

        def execute_batches(pending, *, backend=None):
            self.pending.extend(pending)
            return run(pending, backend=backend)

        pool.execute_batches = execute_batches


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(CASES),
       count=st.integers(1, 24),
       seed=st.integers(0, 2**16),
       ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=3, unique=True),
       operands=st.integers(1, 3),
       size=st.integers(1, 2),
       scheduler=st.sampled_from(("fifo", "adaptive")),
       chunk_rows=st.integers(1, 5),
       data=st.data())
def test_replay_results_equal_gold_and_the_per_batch_path(
        rings, case, count, seed, ops, operands, size, scheduler, chunk_rows,
        data):
    backend, ring = case
    if backend == "sram":
        count = min(count, 8)  # the interpreter is slow
    trace = _trace(ring, count, seed, ops, operands)
    pool = _pool(ring, size)
    recorder = _Recorder(pool)
    simulator = ServingSimulator(pool, BatchPolicy(max_wait_s=1e-4),
                                 backend=backend, scheduler=scheduler)
    # A budget of a few rows makes the draws' kernels cross chunks; the
    # budget in force at the replay holds for reads after it too.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pool_module, "EXECUTE_CHUNK_COEFFS",
                      chunk_rows * RINGS[ring].n)
        report = simulator.replay(trace)
    assert report.count == len(trace)
    unread = serialize_report(report)
    # A drawn subset first, in a drawn order, then the rest.
    first = data.draw(st.lists(st.sampled_from(range(len(trace))),
                               unique=True), label="read first")
    rest = [index for index in range(len(trace)) if index not in first]
    for index in first + rest:
        response = report.responses[index]
        assert list(response.result) == gold_result(response.request)
    assert serialize_report(report) == unread
    dispatched = list(recorder.pending)  # serve() below records too
    per_batch = [result for batch, lane in dispatched
                 for result in pool.serve(batch, backend=backend, lane=lane)[0]]
    assert [r.result for r in report.responses] == per_batch


def test_chunked_replay_equals_one_call_per_batch(rings):
    """Every budget serves the same bytes: results and report alike."""
    from repro.serve import serialize_report

    trace = _trace(BATCHED_RING, 40, 7, OPS, 2)
    reports = []
    for rows in (1, 3, 1024):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pool_module, "EXECUTE_CHUNK_COEFFS",
                          rows * RINGS[BATCHED_RING].n)
            reports.append(ServingSimulator(_pool(BATCHED_RING), BatchPolicy(
                max_wait_s=1e-4)).replay(trace))
    texts = {serialize_report(report) for report in reports}
    assert len(texts) == 1
    assert len({tuple(r.result for r in report.responses)
                for report in reports}) == 1


class TestExecuteCalls:
    """Chunking bounds ``Backend.execute`` calls per kernel."""

    def replay_counting(self, rings, monkeypatch, budget_rows=None):
        calls, rows = Counter(), Counter()
        execute = ModelBackend.execute

        def counting(self, kernel, payloads):
            key = (kernel.op, kernel.operand)
            calls[key] += 1
            rows[key] += len(payloads)
            return execute(self, kernel, payloads)

        monkeypatch.setattr(ModelBackend, "execute", counting)
        n = RINGS[BATCHED_RING].n
        if budget_rows is not None:
            monkeypatch.setattr(pool_module, "EXECUTE_CHUNK_COEFFS",
                                budget_rows * n)
        trace = _trace(BATCHED_RING, 60, 3, OPS, 2)
        report = ServingSimulator(_pool(BATCHED_RING), BatchPolicy(
            max_wait_s=1e-4)).replay(trace)
        budget = max(1, pool_module.EXECUTE_CHUNK_COEFFS // n)
        return calls, rows, budget, report

    def read_all(self, report):
        for response in report.responses:
            assert response.result is not None

    def test_at_most_ceil_rows_over_budget_per_kernel(self, rings,
                                                      monkeypatch):
        calls, rows, budget, report = self.replay_counting(rings, monkeypatch)
        self.read_all(report)
        # 60 requests fit one chunk per kernel, however many batches
        # carried them: one call per kernel, not one per batch.
        assert sum(rows.values()) == 60
        assert len(report.batches) > len(calls)
        for key, count in calls.items():
            assert count <= math.ceil(rows[key] / budget) == 1

    def test_a_small_budget_chunks_each_kernel(self, rings, monkeypatch):
        calls, rows, budget, report = self.replay_counting(
            rings, monkeypatch, budget_rows=4)
        self.read_all(report)
        assert budget == 4
        assert any(count > 1 for count in calls.values())
        for key, count in calls.items():
            assert count == math.ceil(rows[key] / budget)

    def test_reading_one_result_runs_its_group_alone(self, rings,
                                                     monkeypatch):
        calls, rows, budget, report = self.replay_counting(
            rings, monkeypatch, budget_rows=4)
        assert not calls
        response = report.responses[len(report.responses) // 2]
        request = response.request
        group_rows = sum(r.request.batch_key == request.batch_key
                         for r in report.responses)
        assert list(response.result) == gold_result(request)
        key = (request.op, request.operand)
        # One ``execute`` call: the chunk that holds the row, no more.
        assert dict(calls) == {key: 1}
        assert 0 < rows[key] <= budget and group_rows > budget
        # The group's other rows run their own chunks, each once.
        for other in report.responses:
            if other.request.batch_key == request.batch_key:
                assert list(other.result) == gold_result(other.request)
        assert dict(calls) == {key: math.ceil(group_rows / budget)}
        assert dict(rows) == {key: group_rows}
        for other in report.responses:
            if other.request.batch_key == request.batch_key:
                assert other.result is not None
        assert dict(calls) == {key: math.ceil(group_rows / budget)}


def _count_model_execute(monkeypatch):
    calls = []
    execute = ModelBackend.execute

    def counting(self, kernel, payloads):
        calls.append(len(payloads))
        return execute(self, kernel, payloads)

    monkeypatch.setattr(ModelBackend, "execute", counting)
    return calls


def test_a_replay_nobody_reads_runs_no_result_math(monkeypatch):
    """The host benchmark's pqc-slo-cold shape, over a short window."""
    calls = _count_model_execute(monkeypatch)
    config = ReplayConfig(
        scenario="mixed-slo", arrivals="bursty", rate=4000.0,
        scheduler="slo", queue_limit=64,
        scheduler_options={"tenant_weights": {"handshake": 2.0}},
        pool_size=2, subarrays=1, max_wait_ms=2.0, duration=0.05, seed=2023)
    trace = config.build_trace()
    pool = config.build_pool()
    report = config.build_simulator(pool).replay(trace)
    assert report.count > 100
    assert len({r.request.batch_key for r in report.responses}) > 1
    assert calls == []


@pytest.mark.parametrize("ring", [SCALAR_RING, BATCHED_RING])
def test_pending_results_keep_no_pool_alive(rings, monkeypatch, ring):
    trace = _trace(ring, 30, 5, OPS, 2)
    pool = _pool(ring)
    simulator = ServingSimulator(pool, BatchPolicy(max_wait_s=1e-4))
    report = simulator.replay(trace)
    template = pool.template(ring)
    refs = [weakref.ref(pool), weakref.ref(template),
            weakref.ref(pool.backend_lanes("model", ring)[0]),
            weakref.ref(template.compiled_program("ntt"))]
    del simulator, pool, template
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
    # A read runs ``ModelBackend.execute`` as the class has it then.
    calls = _count_model_execute(monkeypatch)
    for response in report.responses:
        assert list(response.result) == gold_result(response.request)
    assert sum(calls) == len(trace)


class PlainBackend:
    """A pure backend with the four protocol methods and no ``detach``.

    It wraps a :class:`ModelBackend` instead of deriving from it, as a
    third-party backend might, and counts the rows it executes.
    """

    def __init__(self, params, **options):
        self._model = ModelBackend(params, **options)
        self.executed = 0

    def capabilities(self):
        return self._model.capabilities()

    def compile(self, op, operand=None):
        return self._model.compile(op, operand)

    def execute(self, kernel, payloads):
        self.executed += len(payloads)
        return self._model.execute(kernel, payloads)

    def profile(self, kernel):
        return self._model.profile(kernel)


@pytest.mark.parametrize("ring", [SCALAR_RING, BATCHED_RING])
def test_a_backend_without_detach_is_held_whole_until_read(rings, ring):
    register_backend("plain-test", PlainBackend)
    try:
        trace = _trace(ring, 30, 5, OPS, 2)
        pool = _pool(ring, size=1)
        report = ServingSimulator(pool, BatchPolicy(max_wait_s=1e-4),
                                  backend="plain-test").replay(trace)
        lane = pool.backend_lanes("plain-test", ring)[0]
        assert not hasattr(lane, "detach")
        assert lane.executed == 0
        ref = weakref.ref(lane)
        del pool, lane
        gc.collect()
        # The pending results run the rows on the pool's own lane.
        backend = ref()
        assert backend is not None
        for response in report.responses:
            assert list(response.result) == gold_result(response.request)
        assert backend.executed == len(trace)
        # Once read, the results let go of it.
        del backend
        gc.collect()
        assert ref() is None
    finally:
        unregister_backend("plain-test")


def test_a_group_lets_go_of_its_backend_after_its_last_chunk(
        rings, monkeypatch):
    """One row per chunk: each read runs one chunk, and the group holds
    its backend until the last one has run."""
    monkeypatch.setattr(pool_module, "EXECUTE_CHUNK_COEFFS",
                        RINGS[SCALAR_RING].n)
    register_backend("plain-test", PlainBackend)
    try:
        trace = _trace(SCALAR_RING, 12, 5, ("ntt",), 1)
        pool = _pool(SCALAR_RING, size=1)
        report = ServingSimulator(pool, BatchPolicy(max_wait_s=1e-4),
                                  backend="plain-test").replay(trace)
        ref = weakref.ref(pool.backend_lanes("plain-test", SCALAR_RING)[0])
        del pool
        *first, last = report.responses
        for read, response in enumerate(first, start=1):
            assert list(response.result) == gold_result(response.request)
            assert list(response.result) == gold_result(response.request)
            gc.collect()
            assert ref().executed == read
        assert list(last.result) == gold_result(last.request)
        gc.collect()
        assert ref() is None
    finally:
        unregister_backend("plain-test")


class TestExecuteBatches:
    def batch(self, ring, op="ntt", ids=(0, 1)):
        params = RINGS[ring]
        batch = PolyBatch(key=(ring, op, None), capacity=4)
        for request_id in ids:
            batch.add(Request(
                request_id=request_id, op=op, params_name=ring,
                payload=tuple((request_id + i) % params.q
                              for i in range(params.n))))
        return batch

    def test_results_are_tuples_in_pending_order(self, rings):
        pool = _pool(SCALAR_RING)
        first = self.batch(SCALAR_RING, ids=(0, 1, 2))
        second = self.batch(SCALAR_RING, op="intt", ids=(3,))
        third = self.batch(SCALAR_RING, ids=(4, 5))
        results = pool.execute_batches([(first, 0), (second, 1), (third, 1)])
        assert [len(rows) for rows in results] == [3, 1, 2]
        for batch, rows in zip((first, second, third), results):
            for request, result in zip(batch.requests, rows):
                assert type(result) is tuple
                assert list(result) == gold_result(request)

    def test_nothing_pending_runs_nothing(self):
        assert EnginePool().execute_batches([]) == []

    def test_a_backend_returning_the_wrong_row_count_is_refused(
            self, rings, monkeypatch):
        monkeypatch.setattr(ModelBackend, "execute",
                            lambda self, kernel, payloads: [])
        results = _pool(SCALAR_RING, 1).execute_batches(
            [(self.batch(SCALAR_RING), 0)])
        with pytest.raises(BackendError, match="returned 0 results for 2"):
            results[0][0]
