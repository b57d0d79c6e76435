"""End-to-end trace replay: correctness against gold, timing semantics."""

import pytest

from repro.errors import ParameterError
from repro.serve import BatchPolicy, EnginePool, PoolConfig, ServingSimulator
from repro.serve.request import Request, gold_result

TINY_N = 16

WAIT_S = 1e-3


@pytest.fixture
def simulator(tiny_pool):
    return ServingSimulator(tiny_pool, BatchPolicy(max_wait_s=WAIT_S))


def trace_results_match_gold(report):
    return all(
        list(r.result) == gold_result(r.request) for r in report.responses
    )


class TestReplayCorrectness:
    def test_sram_replay_matches_gold(self, tiny_pool, tiny_request):
        """The acceptance path: replay on real subarrays, verify vs gold."""
        operand = [7] + [0] * (TINY_N - 1)
        trace = (
            [tiny_request(i, arrival_s=i * 1e-4) for i in range(5)]
            + [tiny_request(10 + i, op="polymul", operand=operand,
                            arrival_s=2e-4 + i * 1e-4) for i in range(3)]
        )
        simulator = ServingSimulator(
            tiny_pool, BatchPolicy(max_wait_s=WAIT_S), backend="sram"
        )
        report = simulator.replay(trace)
        assert report.count == len(trace)
        assert trace_results_match_gold(report)

    def test_model_replay_equals_sram_replay(self, tiny_pool, tiny_request):
        trace = [tiny_request(i, arrival_s=i * 1e-4) for i in range(6)]
        model = ServingSimulator(tiny_pool, BatchPolicy(max_wait_s=WAIT_S))
        sram = ServingSimulator(
            tiny_pool, BatchPolicy(max_wait_s=WAIT_S), backend="sram"
        )
        a, b = model.replay(trace), sram.replay(trace)
        assert [r.result for r in a.responses] == [r.result for r in b.responses]
        assert [r.finish_s for r in a.responses] == [r.finish_s for r in b.responses]
        assert a.total_energy_nj == pytest.approx(b.total_energy_nj)

    def test_duplicate_ids_rejected(self, simulator, tiny_request):
        with pytest.raises(ParameterError, match="duplicate"):
            simulator.replay([tiny_request(1), tiny_request(1)])


class TestTimingSemantics:
    def test_full_batch_dispatches_on_arrival(self, simulator, tiny_pool, tiny_request):
        # Capacity (4) simultaneous requests: no coalescing wait at all.
        trace = [tiny_request(i, arrival_s=0.5) for i in range(4)]
        report = simulator.replay(trace)
        profile = tiny_pool.profile(trace[0].batch_key)
        (batch,) = report.batches
        assert batch.size == batch.capacity == 4
        assert batch.dispatched_s == pytest.approx(0.5)
        for r in report.responses:
            assert r.queue_s == pytest.approx(0.0)
            assert r.service_s == pytest.approx(profile.latency_s)

    def test_partial_batch_waits_max_wait(self, simulator, tiny_pool, tiny_request):
        trace = [tiny_request(0, arrival_s=0.1)]
        report = simulator.replay(trace)
        (batch,) = report.batches
        assert batch.dispatched_s == pytest.approx(0.1 + WAIT_S)
        (resp,) = report.responses
        profile = tiny_pool.profile(trace[0].batch_key)
        assert resp.latency_s == pytest.approx(WAIT_S + profile.latency_s)

    def test_padding_energy_charged_to_live_requests(self, simulator, tiny_pool,
                                                     tiny_request):
        report = simulator.replay([tiny_request(0)])
        profile = tiny_pool.profile(tiny_request(0).batch_key)
        (resp,) = report.responses
        # One live request carries the whole 4-slot invocation energy.
        assert resp.energy_nj == pytest.approx(profile.energy_nj)
        assert resp.batch_padding == 3

    def test_busy_lane_delays_start(self, tiny_pool, tiny_request):
        # One lane, two full batches arriving together: the second queues
        # behind the first for a full service time.
        pool = EnginePool(PoolConfig(size=1, rows=32, cols=32))
        simulator = ServingSimulator(pool, BatchPolicy(max_wait_s=WAIT_S))
        trace = [tiny_request(i) for i in range(8)]
        report = simulator.replay(trace)
        starts = sorted({b.start_s for b in report.batches})
        profile = pool.profile(trace[0].batch_key)
        assert len(starts) == 2
        assert starts[1] - starts[0] == pytest.approx(profile.latency_s)

    def test_two_lanes_serve_concurrently(self, simulator, tiny_pool, tiny_request):
        trace = [tiny_request(i) for i in range(8)]
        report = simulator.replay(trace)
        assert {b.lane for b in report.batches} == {0, 1}
        starts = {b.start_s for b in report.batches}
        assert len(starts) == 1  # both start at t=0 on separate lanes

    def test_infinite_max_wait_drains_at_end_of_trace(self, tiny_pool, tiny_request):
        # Nothing ever expires: open batches must still dispatch when
        # the trace runs out, at the last arrival instant.
        simulator = ServingSimulator(
            tiny_pool, BatchPolicy(max_wait_s=float("inf"))
        )
        trace = [tiny_request(i, arrival_s=i * 1e-3) for i in range(3)]
        report = simulator.replay(trace)
        assert report.count == 3
        (batch,) = report.batches
        assert batch.size == 3
        assert batch.dispatched_s == pytest.approx(2e-3)

    def test_incompatible_keys_never_share_a_batch(self, simulator, tiny_request):
        trace = [tiny_request(0), tiny_request(1, op="intt")]
        report = simulator.replay(trace)
        assert len(report.batches) == 2
        assert {b.key[1] for b in report.batches} == {"ntt", "intt"}


class TestDeterminism:
    def test_replay_is_deterministic(self, tiny_pool, tiny_request):
        trace = [tiny_request(i, arrival_s=i * 3e-4) for i in range(7)]
        sim = ServingSimulator(tiny_pool, BatchPolicy(max_wait_s=WAIT_S))
        a, b = sim.replay(trace), sim.replay(trace)
        assert [r.finish_s for r in a.responses] == [r.finish_s for r in b.responses]
        assert a.throughput_rps == b.throughput_rps
        assert a.utilization == b.utilization

    def test_report_is_byte_identical(self, tiny_pool, tiny_request):
        trace = [tiny_request(i, arrival_s=i * 3e-4) for i in range(7)]
        sim = ServingSimulator(tiny_pool, BatchPolicy(max_wait_s=WAIT_S))
        assert repr(sim.replay(trace)) == repr(sim.replay(trace))


class TestModeRemoved:
    """The mode= alias finished its deprecation window and is gone."""

    def test_constructor_mode_raises_type_error(self, tiny_pool):
        with pytest.raises(TypeError):
            ServingSimulator(tiny_pool, mode="sram")

    def test_constructor_mode_rejected_even_with_backend(self, tiny_pool):
        with pytest.raises(TypeError):
            ServingSimulator(tiny_pool, backend="model", mode="sram")

    def test_mode_property_is_gone(self, tiny_pool):
        simulator = ServingSimulator(tiny_pool, backend="model")
        with pytest.raises(AttributeError):
            simulator.mode

    def test_backend_alone_is_silent(self, tiny_pool, tiny_request, recwarn):
        simulator = ServingSimulator(
            tiny_pool, BatchPolicy(max_wait_s=WAIT_S), backend="model"
        )
        simulator.replay([tiny_request(0)])
        assert not [w for w in recwarn if w.category is DeprecationWarning]


class TestStandardParams:
    def test_kyber_sram_end_to_end(self):
        """One real-parameter batch through the full stack on the SRAM path."""
        pool = EnginePool(PoolConfig(size=1))
        simulator = ServingSimulator(pool, BatchPolicy(max_wait_s=1e-3), backend="sram")
        params_n = 256
        trace = [
            Request(request_id=i, op="ntt", params_name="kyber-v1",
                    payload=tuple((i + j) % 7681 for j in range(params_n)),
                    arrival_s=0.0, kind="kyber")
            for i in range(2)
        ]
        report = simulator.replay(trace)
        assert report.count == 2
        assert trace_results_match_gold(report)
        # 2 of 9 slots live; the rest ride as zero padding.
        (batch,) = report.batches
        assert batch.size == 2 and batch.capacity == 9
