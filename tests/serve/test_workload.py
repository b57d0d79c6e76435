"""Traffic generators: rates, mixes, operand pooling, determinism."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.he import default_relin_base, relin_digit_count
from repro.errors import ParameterError
from repro.ntt.params import get_params
from repro.serve.request import unpack_words
from repro.serve.workload import (
    MixComponent,
    Scenario,
    _materialize,
    _random_poly,
    available_scenarios,
    bursty_trace,
    get_scenario,
    poisson_trace,
)


class TestScenarios:
    def test_known_scenarios(self):
        assert set(available_scenarios()) == {
            "ntt", "kyber", "dilithium", "he", "he-mul", "mixed",
            "mixed-slo", "mixed-deep", "cluster-mixed",
        }

    def test_weights_validated(self):
        comp = get_scenario("kyber").components[0]
        with pytest.raises(ParameterError, match="weights"):
            Scenario("broken", (comp,) * 2)  # sums to 2.0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ParameterError, match="unknown scenario"):
            poisson_trace("no-such-mix", 100, 0.1)

    def test_scenario_registry_round_trip(self):
        from repro.serve import register_scenario, unregister_scenario

        custom = Scenario("custom-test", get_scenario("kyber").components)
        register_scenario("custom-test", lambda: custom)
        try:
            assert "custom-test" in available_scenarios()
            assert get_scenario("custom-test") is custom
            trace = poisson_trace("custom-test", 400, 0.02, seed=1)
            assert trace
        finally:
            unregister_scenario("custom-test")
        assert "custom-test" not in available_scenarios()
        with pytest.raises(ParameterError, match="unknown scenario"):
            get_scenario("custom-test")

    def test_scenario_factory_must_build_a_scenario(self):
        from repro.serve import register_scenario, unregister_scenario

        register_scenario("broken-test", lambda: "not a scenario")
        try:
            with pytest.raises(ParameterError, match="Scenario"):
                get_scenario("broken-test")
        finally:
            unregister_scenario("broken-test")

    def test_operand_schedule_validated(self):
        with pytest.raises(ParameterError, match="requires polymul"):
            MixComponent("x", "ntt", "he-16bit", 1.0, operand_pool=2,
                         operand_schedule=(0, 1))
        with pytest.raises(ParameterError, match="outside pool"):
            MixComponent("x", "polymul", "he-16bit", 1.0, operand_pool=2,
                         operand_schedule=(0, 2))
        with pytest.raises(ParameterError, match="empty"):
            MixComponent("x", "polymul", "he-16bit", 1.0, operand_pool=2,
                         operand_schedule=())

    def test_schedule_fixes_requests_per_call(self):
        comp = MixComponent("x", "polymul", "he-16bit", 1.0, operand_pool=3,
                            operand_schedule=(2, 0, 1, 0))
        assert comp.requests_per_call == 4


class TestPoisson:
    def test_rate_and_window(self):
        trace = poisson_trace("ntt", rate=2000, duration_s=0.5, seed=3)
        assert 700 <= len(trace) <= 1300  # ~1000 expected
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)
        assert all(0 <= t < 0.5 for t in arrivals)
        assert len({r.request_id for r in trace}) == len(trace)

    def test_deterministic_by_seed(self):
        a = poisson_trace("kyber", 500, 0.1, seed=7)
        b = poisson_trace("kyber", 500, 0.1, seed=7)
        assert [(r.arrival_s, r.payload) for r in a] == [
            (r.arrival_s, r.payload) for r in b
        ]
        c = poisson_trace("kyber", 500, 0.1, seed=8)
        assert [r.arrival_s for r in a] != [r.arrival_s for r in c]

    def test_operands_drawn_from_small_pool(self):
        trace = poisson_trace("kyber", 1000, 0.1, seed=5)
        operands = {r.operand for r in trace}
        assert 1 <= len(operands) <= 2  # operand_pool=2
        params = get_params("kyber-v1")
        assert all(len(r.payload) == params.n for r in trace)

    def test_he_requests_come_in_pairs(self):
        trace = poisson_trace("he", 300, 0.1, seed=5)
        assert len(trace) % 2 == 0
        for first, second in zip(trace[0::2], trace[1::2]):
            assert first.arrival_s == second.arrival_s
            assert first.batch_key == second.batch_key

    def test_mixed_has_all_kinds(self):
        trace = poisson_trace("mixed", 2000, 0.2, seed=1)
        assert {r.kind for r in trace} == {"kyber", "dilithium", "he"}

    def test_bad_rate_rejected(self):
        with pytest.raises(ParameterError):
            poisson_trace("ntt", 0, 1.0)
        with pytest.raises(ParameterError):
            poisson_trace("ntt", 100, -1.0)

    def test_mean_rate_within_tolerance(self):
        # 4000 expected calls: a Poisson count is within 5% w.h.p., and
        # the seed pins the draw, so the bound is exact for this test.
        rate, duration = 2000.0, 2.0
        trace = poisson_trace("ntt", rate, duration, seed=2023)
        assert abs(len(trace) / (rate * duration) - 1.0) < 0.05

    def test_mix_weights_honored_over_long_trace(self):
        # 45/35/20 mixed scenario over ~4000 calls: each class's share
        # of *calls* (HE counts its two component requests as one call)
        # lands within 3 points of its weight.
        trace = poisson_trace("mixed", 2000.0, 2.0, seed=2023)
        calls = {"kyber": 0, "dilithium": 0, "he": 0}
        for r in trace:
            calls[r.kind] += 1
        calls["he"] //= 2  # two requests per HE call
        total = sum(calls.values())
        for kind, weight in (("kyber", 0.45), ("dilithium", 0.35), ("he", 0.20)):
            assert abs(calls[kind] / total - weight) < 0.03, (kind, calls)


class TestBursty:
    def test_mean_rate_preserved(self):
        trace = bursty_trace("ntt", rate=2000, duration_s=1.0, seed=9)
        assert 1600 <= len(trace) <= 2400

    def test_bursts_cluster_arrivals(self):
        trace = bursty_trace("ntt", rate=5000, duration_s=0.5, seed=9,
                             burst=2.5, duty=0.3, period_s=0.05)
        in_burst = sum(1 for r in trace if (r.arrival_s % 0.05) < 0.015)
        # Burst windows are 30% of time but >55% of traffic (expect ~75%).
        assert in_burst / len(trace) > 0.55

    def test_bounds_validated(self):
        with pytest.raises(ParameterError, match="duty"):
            bursty_trace("ntt", 100, 0.1, duty=1.5)
        with pytest.raises(ParameterError, match="burst"):
            bursty_trace("ntt", 100, 0.1, burst=10.0, duty=0.3)

    def test_deterministic_by_seed(self):
        a = bursty_trace("mixed", 800, 0.2, seed=13)
        b = bursty_trace("mixed", 800, 0.2, seed=13)
        assert [(r.arrival_s, r.kind, r.payload) for r in a] == [
            (r.arrival_s, r.kind, r.payload) for r in b
        ]
        c = bursty_trace("mixed", 800, 0.2, seed=14)
        assert [r.arrival_s for r in a] != [r.arrival_s for r in c]

    def test_mean_rate_within_tolerance(self):
        # The on/off thinning must preserve the requested mean rate.
        rate, duration = 2000.0, 2.0
        trace = bursty_trace("ntt", rate, duration, seed=2023)
        assert abs(len(trace) / (rate * duration) - 1.0) < 0.05


class TestSharedOperandPerCall:
    def test_components_share_one_pool_draw(self):
        # Regression: with operand_pool > 1, the per-request draw handed
        # the two component requests of one logical HE call *different*
        # plaintext operands — contradicting he_multiply_plain_requests'
        # contract and splitting their shared batch key.
        import random

        component = MixComponent("he", "polymul", "kyber-v1", 1.0,
                                 operand_pool=2, requests_per_call=2)
        scenario = Scenario("he-pool2", (component,))
        arrivals = [i * 1e-3 for i in range(24)]
        trace = _materialize(scenario, arrivals, random.Random(3))
        assert len(trace) == 48
        for first, second in zip(trace[0::2], trace[1::2]):
            assert first.arrival_s == second.arrival_s
            assert first.operand == second.operand
            assert first.batch_key == second.batch_key
        # Both pool operands are still exercised across calls.
        assert len({r.operand for r in trace}) == 2


class TestHeMulScenario:
    DIGITS = relin_digit_count(
        get_params("he-16bit").q, default_relin_base(get_params("he-16bit").q)
    )

    def test_call_shape(self):
        per_call = 4 + 2 * self.DIGITS
        trace = poisson_trace("he-mul", 120, 0.05, seed=9)
        assert trace and len(trace) % per_call == 0
        assert all(r.kind == "he-mul" and r.op == "polymul" for r in trace)
        calls = [trace[i:i + per_call] for i in range(0, len(trace), per_call)]
        for call in calls:
            assert len({r.arrival_s for r in call}) == 1
            # Tensor: two products against each operand-ciphertext half.
            tensor = [r.operand for r in call[:4]]
            assert tensor[0] == tensor[1] and tensor[2] == tensor[3]
            assert tensor[0] != tensor[2]
            # Relin: every key component is touched exactly once.
            relin = [r.operand for r in call[4:]]
            assert len(set(relin)) == 2 * self.DIGITS

    def test_products_coalesce_across_calls(self):
        # The whole trail rides long-lived key material: the number of
        # distinct batch keys over the trace equals one call's pool use.
        trace = poisson_trace("he-mul", 120, 0.1, seed=10)
        assert len({r.batch_key for r in trace}) == 2 + 2 * self.DIGITS

    def test_mixed_deep_mixes_all_kinds(self):
        trace = poisson_trace("mixed-deep", 2000, 0.2, seed=4)
        assert {r.kind for r in trace} == {"kyber", "dilithium", "he", "he-mul"}
        assert all(r.deadline_s is None for r in trace)


class TestSLOScenario:
    def test_tenants_and_deadlines_attached(self):
        trace = poisson_trace("mixed-slo", 1500, 0.2, seed=3)
        budgets = {"handshake": 4e-3, "signing": 8e-3, "analytics": 25e-3}
        assert {r.tenant for r in trace} == set(budgets)
        for r in trace:
            assert r.deadline_s == pytest.approx(
                r.arrival_s + budgets[r.tenant]
            )

    def test_plain_mixed_is_best_effort(self):
        trace = poisson_trace("mixed", 1500, 0.1, seed=3)
        assert all(r.deadline_s is None for r in trace)
        assert {r.tenant for r in trace} == {"kyber", "dilithium", "he"}


class TestRandomPoly:
    """The coefficient draw is ``randrange``'s, value for value, packed."""

    @given(n=st.integers(0, 300),
           q=st.one_of(st.integers(1, 2**40),
                       st.sampled_from([get_params(name).q for name in
                                        ("kyber-v1", "dilithium", "he-16bit",
                                         "he-29bit")])),
           seed=st.integers(0, 2**32))
    def test_same_tuple_and_rng_state_as_randrange(self, n, q, seed):
        fast, reference = random.Random(seed), random.Random(seed)
        assert unpack_words(_random_poly(n, q, fast), n, q) == tuple(
            reference.randrange(q) for _ in range(n))
        assert fast.getstate() == reference.getstate()
