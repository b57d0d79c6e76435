"""End-to-end engine tests: the in-SRAM NTT against the gold model."""

import random

import pytest

from repro.core.engine import BPNTTEngine
from repro.core.scheduler import butterfly_count
from repro.errors import ParameterError, VerificationError
from repro.ntt.params import NTTParams
from repro.ntt.transform import ntt_negacyclic, polymul_negacyclic
from repro.sram.executor import profile_program

SMALL = NTTParams(n=8, q=17)
MEDIUM = NTTParams(n=16, q=97)


def random_batch(engine, seed=0):
    rng = random.Random(seed)
    return [
        [rng.randrange(engine.params.q) for _ in range(engine.params.n)]
        for _ in range(engine.batch)
    ]


class TestResidentLayout:
    def test_forward_matches_gold(self):
        eng = BPNTTEngine(SMALL, width=8, rows=32, cols=32)
        polys = random_batch(eng, 1)
        eng.load(polys)
        eng.ntt()
        assert eng.results() == [ntt_negacyclic(p, SMALL) for p in polys]

    def test_roundtrip(self):
        eng = BPNTTEngine(SMALL, width=8, rows=32, cols=32)
        polys = random_batch(eng, 2)
        eng.load(polys)
        eng.ntt()
        eng.intt()
        assert eng.results() == polys

    def test_inverse_of_gold_forward(self):
        eng = BPNTTEngine(SMALL, width=8, rows=32, cols=32)
        polys = random_batch(eng, 3)
        hats = [ntt_negacyclic(p, SMALL) for p in polys]
        eng.load(hats)
        eng.intt()
        assert eng.results() == polys

    def test_verify_against_gold_helper(self):
        eng = BPNTTEngine(SMALL, width=8, rows=32, cols=32)
        polys = random_batch(eng, 4)
        eng.load(polys)
        eng.ntt()
        eng.verify_against_gold(polys)  # should not raise
        with pytest.raises(VerificationError):
            eng.verify_against_gold([[1] * 8] * eng.batch)


class TestSpillLayout:
    def test_forward_matches_gold(self):
        eng = BPNTTEngine(MEDIUM, width=8, rows=16, cols=32)
        assert eng.layout.uses_spill
        polys = random_batch(eng, 5)
        eng.load(polys)
        eng.ntt()
        assert eng.results() == [ntt_negacyclic(p, MEDIUM) for p in polys]

    def test_roundtrip(self):
        eng = BPNTTEngine(MEDIUM, width=8, rows=16, cols=32)
        polys = random_batch(eng, 6)
        eng.load(polys)
        eng.ntt()
        eng.intt()
        assert eng.results() == polys

    def test_spill_costs_more_shifts_than_resident(self):
        spill = BPNTTEngine(MEDIUM, width=8, rows=16, cols=32)
        resident = BPNTTEngine(MEDIUM, width=8, rows=32, cols=32)
        assert not resident.layout.uses_spill
        spill.load(random_batch(spill, 7))
        resident.load(random_batch(resident, 7))
        assert spill.ntt().shift_count > resident.ntt().shift_count

    @pytest.mark.parametrize("op", ["ntt", "intt"])
    def test_static_profile_equals_execution(self, op):
        # Spill programs carry the array-wide fetch/store shift runs;
        # static pricing must match executing them stat for stat,
        # including the order op_counts first sees each class.
        eng = BPNTTEngine(MEDIUM, width=8, rows=16, cols=32)
        program = eng.compiled_program(op)
        static = profile_program(program, eng.tech)
        eng.load(random_batch(eng, 9))
        executed = eng._execute(program)
        assert static == executed
        assert list(static.op_counts) == list(executed.op_counts)


class TestKernels:
    def test_pointwise_multiply(self):
        eng = BPNTTEngine(SMALL, width=8, rows=32, cols=32)
        rng = random.Random(8)
        polys = random_batch(eng, 8)
        other = [rng.randrange(17) for _ in range(8)]
        hats = [ntt_negacyclic(p, SMALL) for p in polys]
        eng.load(hats)
        eng.pointwise_multiply(ntt_negacyclic(other, SMALL))
        expected = [
            [(x * y) % 17 for x, y in zip(h, ntt_negacyclic(other, SMALL))]
            for h in hats
        ]
        assert eng.results() == expected

    def test_full_polymul(self):
        eng = BPNTTEngine(SMALL, width=8, rows=32, cols=32)
        rng = random.Random(9)
        polys = random_batch(eng, 9)
        other = [rng.randrange(17) for _ in range(8)]
        eng.load(polys)
        report = eng.polymul_with(other)
        assert eng.results() == [polymul_negacyclic(p, other, SMALL) for p in polys]
        assert report.kernel == "polymul"
        assert report.cycles > 0

    def test_partial_batch_zero_fills(self):
        eng = BPNTTEngine(SMALL, width=8, rows=32, cols=32)
        polys = random_batch(eng, 10)[:1]
        eng.load(polys)
        eng.ntt()
        results = eng.results()
        assert results[0] == ntt_negacyclic(polys[0], SMALL)
        assert results[1] == [0] * 8  # NTT of zero is zero


class TestKernelCache:
    def test_unreduced_operand_shares_the_canonical_kernel(self):
        eng = BPNTTEngine(SMALL, width=8, rows=32, cols=32)
        operand = [3, 20, -1, 0, 5, 17, 34, 2]
        canonical = tuple(c % 17 for c in operand)
        kernel = eng.compile("polymul", operand)
        assert kernel.operand == canonical
        assert kernel.operand_hat == tuple(ntt_negacyclic(list(canonical), SMALL))
        assert eng.compile("polymul", canonical) is kernel
        assert eng.compile("polymul", tuple(operand)) is kernel
        assert eng.compile("polymul", operand) is kernel

    def test_warm_lookup_skips_canonicalizing(self):
        class CountingInt(int):
            reductions = 0

            def __mod__(self, other):
                CountingInt.reductions += 1
                return int(self) % other

        eng = BPNTTEngine(SMALL, width=8, rows=32, cols=32)
        operand = tuple(CountingInt(c) for c in (1, 2, 3, 4, 5, 6, 7, 8))
        cold = eng.compile("polymul", operand)
        assert CountingInt.reductions == len(operand)
        assert eng.compile("polymul", operand) is cold
        assert eng.compile("polymul", list(operand)) is cold
        assert CountingInt.reductions == len(operand)

    def test_operand_errors_still_raise(self):
        eng = BPNTTEngine(SMALL, width=8, rows=32, cols=32)
        for _ in range(2):
            with pytest.raises(ParameterError, match="no second operand"):
                eng.compile("ntt", [1] * 8)
            with pytest.raises(ParameterError, match="need a second operand"):
                eng.compile("polymul")
            with pytest.raises(ParameterError, match="unknown op"):
                eng.compile("fft")


class TestReports:
    def test_report_fields_consistent(self):
        eng = BPNTTEngine(SMALL, width=8, rows=32, cols=32)
        eng.load(random_batch(eng, 11))
        r = eng.ntt()
        assert r.batch == eng.batch
        assert r.latency_s == pytest.approx(r.cycles / eng.tech.frequency_hz)
        assert r.throughput_kntt_per_s == pytest.approx(
            r.batch / r.latency_s / 1e3
        )
        assert r.energy_per_ntt_nj == pytest.approx(r.energy_nj / r.batch)
        assert r.power_w == pytest.approx(r.energy_nj * 1e-9 / r.latency_s)
        assert r.throughput_per_power == pytest.approx(
            r.batch / (r.energy_nj * 1e-6) / 1e3
        )

    def test_program_reuse_same_cycles(self):
        eng = BPNTTEngine(SMALL, width=8, rows=32, cols=32)
        eng.load(random_batch(eng, 12))
        c1 = eng.ntt().cycles
        eng.load(random_batch(eng, 13))
        c2 = eng.ntt().cycles
        assert c1 == c2  # data-independent schedule

    def test_a_second_run_prices_nothing(self, monkeypatch):
        """Runs reuse the engine's memoized program price: the executor
        interprets, and the lifetime stats are what pricing every run
        would give."""
        from repro.backends import base as backends_base
        from repro.sram import executor as executor_module
        from repro.sram.executor import ExecutionStats

        priced = []

        def counting(program, tech):
            priced.append(program)
            return profile_program(program, tech)

        monkeypatch.setattr(backends_base, "profile_program", counting)
        monkeypatch.setattr(executor_module, "profile_program", counting)
        eng = BPNTTEngine(SMALL, width=8, rows=32, cols=32)
        polys = random_batch(eng, 15)
        eng.load(polys)
        first = eng.ntt()
        assert len(priced) == 1
        eng.load(polys)
        second = eng.ntt()
        assert len(priced) == 1
        one = [1] + [0] * (SMALL.n - 1)
        eng.polymul_with(one)
        assert len(priced) == 3  # the pointwise program, then intt
        assert first == second
        programs = [eng.compiled_program("ntt")] * 3 + [
            eng.pointwise_program(ntt_negacyclic(one, SMALL)),
            eng.compiled_program("intt")]
        assert eng.gang[0].stats == ExecutionStats.merge(
            *(profile_program(program, eng.tech) for program in programs))
        # A run hands back its own copy, never the memo's stats.
        eng.load(polys)
        run = eng._execute(eng.compiled_program("ntt"))
        run.cycles += 1
        assert eng.profile(eng.compile("ntt")).cycles == first.cycles

    def test_section_breakdown_covers_modmul(self):
        eng = BPNTTEngine(SMALL, width=8, rows=32, cols=32)
        eng.load(random_batch(eng, 14))
        r = eng.ntt()
        assert "modmul" in r.section_cycles
        assert r.section_cycles["modmul"] > r.section_cycles["mod_add"]

    def test_butterfly_count_helper(self):
        assert butterfly_count(8) == 12
        assert butterfly_count(256) == 1024
        with pytest.raises(ParameterError):
            butterfly_count(12)


class TestValidation:
    def test_cyclic_params_rejected(self):
        with pytest.raises(ParameterError):
            BPNTTEngine(NTTParams(n=8, q=17, negacyclic=False))

    def test_unsafe_width_rejected(self):
        # q=97 needs 8 columns; 7 is over the Observation-1 bound.
        with pytest.raises(ParameterError):
            eng = BPNTTEngine(MEDIUM, width=7, rows=32, cols=28)
            eng.load(random_batch(eng))
            eng.ntt()

    def test_run_before_load_rejected(self):
        eng = BPNTTEngine(SMALL, width=8, rows=32, cols=32)
        with pytest.raises(ParameterError):
            eng.ntt()

    def test_overfull_batch_rejected(self):
        eng = BPNTTEngine(SMALL, width=8, rows=32, cols=32)
        with pytest.raises(ParameterError):
            eng.load([[0] * 8] * (eng.batch + 1))

    def test_wrong_length_polynomial_rejected(self):
        eng = BPNTTEngine(SMALL, width=8, rows=32, cols=32)
        with pytest.raises(ParameterError):
            eng.load([[0] * 7])

    def test_default_width_is_safe_container(self):
        eng = BPNTTEngine(SMALL, rows=32, cols=32)
        assert eng.width == 6  # 17 needs 5 bits + 1 guard
