"""Cross-module integration tests.

These exercise the full stack — parameters -> twiddles -> compiled
microcode -> subarray execution -> readout — against independent
references, plus the crypto workloads running on the engine.
"""

import random

import pytest

from repro.core.engine import BPNTTEngine
from repro.crypto.rlwe import RLWEScheme
from repro.mont.bitparallel import montgomery_expected
from repro.ntt.params import NTTParams, get_params
from repro.ntt.polynomial import Polynomial
from repro.ntt.recursive import naive_dft
from repro.ntt.transform import ntt_negacyclic, schoolbook_negacyclic
from repro.utils.bitops import bit_reverse_permutation


class TestEngineAgainstIndependentReferences:
    """The engine must match the transform *definition*, not just the
    iterative gold model (a shared indexing bug would cancel there)."""

    def test_engine_matches_naive_dft(self):
        params = NTTParams(n=16, q=97)
        eng = BPNTTEngine(params, width=8, rows=32, cols=32)
        rng = random.Random(1)
        polys = [
            [rng.randrange(97) for _ in range(16)] for _ in range(eng.batch)
        ]
        eng.load(polys)
        eng.ntt()
        perm = bit_reverse_permutation(16)
        for got, poly in zip(eng.results(), polys):
            reference = naive_dft(poly, params)
            assert [got[perm[i]] for i in range(16)] == reference

    def test_engine_polymul_matches_schoolbook(self):
        params = NTTParams(n=16, q=97)
        eng = BPNTTEngine(params, width=8, rows=32, cols=32)
        rng = random.Random(2)
        polys = [
            [rng.randrange(97) for _ in range(16)] for _ in range(eng.batch)
        ]
        other = [rng.randrange(97) for _ in range(16)]
        eng.load(polys)
        eng.polymul_with(other)
        assert eng.results() == [
            schoolbook_negacyclic(p, other, 97) for p in polys
        ]

    def test_intt_of_pointwise_square_is_negacyclic_square(self):
        params = NTTParams(n=8, q=17)
        eng = BPNTTEngine(params, width=8, rows=32, cols=32)
        rng = random.Random(3)
        polys = [
            [rng.randrange(17) for _ in range(8)] for _ in range(eng.batch)
        ]
        hats = [ntt_negacyclic(p, params) for p in polys]
        eng.load(hats)
        eng.pointwise_multiply(hats[0])  # every slot multiplied by hat[0]
        eng.intt()
        assert eng.results() == [
            schoolbook_negacyclic(p, polys[0], 17) for p in polys
        ]


class TestContainerWidthBoundary:
    """The engine must honor the Observation-1 safety boundary found by
    this reproduction across the whole stack."""

    def test_minimum_width_works(self):
        params = NTTParams(n=8, q=17)  # 5-bit q -> 6-bit container
        eng = BPNTTEngine(params, rows=32, cols=36)
        assert eng.width == 6
        rng = random.Random(4)
        polys = [[rng.randrange(17) for _ in range(8)] for _ in range(eng.batch)]
        eng.load(polys)
        eng.ntt()
        assert eng.results() == [ntt_negacyclic(p, params) for p in polys]

    def test_wider_than_minimum_also_works(self):
        params = NTTParams(n=8, q=17)
        for width in (8, 12, 16):
            eng = BPNTTEngine(params, width=width, rows=32, cols=48)
            rng = random.Random(width)
            polys = [
                [rng.randrange(17) for _ in range(8)] for _ in range(eng.batch)
            ]
            eng.load(polys)
            eng.ntt()
            assert eng.results() == [ntt_negacyclic(p, params) for p in polys]


class TestCryptoOnEngine:
    def test_rlwe_encrypt_products_on_engine(self):
        """The rlwe_demo example's invariant, as a regression test."""
        params = get_params("table1-14bit")
        rng = random.Random(5)
        scheme = RLWEScheme(params, noise_bound=1, rng=rng)
        key = scheme.keygen()
        r = Polynomial.random_small(params, 1, random.Random(6))

        eng = BPNTTEngine(params, width=16)
        eng.load([key.a.coeffs, key.b.coeffs])
        eng.polymul_with(r.coeffs)
        products = eng.results()
        assert products[0] == (key.a * r).coeffs
        assert products[1] == (key.b * r).coeffs


class TestStatsPlumbing:
    def test_lifetime_stats_accumulate_across_kernels(self):
        params = NTTParams(n=8, q=17)
        eng = BPNTTEngine(params, width=8, rows=32, cols=32)
        eng.load([[1] * 8] * eng.batch)
        r1 = eng.ntt()
        r2 = eng.intt()
        assert eng.gang[0].stats.cycles == r1.cycles + r2.cycles
        assert eng.gang[0].stats.shift_count == r1.shift_count + r2.shift_count

    def test_modmul_dominates_cycle_breakdown(self):
        params = NTTParams(n=16, q=97)
        eng = BPNTTEngine(params, width=8, rows=32, cols=32)
        eng.load([[3] * 16] * eng.batch)
        report = eng.ntt()
        modmul = report.section_cycles["modmul"]
        assert modmul > report.cycles * 0.4  # the multiplier is the hot spot


class TestFunctionalModelVsEngineEquivalence:
    """One random (a, b, M, width) sweep through both implementations."""

    @pytest.mark.parametrize("seed", range(3))
    def test_random_configs(self, seed):
        from repro.core.addsub import emit_cond_subtract, emit_resolve
        from repro.core.layout import DataLayout
        from repro.core.modmul import emit_modmul
        from repro.sram.executor import Executor
        from repro.sram.program import Program
        from repro.sram.subarray import SRAMSubarray

        rng = random.Random(seed)
        width = rng.choice([6, 8, 10, 12])
        modulus = rng.randrange(3, (1 << (width - 1)) - 1) | 1
        layout = DataLayout(16, 4 * width, width, order=1)
        sub = SRAMSubarray(16, layout.used_cols, width)
        ex = Executor(sub)
        sub.broadcast_word(layout.scratch.mod, modulus)
        a = rng.randrange(modulus)
        bs = [rng.randrange(modulus) for _ in range(4)]
        for tile, b in enumerate(bs):
            sub.write_word(0, tile, b)
        prog = Program("x")
        emit_modmul(prog, layout, a, 0)
        emit_resolve(prog, layout)
        emit_cond_subtract(prog, layout, layout.scratch.sum)
        ex.run(prog)
        got = [sub.read_word(layout.scratch.sum, t) for t in range(4)]
        assert got == [montgomery_expected(a, b, modulus, width) for b in bs]
