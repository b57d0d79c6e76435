"""Fault-injection tests: detection and tile locality."""

import random

import pytest

from repro.core.engine import BPNTTEngine
from repro.errors import ParameterError, VerificationError
from repro.ntt.params import NTTParams
from repro.ntt.transform import ntt_negacyclic
from repro.sram.faults import FaultInjector
from repro.sram.subarray import SRAMSubarray

SMALL = NTTParams(n=8, q=17)


class TestInjectorMechanics:
    def test_flip_bit_inverts(self):
        sub = SRAMSubarray(8, 32, 8)
        inj = FaultInjector(sub)
        sub.storage.write_row(3, 0)
        inj.flip_bit(3, 5)
        assert sub.storage.get_bit(3, 5) == 1
        inj.flip_bit(3, 5)
        assert sub.storage.get_bit(3, 5) == 0

    def test_flip_in_tile(self):
        sub = SRAMSubarray(8, 32, 8)
        inj = FaultInjector(sub)
        inj.flip_in_tile(tile=2, row=1, bit_index=7)
        assert sub.read_word(1, 2) == 0x80
        assert inj.tiles_touched() == {2}

    def test_bit_index_validated(self):
        inj = FaultInjector(SRAMSubarray(8, 32, 8))
        with pytest.raises(ParameterError):
            inj.flip_in_tile(0, 0, 8)

    def test_random_flips_deterministic(self):
        sub1, sub2 = SRAMSubarray(8, 32, 8), SRAMSubarray(8, 32, 8)
        r1 = FaultInjector(sub1, seed=42).flip_random_bits(10)
        r2 = FaultInjector(sub2, seed=42).flip_random_bits(10)
        assert r1 == r2
        assert sub1.storage.snapshot() == sub2.storage.snapshot()

    def test_count_validated(self):
        with pytest.raises(ParameterError):
            FaultInjector(SRAMSubarray(8, 32, 8)).flip_random_bits(0)

    def test_random_flips_respect_row_range(self):
        sub = SRAMSubarray(16, 32, 8)
        records = FaultInjector(sub, seed=9).flip_random_bits(
            50, row_range=range(4, 8))
        assert {r.row for r in records} <= set(range(4, 8))
        assert all(0 <= r.col < sub.cols for r in records)
        # Rows outside the range stay untouched.
        for row in (*range(0, 4), *range(8, 16)):
            assert sub.storage.read_row(row) == 0

    def test_different_seeds_diverge(self):
        sub1, sub2 = SRAMSubarray(8, 32, 8), SRAMSubarray(8, 32, 8)
        FaultInjector(sub1, seed=1).flip_random_bits(10)
        FaultInjector(sub2, seed=2).flip_random_bits(10)
        assert sub1.storage.snapshot() != sub2.storage.snapshot()

    def test_tile_index_validated(self):
        from repro.errors import LayoutError

        inj = FaultInjector(SRAMSubarray(8, 32, 8))  # 4 tiles of width 8
        with pytest.raises(LayoutError):
            inj.flip_in_tile(tile=4, row=0, bit_index=0)
        with pytest.raises(LayoutError):
            inj.flip_in_tile(tile=-1, row=0, bit_index=0)

    def test_tiles_touched_accumulates(self):
        inj = FaultInjector(SRAMSubarray(8, 32, 8))
        inj.flip_in_tile(tile=0, row=0, bit_index=0)
        inj.flip_in_tile(tile=3, row=1, bit_index=7)
        inj.flip_bit(2, 9)  # column 9 lives in tile 1
        assert inj.tiles_touched() == {0, 1, 3}


class TestDetection:
    """Gold-model verification must catch injected data corruption."""

    def _engine_with_data(self, seed=0):
        eng = BPNTTEngine(SMALL, width=8, rows=32, cols=32)
        rng = random.Random(seed)
        polys = [[rng.randrange(17) for _ in range(8)] for _ in range(eng.batch)]
        eng.load(polys)
        return eng, polys

    def test_coefficient_fault_detected(self):
        eng, polys = self._engine_with_data(1)
        # Corrupt a loaded coefficient before the transform runs.
        FaultInjector(eng.gang[0].subarray).flip_in_tile(tile=0, row=3, bit_index=0)
        eng.ntt()
        with pytest.raises(VerificationError):
            eng.verify_against_gold(polys)

    def test_modulus_row_fault_detected(self):
        eng, polys = self._engine_with_data(2)
        FaultInjector(eng.gang[0].subarray).flip_in_tile(
            tile=1, row=eng.layout.scratch.mod, bit_index=1
        )
        eng.ntt()
        with pytest.raises(VerificationError):
            eng.verify_against_gold(polys)

    def test_clean_run_verifies(self):
        eng, polys = self._engine_with_data(3)
        eng.ntt()
        eng.verify_against_gold(polys)  # no fault -> no error


class TestExecutorOnFaultedSubarray:
    """Faults corrupt data, never the cost model or control flow."""

    def _reports(self, inject):
        clean = BPNTTEngine(SMALL, width=8, rows=32, cols=32)
        faulted = BPNTTEngine(SMALL, width=8, rows=32, cols=32)
        rng = random.Random(11)
        polys = [[rng.randrange(17) for _ in range(8)]
                 for _ in range(clean.batch)]
        clean.load([list(p) for p in polys])
        faulted.load([list(p) for p in polys])
        inject(FaultInjector(faulted.gang[0].subarray, seed=5))
        return clean.ntt(), faulted.ntt()

    def test_cost_is_data_independent(self):
        # The executor charges per instruction, not per bit value: a
        # corrupted operand must not change cycles, energy or the
        # per-section breakdown.
        clean, faulted = self._reports(
            lambda inj: inj.flip_in_tile(tile=1, row=2, bit_index=4))
        assert faulted == clean

    def test_cost_survives_random_fault_burst(self):
        clean, faulted = self._reports(
            lambda inj: inj.flip_random_bits(20, row_range=range(0, 8)))
        assert faulted.cycles == clean.cycles
        assert faulted.energy_nj == clean.energy_nj
        assert faulted.section_cycles == clean.section_cycles


class TestTileLocality:
    """A fault in one tile's data never corrupts other tiles' results."""

    @pytest.mark.parametrize("victim_tile", [0, 2])
    def test_other_tiles_unaffected(self, victim_tile):
        eng = BPNTTEngine(SMALL, width=8, rows=32, cols=32)
        rng = random.Random(4)
        polys = [[rng.randrange(17) for _ in range(8)] for _ in range(eng.batch)]
        eng.load(polys)
        FaultInjector(eng.gang[0].subarray).flip_in_tile(victim_tile, row=2, bit_index=3)
        eng.ntt()
        results = eng.results()
        expected = [ntt_negacyclic(p, SMALL) for p in polys]
        for slot in range(eng.batch):
            if slot == victim_tile:
                assert results[slot] != expected[slot]
            else:
                assert results[slot] == expected[slot]
