"""Fig 8 sweep tests: shapes, feasibility boundaries, and agreement of
the cost model with real executions."""

import pytest

from repro.analysis.sweeps import (
    format_sweep,
    program_cost,
    sweep_bitwidths,
    sweep_orders,
    sweep_point,
)
from repro.core.engine import BPNTTEngine
from repro.errors import ParameterError
from repro.ntt.params import NTTParams
from repro.sram.energy import TECH_45NM


class TestCostModelAgreesWithExecutor:
    """program_cost must price exactly what the executor charges."""

    def test_small_resident_ntt(self):
        params = NTTParams(n=8, q=17)
        eng = BPNTTEngine(params, width=8, rows=32, cols=32)
        eng.load([[1] * 8] * eng.batch)
        report = eng.ntt()
        program = eng.compiled_program("ntt")
        cost = program_cost(program, TECH_45NM)
        assert cost.cycles == report.cycles
        assert cost.energy_pj == pytest.approx(report.energy_nj * 1000)
        assert cost.shift_count == report.shift_count

    def test_spill_ntt(self):
        params = NTTParams(n=16, q=97)
        eng = BPNTTEngine(params, width=8, rows=16, cols=32)
        eng.load([[2] * 16] * eng.batch)
        report = eng.ntt()
        cost = program_cost(eng.compiled_program("ntt"), TECH_45NM)
        assert (cost.cycles, cost.shift_count) == (report.cycles, report.shift_count)


class TestFig8aShape:
    """Cycles ~linear in bitwidth; energy per NTT grows steeper."""

    def test_points_feasible(self):
        points = sweep_bitwidths((4, 8, 16, 32, 64), order=256)
        assert [p.width for p in points] == [4, 8, 16, 32, 64]
        assert all(p.batch >= 1 for p in points)

    def test_cycles_increase_with_width(self):
        points = sweep_bitwidths((8, 16, 32, 64), order=256)
        cycles = [p.cycles for p in points]
        assert cycles == sorted(cycles)

    def test_cycles_roughly_linear_in_width(self):
        points = {p.width: p for p in sweep_bitwidths((16, 32), order=256)}
        ratio = points[32].cycles / points[16].cycles
        assert 1.6 < ratio < 2.6

    def test_energy_grows_steeper_than_cycles(self):
        # Fig 8(a)'s narrative: fewer parallel NTTs at higher widths make
        # the per-NTT energy curve steeper than the clock-count curve.
        points = {p.width: p for p in sweep_bitwidths((16, 64), order=256)}
        cycle_ratio = points[64].cycles / points[16].cycles
        energy_ratio = points[64].energy_per_ntt_nj / points[16].energy_per_ntt_nj
        assert energy_ratio > cycle_ratio

    def test_batch_shrinks_with_width(self):
        points = {p.width: p for p in sweep_bitwidths((8, 16, 32, 64), order=128)}
        assert points[8].batch > points[16].batch > points[32].batch >= points[64].batch


class TestFig8bShape:
    """Cycles and energy superlinear in the order; spill adds shifts."""

    def test_orders_feasible_up_to_capacity(self):
        points = sweep_orders((64, 128, 256, 512, 1024, 2048), width=16)
        assert [p.order for p in points] == [64, 128, 256, 512, 1024, 2048]

    def test_4096_infeasible_at_16bit(self):
        # 4096 points need 17 tiles of 16 bits; a 256x256 array has 16.
        assert sweep_point(16, 4096) is None

    def test_cycles_superlinear_in_order(self):
        points = {p.order: p for p in sweep_orders((64, 128, 256), width=16)}
        assert points[128].cycles > 2 * points[64].cycles
        assert points[256].cycles > 2 * points[128].cycles

    def test_spill_adds_shift_overhead(self):
        points = {p.order: p for p in sweep_orders((128, 256), width=16)}
        shifts_per_bfly_128 = points[128].shift_ops / (64 * 7)
        shifts_per_bfly_256 = points[256].shift_ops / (128 * 8)
        assert shifts_per_bfly_256 > shifts_per_bfly_128

    def test_energy_per_ntt_grows_steeper_than_cycles(self):
        points = {p.order: p for p in sweep_orders((128, 1024), width=16)}
        cycle_ratio = points[1024].cycles / points[128].cycles
        energy_ratio = (
            points[1024].energy_per_ntt_nj / points[128].energy_per_ntt_nj
        )
        assert energy_ratio > cycle_ratio


class TestValidationAndFormat:
    def test_non_power_of_two_order_rejected(self):
        with pytest.raises(ParameterError):
            sweep_point(16, 100)

    def test_width_too_small_is_infeasible(self):
        # Algorithm 2 requires n > 2; DataLayout rejects width <= 2.
        assert sweep_point(2, 256) is None

    def test_format_contains_all_rows(self):
        points = sweep_bitwidths((8, 16), order=64)
        text = format_sweep(points, "bitwidth")
        assert "cycles" in text
        assert text.count("\n") == len(points)

    def test_deterministic_given_seed(self):
        a = sweep_point(16, 64, seed=5)
        b = sweep_point(16, 64, seed=5)
        assert a == b
