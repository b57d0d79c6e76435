"""Unit tests for the technology model."""

import pytest

from repro.errors import ParameterError
from repro.sram.energy import TECH_45NM, TechnologyModel


class TestAreaModel:
    def test_reference_subarray_matches_table1(self):
        # The 256x256 subarray must land on the paper's 0.063 mm^2.
        area = TECH_45NM.subarray_area_mm2(256, 256)
        assert area == pytest.approx(0.063, rel=0.02)

    def test_area_scales_linearly_with_cells(self):
        half = TECH_45NM.subarray_area_mm2(128, 256)
        full = TECH_45NM.subarray_area_mm2(256, 256)
        assert full == pytest.approx(2 * half)

    def test_dimensions_validated(self):
        with pytest.raises(ParameterError):
            TECH_45NM.subarray_area_mm2(0, 256)


class TestTables:
    def test_all_instruction_classes_priced(self):
        for kind in ("logic", "pair", "carry_step", "shift", "unary", "check",
                     "copy_gated", "set_latch", "row_write", "row_read"):
            assert TECH_45NM.instruction_energy_pj(kind) > 0
            assert TECH_45NM.instruction_cycles(kind) >= 1

    def test_unknown_class_rejected(self):
        with pytest.raises(ParameterError):
            TECH_45NM.instruction_energy_pj("teleport")
        with pytest.raises(ParameterError):
            TECH_45NM.instruction_cycles("teleport")

    def test_cycles_to_seconds(self):
        assert TECH_45NM.cycles_to_seconds(int(3.8e9)) == pytest.approx(1.0)


class TestNodeScaling:
    def test_scale_to_same_node_is_identity(self):
        scaled = TECH_45NM.scale_to(45.0)
        assert scaled.frequency_hz == TECH_45NM.frequency_hz
        assert scaled.cell_area_um2 == TECH_45NM.cell_area_um2

    def test_shrink_improves_everything(self):
        nm22 = TECH_45NM.scale_to(22.0)
        assert nm22.frequency_hz > TECH_45NM.frequency_hz
        assert nm22.cell_area_um2 < TECH_45NM.cell_area_um2
        assert nm22.energy_pj["logic"] < TECH_45NM.energy_pj["logic"]

    def test_projection_is_quadratic_in_area(self):
        nm90 = TECH_45NM.scale_to(90.0)
        assert nm90.cell_area_um2 == pytest.approx(4 * TECH_45NM.cell_area_um2)

    def test_invalid_nodes_rejected(self):
        with pytest.raises(ParameterError):
            TECH_45NM.scale_to(0)
        with pytest.raises(ParameterError):
            TECH_45NM.scale_to(22, source_nm=-1)


class TestCustomModel:
    def test_overridable_tables(self):
        tech = TechnologyModel(energy_pj={"logic": 1.0}, cycles={"logic": 2})
        assert tech.instruction_energy_pj("logic") == 1.0
        assert tech.instruction_cycles("logic") == 2

    @pytest.mark.parametrize("energy", [
        -1.0, float("nan"), float("inf"), 1, True, "0.2", None,
    ], ids=["negative", "nan", "inf", "int", "bool", "str", "none"])
    def test_energies_must_be_finite_floats_at_least_zero(self, energy):
        with pytest.raises(ParameterError, match="energy of 'logic'"):
            TechnologyModel(energy_pj={"logic": energy})

    @pytest.mark.parametrize("cycles", [
        -1, 1.0, True, float("nan"), "1", None,
    ], ids=["negative", "float", "bool", "nan", "str", "none"])
    def test_cycles_must_be_ints_at_least_zero(self, cycles):
        with pytest.raises(ParameterError, match="cycles of 'logic'"):
            TechnologyModel(cycles={"logic": cycles})

    def test_zero_costs_and_every_shipped_table_are_valid(self):
        TechnologyModel(energy_pj={"logic": 0.0}, cycles={"logic": 0})
        for nm in (7.0, 22.0, 45.0, 90.0):
            TECH_45NM.scale_to(nm)
