"""Mutation tests for the static program verifier.

Each test builds (or corrupts) a small instruction stream and asserts
the verifier reports exactly the expected rule id — the "teeth" half of
the check contract.  The quiet half (compiled programs check clean)
lives at the bottom.
"""

import pytest

from repro.check import check_program
from repro.check.diagnostics import Severity
from repro.core.layout import DataLayout
from repro.core.scheduler import compile_intt, compile_ntt, compile_pointwise_mul
from repro.core.tiles import container_width
from repro.mont.bitparallel import safe_modulus_bound
from repro.ntt.params import NTTParams
from repro.sram.isa import (
    BinaryOp,
    BinaryPair,
    CarryStep,
    Check,
    CheckCarry,
    CopyGated,
    LogicBinary,
    SetFlags,
    SetLatch,
    ShiftRow,
    ShiftDirection,
    Unary,
    UnaryOp,
)
from repro.sram.program import Program

WIDTH = 8
ROWS = 32
TILES = 4
SAFE_Q = 97      # < safe_modulus_bound(8) = 127
UNSAFE_Q = 251   # a valid 8-bit value, but > 127: a+b can overflow


def rules(diagnostics):
    return [d.rule for d in diagnostics]


def errors(diagnostics):
    return [d.rule for d in diagnostics if d.severity is Severity.ERROR]


def make_program(*instructions):
    return Program(name="mutant", instructions=list(instructions))


def healthy_add(width=WIDTH, rounds=None):
    """A well-formed value-only addition: half-adder + w-1 ripples."""
    program = make_program(
        BinaryPair(dst_xor=2, src0=0, src1=1),
        *[CarryStep(dst=2, src=2)
          for _ in range(width - 1 if rounds is None else rounds)],
    )
    return program


class TestHealthyIdioms:
    def test_full_addition_is_clean(self):
        assert check_program(healthy_add(), rows=ROWS, width=WIDTH,
                             num_tiles=TILES, modulus=SAFE_Q) == []

    def test_conditional_subtract_idiom_is_clean(self):
        # NOT -> half-adder with carry-in -> full-width ripple ->
        # CheckCarry -> gated copy: the emit_cond_subtract shape.
        program = make_program(
            Unary(op=UnaryOp.NOT, dst=3, src=1, set_lsb=False),
            BinaryPair(dst_xor=4, src0=0, src1=3, carry_in=True),
            *[CarryStep(dst=4, src=4) for _ in range(WIDTH)],
            CheckCarry(),
            CopyGated(dst=0, src=4),
        )
        assert check_program(program, rows=ROWS, width=WIDTH,
                             num_tiles=TILES, modulus=SAFE_Q) == []


class TestGeometryRules:
    def test_prog001_row_out_of_range(self):
        program = make_program(Unary(op=UnaryOp.COPY, dst=ROWS, src=0))
        assert errors(check_program(program, rows=ROWS)) == ["PROG001"]

    def test_prog001_negative_row(self):
        program = make_program(ShiftRow(dst=1, src=-1,
                                        direction=ShiftDirection.LEFT))
        assert errors(check_program(program, rows=ROWS)) == ["PROG001"]

    def test_prog002_check_bit_outside_tile(self):
        program = make_program(Check(row=0, bit_index=WIDTH))
        assert errors(check_program(program, rows=ROWS,
                                    width=WIDTH)) == ["PROG002"]

    def test_prog003_setflags_mask_too_wide(self):
        program = make_program(SetFlags(mask=1 << TILES))
        assert errors(check_program(program, rows=ROWS,
                                    num_tiles=TILES)) == ["PROG003"]


class TestDataflowRules:
    def test_prog004_read_before_write_strict_inputs(self):
        # Row 5 is read but neither written nor declared host-loaded.
        program = make_program(
            LogicBinary(op=BinaryOp.XOR, dst=2, src0=0, src1=5))
        found = check_program(program, rows=ROWS, inputs=(0, 1))
        assert errors(found) == ["PROG004"]
        assert "row 5" in found[0].message

    def test_prog004_quiet_when_inputs_inferred(self):
        program = make_program(
            LogicBinary(op=BinaryOp.XOR, dst=2, src0=0, src1=5))
        assert check_program(program, rows=ROWS) == []

    def test_prog005_carrystep_without_latch_park(self):
        program = make_program(CarryStep(dst=2, src=2))
        assert errors(check_program(program, rows=ROWS,
                                    width=WIDTH)) == ["PROG005"]

    def test_prog005_setlatch_parks_the_latch(self):
        program = make_program(SetLatch(row=0), CarryStep(dst=2, src=2))
        assert "PROG005" not in rules(check_program(program, rows=ROWS,
                                                    width=WIDTH))

    def test_prog006_gated_op_without_flags(self):
        program = make_program(CopyGated(dst=1, src=0))
        assert errors(check_program(program, rows=ROWS)) == ["PROG006"]

    def test_prog006_gated_operand_without_flags(self):
        program = make_program(
            LogicBinary(op=BinaryOp.AND, dst=2, src0=0, src1=1,
                        gate_operand1=True))
        assert errors(check_program(program, rows=ROWS)) == ["PROG006"]

    def test_prog007_checkcarry_without_carrystep(self):
        program = make_program(
            BinaryPair(dst_xor=2, src0=0, src1=1),
            CheckCarry(),
            CopyGated(dst=0, src=2),
        )
        assert errors(check_program(program, rows=ROWS,
                                    width=WIDTH)) == ["PROG007"]

    def test_prog007_binarypair_clears_pending_carry(self):
        # The ripple ran, but a later BinaryPair zeroes carry_out before
        # CheckCarry reads it — the executor's clearing semantics.
        program = make_program(
            BinaryPair(dst_xor=2, src0=0, src1=1),
            *[CarryStep(dst=2, src=2) for _ in range(WIDTH)],
            BinaryPair(dst_xor=3, src0=0, src1=1),
            CheckCarry(),
        )
        assert "PROG007" in errors(check_program(program, rows=ROWS,
                                                 width=WIDTH))


class TestCarryChainRules:
    def test_prog008_unsafe_modulus_overflows_short_chain(self):
        found = check_program(healthy_add(), rows=ROWS, width=WIDTH,
                              num_tiles=TILES, modulus=UNSAFE_Q)
        assert errors(found) == ["PROG008"]
        assert str(safe_modulus_bound(WIDTH)) in found[0].message

    def test_prog008_quiet_for_safe_modulus(self):
        assert check_program(healthy_add(), rows=ROWS, width=WIDTH,
                             modulus=SAFE_Q) == []

    def test_prog008_quiet_for_full_width_chain(self):
        # Rippling the full width leaves the carry-out observable, so
        # even an unsafe modulus cannot silently overflow.
        assert check_program(healthy_add(rounds=WIDTH), rows=ROWS,
                             width=WIDTH, modulus=UNSAFE_Q) == []

    def test_prog009_truncated_chain_warns(self):
        found = check_program(healthy_add(rounds=3), rows=ROWS, width=WIDTH,
                              modulus=SAFE_Q)
        assert rules(found) == ["PROG009"]
        assert found[0].severity is Severity.WARNING

    def test_prog009_judged_at_program_end(self):
        # A chain left open when the stream ends is still judged.
        program = make_program(
            BinaryPair(dst_xor=2, src0=0, src1=1),
            CarryStep(dst=2, src=2),
        )
        assert rules(check_program(program, rows=ROWS,
                                   width=WIDTH)) == ["PROG009"]


class TestCostAndSectionRules:
    def test_prog010_unknown_instruction_class(self):
        class Mystery:
            pass

        program = make_program(Mystery())
        found = check_program(program, rows=ROWS, width=WIDTH)
        assert errors(found) == ["PROG010"]
        assert "Mystery" in found[0].message

    def test_prog010_reported_once_per_class(self):
        class Mystery:
            pass

        program = make_program(Mystery(), Mystery())
        assert errors(check_program(program)) == ["PROG010"]

    def test_prog011_section_beyond_program(self):
        program = healthy_add()
        program.sections.append(("phantom", 0, len(program) + 5))
        found = check_program(program, rows=ROWS, width=WIDTH, modulus=SAFE_Q)
        assert errors(found) == ["PROG011"]

    def test_prog012_open_section_warns(self):
        program = healthy_add()
        program.begin_section("dangling")
        found = check_program(program, rows=ROWS, width=WIDTH, modulus=SAFE_Q)
        assert rules(found) == ["PROG012"]
        assert found[0].severity is Severity.WARNING


class TestCompiledProgramsClean:
    """The compiler's own output must produce zero findings."""

    TINY = NTTParams(n=16, q=97, name="check tiny ring")

    def _layout(self):
        width = container_width(self.TINY.q)
        return DataLayout(64, 128, width, self.TINY.n), width

    @pytest.mark.parametrize("compile_kernel", [compile_ntt, compile_intt])
    def test_transform_kernels(self, compile_kernel):
        layout, width = self._layout()
        program = compile_kernel(layout, self.TINY)
        assert check_program(program, rows=layout.rows, width=width,
                             num_tiles=layout.num_tiles,
                             modulus=self.TINY.q) == []

    def test_pointwise_kernel(self):
        layout, width = self._layout()
        other_hat = [(3 * i + 1) % self.TINY.q for i in range(self.TINY.n)]
        program = compile_pointwise_mul(layout, self.TINY, other_hat)
        assert check_program(program, rows=layout.rows, width=width,
                             num_tiles=layout.num_tiles,
                             modulus=self.TINY.q) == []

    def test_corrupted_compiled_program_is_caught(self):
        # End-to-end teeth: drop the ripple rounds out of a compiled
        # kernel and the verifier must notice the truncated chains.
        layout, width = self._layout()
        program = compile_ntt(layout, self.TINY)
        kept = [i for i in program.instructions
                if not isinstance(i, CarryStep)]
        mutant = Program(name=program.name, instructions=kept)
        found = check_program(mutant, rows=layout.rows, width=width,
                              modulus=self.TINY.q)
        # Every CheckCarry now reads a carry-out nothing produced.
        assert "PROG007" in errors(found)
