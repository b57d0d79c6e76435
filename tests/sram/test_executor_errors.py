"""Executor error paths and less-traveled semantics."""

import pytest

from repro.errors import ExecutionError, LayoutError
from repro.sram.executor import Executor, _instruction_kind
from repro.sram.isa import (
    BinaryOp,
    BinaryPair,
    CarryStep,
    LogicBinary,
    SetFlags,
    Unary,
    UnaryOp,
)
from repro.sram.program import Program
from repro.sram.subarray import SRAMSubarray


def make():
    sub = SRAMSubarray(8, 16, 8)
    return Executor(sub), sub


class TestErrorPaths:
    def test_out_of_range_row_raises_layout_error(self):
        ex, _ = make()
        with pytest.raises(LayoutError):
            ex.execute(Unary(UnaryOp.COPY, 0, 99))

    def test_unknown_instruction_kind(self):
        with pytest.raises(ExecutionError):
            _instruction_kind(42)

    def test_section_beyond_program_rejected(self):
        ex, _ = make()
        p = Program("bad")
        p.emit(Unary(UnaryOp.ZERO, 0))
        p.sections.append(("phantom", 0, 5))
        with pytest.raises(ExecutionError):
            ex.run(p)

    @pytest.mark.parametrize("start, end", [(-1, 1), (1, 0)])
    def test_reversed_or_negative_section_rejected(self, start, end):
        ex, _ = make()
        p = Program("bad")
        p.emit(Unary(UnaryOp.ZERO, 0))
        p.sections.append(("phantom", start, end))
        with pytest.raises(ExecutionError, match="spans"):
            ex.run(p)


class TestCarryInSemantics:
    def test_carry_in_flips_lsb_and_ors_latch(self):
        ex, sub = make()
        sub.write_word(0, 0, 0b0000_0101)
        sub.write_word(1, 0, 0b0000_0011)
        ex.execute(BinaryPair(2, 0, 1, carry_in=True))
        # XOR with flipped LSB: 0101^0011 = 0110, LSB flips -> 0111.
        assert sub.read_word(2, 0) == 0b0000_0111
        # Latch LSB = OR polarity: (0101|0011)&1 = 1; elsewhere AND = 0001&~1=0.
        assert sub.latch & 1 == 1

    def test_carry_in_addition_identity(self):
        # a + b + 1 for arbitrary operands.
        ex, sub = make()
        a, b = 100, 155
        sub.write_word(0, 0, a)
        sub.write_word(1, 0, b)
        ex.execute(BinaryPair(2, 0, 1, carry_in=True))
        for _ in range(8):
            ex.execute(CarryStep(2, 2))
        assert sub.read_word(2, 0) == (a + b + 1) % 256


class TestGatingCorners:
    def test_gate_with_no_flags_zeroes_operand(self):
        ex, sub = make()
        sub.storage.write_row(0, 0xFFFF)
        sub.storage.write_row(1, 0xFFFF)
        sub.flags = 0
        ex.execute(LogicBinary(BinaryOp.XOR, 2, 0, 1, gate_operand1=True))
        assert sub.storage.read_row(2) == 0xFFFF  # x ^ 0

    def test_set_flags_masks_to_tile_count(self):
        ex, sub = make()
        ex.execute(SetFlags(0xFFFF))
        assert sub.flags == 0b11  # only 2 tiles exist

    def test_pair_resets_carry_out(self):
        ex, sub = make()
        sub.carry_out = 0b11
        ex.execute(BinaryPair(2, 0, 1))
        assert sub.carry_out == 0
