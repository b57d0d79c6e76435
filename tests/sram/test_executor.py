"""Unit tests for the subarray executor and ISA semantics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.sram.energy import TECH_45NM
from repro.sram.executor import ExecutionStats, Executor, profile_program
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
    ShiftDirection,
    ShiftRow,
    Unary,
    UnaryOp,
)
from repro.sram.program import Program
from repro.sram.subarray import SRAMSubarray


def make_executor(rows=16, cols=16, tile=8):
    sub = SRAMSubarray(rows, cols, tile)
    return Executor(sub, TECH_45NM), sub


class TestLogicBinary:
    @pytest.mark.parametrize(
        "op,expect",
        [
            (BinaryOp.AND, 0b1100 & 0b1010),
            (BinaryOp.OR, 0b1100 | 0b1010),
            (BinaryOp.XOR, 0b1100 ^ 0b1010),
            (BinaryOp.NOR, (~(0b1100 | 0b1010)) & 0xFFFF),
        ],
    )
    def test_ops(self, op, expect):
        ex, sub = make_executor()
        sub.storage.write_row(0, 0b1100)
        sub.storage.write_row(1, 0b1010)
        ex.execute(LogicBinary(op, 2, 0, 1))
        assert sub.storage.read_row(2) == expect

    def test_gated_operand_masked_per_tile(self):
        ex, sub = make_executor(cols=16, tile=8)
        sub.storage.write_row(0, 0xFFFF)
        sub.storage.write_row(1, 0xABCD)
        sub.flags = 0b01  # only tile 0 enabled
        ex.execute(LogicBinary(BinaryOp.AND, 2, 0, 1, gate_operand1=True))
        assert sub.storage.read_row(2) == 0x00CD

    def test_unknown_instruction_rejected(self):
        ex, _ = make_executor()
        with pytest.raises(ExecutionError):
            ex.execute("bogus")


class TestCheckAndFlags:
    def test_check_reads_tile_lsb(self):
        ex, sub = make_executor(cols=16, tile=8)
        sub.storage.write_row(0, 0x0100 | 0x00)  # tile1 LSB=1, tile0 LSB=0
        ex.execute(Check(0, bit_index=0))
        assert sub.flags == 0b10

    def test_check_other_bit_and_invert(self):
        ex, sub = make_executor(cols=16, tile=8)
        sub.storage.write_row(0, 0x8000)  # tile1 MSB
        ex.execute(Check(0, bit_index=7))
        assert sub.flags == 0b10
        ex.execute(Check(0, bit_index=7, invert=True))
        assert sub.flags == 0b01

    def test_set_flags_immediate(self):
        ex, sub = make_executor()
        ex.execute(SetFlags(0b11))
        assert sub.flags == 0b11

    def test_copy_gated(self):
        ex, sub = make_executor(cols=16, tile=8)
        sub.storage.write_row(0, 0x1234)
        sub.storage.write_row(1, 0xAAAA)
        sub.flags = 0b10
        ex.execute(CopyGated(1, 0))
        assert sub.storage.read_row(1) == 0x12AA


class TestUnary:
    def test_zero_copy_not(self):
        ex, sub = make_executor()
        sub.storage.write_row(0, 0x00F0)
        ex.execute(Unary(UnaryOp.COPY, 1, 0))
        assert sub.storage.read_row(1) == 0x00F0
        ex.execute(Unary(UnaryOp.NOT, 2, 0))
        assert sub.storage.read_row(2) == 0xFF0F
        ex.execute(Unary(UnaryOp.ZERO, 2))
        assert sub.storage.read_row(2) == 0

    def test_not_set_lsb_is_twos_complement_of_odd(self):
        ex, sub = make_executor(cols=16, tile=8)
        m = 97  # odd
        sub.broadcast_word(0, m)
        ex.execute(Unary(UnaryOp.NOT, 1, 0, set_lsb=True))
        for tile in range(2):
            assert sub.read_word(1, tile) == (256 - m) % 256


class TestShiftRow:
    def test_segmented_left(self):
        ex, sub = make_executor(cols=16, tile=8)
        sub.write_word(0, 0, 0b1000_0001)
        sub.write_word(0, 1, 0b1000_0001)
        ex.execute(ShiftRow(1, 0, ShiftDirection.LEFT))
        assert sub.read_word(1, 0) == 0b0000_0010
        assert sub.read_word(1, 1) == 0b0000_0010

    def test_unsegmented_crosses_tiles(self):
        ex, sub = make_executor(cols=16, tile=8)
        sub.write_word(0, 1, 0x01)  # bit 8 set
        ex.execute(ShiftRow(0, 0, ShiftDirection.RIGHT, segmented=False))
        assert sub.read_word(0, 0) == 0x80  # slid into tile 0's MSB
        assert sub.read_word(0, 1) == 0

    def test_shift_counter(self):
        # Single-step execute() charges nothing; the shift count is the
        # static price of the executed instructions.
        ex, sub = make_executor()
        p = Program("shifts")
        p.emit(ShiftRow(0, 0, ShiftDirection.LEFT))
        p.emit(ShiftRow(0, 0, ShiftDirection.RIGHT))
        for instruction in p.instructions:
            ex.execute(instruction)
        assert ex.stats == ExecutionStats()
        assert profile_program(p, TECH_45NM).shift_count == 2


class TestAdderMicrocode:
    """BinaryPair + CarryStep implement a full per-tile adder."""

    def _add(self, ex, sub, a, b, width=8, rounds=None, carry_in=False):
        sub.write_word(0, 0, a)
        sub.write_word(0, 1, a)
        sub.write_word(1, 0, b)
        sub.write_word(1, 1, b)
        ex.execute(BinaryPair(2, 0, 1, carry_in=carry_in))
        for _ in range(rounds if rounds is not None else width):
            ex.execute(CarryStep(2, 2))
        return sub.read_word(2, 0), sub.read_word(2, 1)

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    def test_addition(self, a, b):
        ex, sub = make_executor(cols=16, tile=8)
        lo, hi = self._add(ex, sub, a, b)
        assert lo == (a + b) % 256
        assert hi == (a + b) % 256

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    def test_carry_out_flags(self, a, b):
        ex, sub = make_executor(cols=16, tile=8)
        self._add(ex, sub, a, b)
        ex.execute(CheckCarry())
        expected = 0b11 if a + b >= 256 else 0
        assert sub.flags == expected

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    def test_subtraction_via_carry_in(self, a, b):
        # a + ~b + 1 == a - b mod 256; carry-out == no borrow.
        ex, sub = make_executor(cols=16, tile=8)
        nb = (~b) & 0xFF
        lo, _ = self._add(ex, sub, a, nb, carry_in=True)
        assert lo == (a - b) % 256
        ex.execute(CheckCarry())
        assert sub.flags == (0b11 if a >= b else 0)

    def test_check_carry_invert_and_reset(self):
        ex, sub = make_executor(cols=16, tile=8)
        self._add(ex, sub, 200, 100)  # overflow in both tiles
        ex.execute(CheckCarry(invert=True))
        assert sub.flags == 0
        # carry_out was consumed; a second check sees nothing.
        ex.execute(CheckCarry())
        assert sub.flags == 0

    def test_set_latch(self):
        ex, sub = make_executor()
        sub.storage.write_row(3, 0x5A)
        ex.execute(SetLatch(3))
        assert sub.latch == 0x5A
        ex.execute(SetLatch(None))
        assert sub.latch == 0


class TestProgramRun:
    def test_stats_accumulate_and_isolate(self):
        ex, sub = make_executor()
        p = Program("p")
        p.emit(Unary(UnaryOp.ZERO, 0))
        p.emit(Unary(UnaryOp.ZERO, 1))
        run1 = ex.run(p)
        run2 = ex.run(p)
        assert run1.cycles == run2.cycles == 2
        assert ex.stats.cycles == 4
        assert ex.stats.instructions == 4

    def test_section_cycles(self):
        ex, _ = make_executor()
        p = Program("p")
        p.begin_section("a")
        p.emit(Unary(UnaryOp.ZERO, 0))
        p.emit(Unary(UnaryOp.ZERO, 1))
        p.end_section()
        p.begin_section("b")
        p.emit(ShiftRow(0, 0, ShiftDirection.LEFT))
        p.end_section()
        run = ex.run(p)
        assert run.section_cycles == {"a": 2, "b": 1}

    def test_energy_positive_and_consistent(self):
        ex, _ = make_executor()
        p = Program("p")
        p.emit(Unary(UnaryOp.ZERO, 0))
        run = ex.run(p)
        assert run.energy_pj == TECH_45NM.instruction_energy_pj("unary")
        assert run.latency_s(TECH_45NM) == 1 / TECH_45NM.frequency_hz
