"""Disassembler and tracing-executor tests."""

import hashlib

import pytest

from repro.core.engine import BPNTTEngine
from repro.core.layout import DataLayout
from repro.core.modmul import emit_modmul
from repro.errors import ParameterError
from repro.ntt.params import get_params
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
from repro.sram.tracer import TracingExecutor, disassemble, format_instruction


class TestFormatInstruction:
    @pytest.mark.parametrize(
        "instruction,expect",
        [
            (Check(5, bit_index=0), "check  r5[0]"),
            (Check(5, bit_index=3, invert=True), "check  !r5[3]"),
            (CheckCarry(), "checkc carry_out"),
            (SetFlags(0b101), "flags  0x5"),
            (Unary(UnaryOp.NOT, 1, 2, set_lsb=True), "not    r1 <- r2+lsb"),
            (ShiftRow(1, 2, ShiftDirection.LEFT), "shift  r1 <- r2 left/seg"),
            (
                ShiftRow(1, 2, ShiftDirection.RIGHT, segmented=False),
                "shift  r1 <- r2 right/arr",
            ),
            (LogicBinary(BinaryOp.XOR, 3, 1, 2), "xor    r3 <- r1, r2"),
            (
                LogicBinary(BinaryOp.AND, 3, 1, 2, gate_operand1=True),
                "and    r3 <- r1, r2?",
            ),
            (BinaryPair(3, 1, 2, carry_in=True), "pair   r3 <- r1, r2+cin"),
            (CarryStep(3, 3), "cstep  r3 <- r3, latch<<1"),
            (CopyGated(4, 5), "cpgate r4 <- r5 ?flags"),
            (SetLatch(None), "latch  <- 0"),
            (SetLatch(4), "latch  <- r4"),
        ],
    )
    def test_renderings(self, instruction, expect):
        assert format_instruction(instruction) == expect

    def test_unknown_rejected(self):
        with pytest.raises(ParameterError):
            format_instruction("nope")


class TestDisassemble:
    def _program(self):
        layout = DataLayout(16, 32, 8, order=1)
        prog = Program("demo")
        emit_modmul(prog, layout, 5, 0)
        return prog

    def test_full_listing(self):
        prog = self._program()
        text = disassemble(prog)
        assert f"{len(prog)} instructions" in text
        assert ".modmul:" in text
        assert text.count("\n") >= len(prog)

    def test_truncation(self):
        prog = self._program()
        text = disassemble(prog, limit=5)
        assert "more)" in text
        assert f"({len(prog) - 5} more" in text

    def test_compiled_listing_bytes(self):
        """Byte oracle: the listings of table1-14bit's ntt, intt and one
        pointwise program hash to the value the compiler and the
        per-class renderings have always produced."""
        params = get_params("table1-14bit")
        engine = BPNTTEngine(params, width=16)
        operand = [(3 * i + 1) % params.q for i in range(params.n)]
        digest = hashlib.sha256()
        for program in (engine.compiled_program("ntt"),
                        engine.compiled_program("intt"),
                        engine.pointwise_program(operand)):
            digest.update(disassemble(program).encode() + b"\n")
        assert digest.hexdigest() == (
            "f23b952d0dbb70f207a6903062f9bbcb12aa10952cae0c4a985ce90239cc06d9")


class TestTracingExecutor:
    def test_records_changed_rows(self):
        sub = SRAMSubarray(8, 16, 8)
        ex = TracingExecutor(sub)
        sub.storage.write_row(0, 0xAA)
        ex.execute(Unary(UnaryOp.COPY, 1, 0))
        entry = ex.trace[-1]
        assert entry.changed_rows == (1,)
        assert "copy" in entry.text

    def test_no_change_is_empty_tuple(self):
        sub = SRAMSubarray(8, 16, 8)
        ex = TracingExecutor(sub)
        ex.execute(Unary(UnaryOp.ZERO, 0))  # row already zero
        assert ex.trace[-1].changed_rows == ()

    def test_ring_buffer_bounded(self):
        sub = SRAMSubarray(8, 16, 8)
        ex = TracingExecutor(sub, capacity=4)
        for i in range(10):
            ex.execute(SetFlags(i % 3))
        assert len(ex.trace) == 4
        assert ex.trace[-1].index == 9

    def test_capacity_validated(self):
        with pytest.raises(ParameterError):
            TracingExecutor(SRAMSubarray(8, 16, 8), capacity=0)

    def test_stats_still_counted(self):
        sub = SRAMSubarray(8, 16, 8)
        ex = TracingExecutor(sub)
        prog = Program("p")
        prog.emit(Unary(UnaryOp.ZERO, 0))
        prog.emit(ShiftRow(0, 0, ShiftDirection.LEFT))
        run = ex.run(prog)
        assert run.cycles == 2
        assert run.shift_count == 1

    def test_format_trace(self):
        sub = SRAMSubarray(8, 16, 8)
        ex = TracingExecutor(sub)
        ex.execute(SetFlags(1))
        ex.execute(Unary(UnaryOp.ZERO, 2))
        text = ex.format_trace()
        assert "flags" in text and "latch" in text
        assert text.count("\n") == 1
