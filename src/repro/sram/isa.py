"""The BP-NTT instruction set (Fig 4d).

The paper encodes four instruction classes streamed from the CTRL/CMD
subarray: *Check*, *Unary*, *Shift* and *Binary*.  This module keeps
that taxonomy but splits *Binary* into the concrete micro-operations the
modified sense amplifier supports, because cycle and energy accounting
differ:

- :class:`LogicBinary`   — plain two-row AND/OR/XOR/NOR to a row.
- :class:`BinaryPair`    — two-row activation writing XOR to a row while
  parking AND in the SA shift latch (both polarities are sensed in the
  same activation per Fig 3b; the latch is the Fig 5b addition).  This
  is the half-adder step of the paper's carry-save arithmetic.
- :class:`CarryStep`     — one ripple round: the latch is shifted left
  one bit and combined with a row (XOR back to the row, AND into the
  latch).  Repeating it ``w-1`` times completes a w-bit addition.
- :class:`CopyGated`     — a row write masked by the per-tile predicate
  flags (the Fig 4d *Check* consumer): per-tile select.

Every instruction is a frozen dataclass; programs are plain sequences.
Each class declares every per-class fact once, here: ``kind``, its
technology-model cost class (``"check"``, ``"shift"``, ...), all that
pricing (:func:`repro.sram.executor.profile_program`) reads;
``reads()``/``writes()``, the rows it reads (before its own writeback)
and writes, the dataflow :func:`repro.check.program.check_program`
verifies; ``text()``, its disassembly line; and ``run(sub)``, the
interpreter step, which changes an
:class:`~repro.sram.subarray.SRAMSubarray`'s storage and peripheral
state (``flags``, ``latch``, ``carry_out``) as the hardware would.
Instructions are never mutated and compare by ``==``, so the compiler
interns them: the programs one engine compiles share one instance per
distinct value (see :meth:`repro.core.layout.DataLayout.intern`).

Operand gating (``gate_operand1``) models the ``m = M or 0`` selection
of Algorithm 2 line 11: wordlines are shared across tiles, so per-tile
conditionality must happen at the sense amplifiers; the predicate latch
masks operand 1 to zero in tiles whose flag is clear.

One instruction, end to end:

>>> from repro.sram.subarray import SRAMSubarray
>>> sub = SRAMSubarray(rows=4, cols=8, tile_width=4)
>>> sub.storage.write_row(0, 0b1100_1010)
>>> sub.storage.write_row(1, 0b1010_0110)
>>> xor = LogicBinary(BinaryOp.XOR, dst=2, src0=0, src1=1)
>>> xor.reads(), xor.writes(), xor.kind
((0, 1), (2,), 'logic')
>>> xor.text()
'xor    r2 <- r0, r1'
>>> xor.run(sub)
>>> bin(sub.storage.read_row(2))
'0b1101100'
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Tuple, Union

from repro.sram.senseamp import SenseAmpLogic

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.sram.subarray import SRAMSubarray


class BinaryOp(enum.Enum):
    """Two-operand bitline logic operations."""

    AND = "and"
    OR = "or"
    XOR = "xor"
    NOR = "nor"


class UnaryOp(enum.Enum):
    """Single-operand operations."""

    COPY = "copy"
    NOT = "not"
    ZERO = "zero"


class ShiftDirection(enum.Enum):
    """1-bit shift directions of the Fig 5b MUX."""

    LEFT = "left"
    RIGHT = "right"


#: The sense-amp output each two-row logic op selects.
_SENSE = {
    BinaryOp.AND: SenseAmpLogic.logic_and,
    BinaryOp.OR: SenseAmpLogic.logic_or,
    BinaryOp.XOR: SenseAmpLogic.logic_xor,
    BinaryOp.NOR: SenseAmpLogic.logic_nor,
}


class _Instruction:
    """Field-less base: unless its class says otherwise, an instruction
    reads (before its own writeback) and writes no row."""

    __slots__ = ()

    def reads(self) -> Tuple[int, ...]:
        return ()

    def writes(self) -> Tuple[int, ...]:
        return ()


@dataclass(frozen=True)
class Check(_Instruction):
    """Latch per-tile predicate flags from one column of ``row``.

    ``bit_index`` selects which bit *within each tile* feeds the flag
    (0 = tile LSB, used for Algorithm 2's LSB test; ``w-1`` = tile MSB,
    used for sign tests).
    """

    kind: ClassVar[str] = "check"
    row: int
    bit_index: int = 0
    invert: bool = False

    def reads(self) -> Tuple[int, ...]:
        return (self.row,)

    def text(self) -> str:
        return f"check  {'!' if self.invert else ''}r{self.row}[{self.bit_index}]"

    def run(self, sub: SRAMSubarray) -> None:
        flags = sub.extract_tile_bits(sub.storage.read_row(self.row), self.bit_index)
        if self.invert:
            flags = (~flags) & ((1 << sub.num_tiles) - 1)
        sub.flags = flags


@dataclass(frozen=True)
class CheckCarry(_Instruction):
    """Load the predicate flags from the per-tile carry-out register.

    The carry-out register accumulates the bits that fell off each tile
    during :class:`CarryStep` latch shifts — i.e. the adder's carry-out,
    which is the >= comparison result needed for conditional subtraction.
    """

    kind: ClassVar[str] = "check"
    invert: bool = False

    def text(self) -> str:
        return f"checkc {'!' if self.invert else ''}carry_out"

    def run(self, sub: SRAMSubarray) -> None:
        flags = sub.carry_out
        if self.invert:
            flags = (~flags) & ((1 << sub.num_tiles) - 1)
        sub.flags = flags
        sub.carry_out = 0


@dataclass(frozen=True)
class SetFlags(_Instruction):
    """Load the per-tile predicate latch with an immediate mask.

    The CTRL subarray drives the predicate latches directly; this is how
    the compiler restricts gated writebacks to the tiles that own the
    data (spill-mode coefficient stores).
    """

    kind: ClassVar[str] = "check"
    mask: int

    def text(self) -> str:
        return f"flags  {self.mask:#x}"

    def run(self, sub: SRAMSubarray) -> None:
        sub.flags = self.mask & ((1 << sub.num_tiles) - 1)


@dataclass(frozen=True)
class Unary(_Instruction):
    """Copy / invert / clear a row.

    ``set_lsb=True`` additionally forces each tile's LSB column to 1 in
    the written value.  Combined with NOT this produces the two's
    complement of an odd value in a single instruction (``~M | 1 ==
    ~M + 1`` exactly when M is odd) — the negated-modulus constant used
    by conditional subtraction.
    """

    kind: ClassVar[str] = "unary"
    op: UnaryOp
    dst: int
    src: int = 0
    set_lsb: bool = False

    def reads(self) -> Tuple[int, ...]:
        return () if self.op is UnaryOp.ZERO else (self.src,)

    def writes(self) -> Tuple[int, ...]:
        return (self.dst,)

    def text(self) -> str:
        lsb = "+lsb" if self.set_lsb else ""
        return f"{self.op.value:<6} r{self.dst} <- r{self.src}{lsb}"

    def run(self, sub: SRAMSubarray) -> None:
        op = self.op
        if op is UnaryOp.ZERO:
            out = 0
        else:
            out = sub.storage.read_row(self.src)
            if op is UnaryOp.NOT:
                out = (~out) & ((1 << sub.cols) - 1)
        if self.set_lsb:
            out |= sub.lsb_columns
        sub.storage.write_row(self.dst, out)


@dataclass(frozen=True)
class ShiftRow(_Instruction):
    """Read ``src``, shift the latched value one bit, write ``dst``.

    ``segmented=True`` (default) stops bits at tile boundaries with zero
    fill — safe for Algorithm 2 thanks to its two observations (the bit
    that would cross is always 0).  ``segmented=False`` is the array-wide
    shift used to merge polynomial coefficients spilling across tiles.
    """

    kind: ClassVar[str] = "shift"
    dst: int
    src: int
    direction: ShiftDirection
    segmented: bool = True

    def reads(self) -> Tuple[int, ...]:
        return (self.src,)

    def writes(self) -> Tuple[int, ...]:
        return (self.dst,)

    def text(self) -> str:
        seg = "seg" if self.segmented else "arr"
        return f"shift  r{self.dst} <- r{self.src} {self.direction.value}/{seg}"

    def run(self, sub: SRAMSubarray) -> None:
        storage = sub.storage
        segment = sub.tile_width if self.segmented else 0
        result = sub.logic.shift_segmented(
            storage.read_row(self.src), self.direction is ShiftDirection.LEFT, segment)
        storage.write_row(self.dst, result.value)


@dataclass(frozen=True)
class LogicBinary(_Instruction):
    """Plain two-row logic op written back to ``dst``."""

    kind: ClassVar[str] = "logic"
    op: BinaryOp
    dst: int
    src0: int
    src1: int
    gate_operand1: bool = False

    def reads(self) -> Tuple[int, ...]:
        return (self.src0, self.src1)

    def writes(self) -> Tuple[int, ...]:
        return (self.dst,)

    def text(self) -> str:
        gate = "?" if self.gate_operand1 else ""
        return f"{self.op.value:<6} r{self.dst} <- r{self.src0}, r{self.src1}{gate}"

    def run(self, sub: SRAMSubarray) -> None:
        storage = sub.storage
        a = storage.read_row(self.src0)
        b = storage.read_row(self.src1)
        if self.gate_operand1:
            b &= sub.expand_flags(sub.flags)
        storage.write_row(self.dst, _SENSE[self.op](sub.logic, a, b))


@dataclass(frozen=True)
class BinaryPair(_Instruction):
    """Half-adder step: XOR(src0, src1) -> dst_xor, AND -> SA latch.

    ``carry_in=True`` turns each tile's bit 0 into a full-adder position
    with carry-in 1 (the written LSB is inverted and the latch LSB takes
    OR instead of AND polarity) — a single control signal that provides
    the ``+1`` of two's-complement subtraction.
    """

    kind: ClassVar[str] = "pair"
    dst_xor: int
    src0: int
    src1: int
    gate_operand1: bool = False
    carry_in: bool = False

    def reads(self) -> Tuple[int, ...]:
        return (self.src0, self.src1)

    def writes(self) -> Tuple[int, ...]:
        return (self.dst_xor,)

    def text(self) -> str:
        gate = "?" if self.gate_operand1 else ""
        cin = "+cin" if self.carry_in else ""
        return f"pair   r{self.dst_xor} <- r{self.src0}, r{self.src1}{gate}{cin}"

    def run(self, sub: SRAMSubarray) -> None:
        storage = sub.storage
        logic = sub.logic
        a = storage.read_row(self.src0)
        b = storage.read_row(self.src1)
        if self.gate_operand1:
            b &= sub.expand_flags(sub.flags)
        xor_out = logic.logic_xor(a, b)
        and_out = logic.logic_and(a, b)
        if self.carry_in:
            # Bit 0 of every tile becomes a full-adder position with
            # carry-in 1: sum LSB flips, latch LSB takes OR polarity.
            lsb = sub.lsb_columns
            xor_out ^= lsb
            and_out = (and_out & ~lsb) | (logic.logic_or(a, b) & lsb)
        storage.write_row(self.dst_xor, xor_out)
        sub.latch = and_out
        sub.carry_out = 0


@dataclass(frozen=True)
class CarryStep(_Instruction):
    """Ripple round: c = latch << 1; dst = src ^ c; latch = src & c.

    The latch shift is segmented at tile boundaries; outgoing bits are
    ORed into the per-tile carry-out register (see :class:`CheckCarry`).
    """

    kind: ClassVar[str] = "carry_step"
    dst: int
    src: int

    def reads(self) -> Tuple[int, ...]:
        return (self.src,)

    def writes(self) -> Tuple[int, ...]:
        return (self.dst,)

    def text(self) -> str:
        return f"cstep  r{self.dst} <- r{self.src}, latch<<1"

    def run(self, sub: SRAMSubarray) -> None:
        storage = sub.storage
        logic = sub.logic
        shifted = logic.shift_segmented(sub.latch, True, sub.tile_width)
        sub.carry_out |= shifted.out_bits
        row = storage.read_row(self.src)
        storage.write_row(self.dst, logic.logic_xor(row, shifted.value))
        sub.latch = logic.logic_and(row, shifted.value)


@dataclass(frozen=True)
class SetLatch(_Instruction):
    """Load the SA latch from a row (or clear it with ``row=None``)."""

    kind: ClassVar[str] = "set_latch"
    row: Union[int, None] = None

    def reads(self) -> Tuple[int, ...]:
        return () if self.row is None else (self.row,)

    def text(self) -> str:
        return f"latch  <- {'0' if self.row is None else f'r{self.row}'}"

    def run(self, sub: SRAMSubarray) -> None:
        sub.latch = 0 if self.row is None else sub.storage.read_row(self.row)


@dataclass(frozen=True)
class CopyGated(_Instruction):
    """Per-tile conditional copy: tiles with a set flag take ``src``."""

    kind: ClassVar[str] = "copy_gated"
    dst: int
    src: int

    def reads(self) -> Tuple[int, ...]:
        # Read-modify-write: unselected tiles keep the current dst bits.
        return (self.src, self.dst)

    def writes(self) -> Tuple[int, ...]:
        return (self.dst,)

    def text(self) -> str:
        return f"cpgate r{self.dst} <- r{self.src} ?flags"

    def run(self, sub: SRAMSubarray) -> None:
        storage = sub.storage
        gate = sub.expand_flags(sub.flags)
        current = storage.read_row(self.dst)
        incoming = storage.read_row(self.src)
        storage.write_row(self.dst, (current & ~gate) | (incoming & gate))


Instruction = Union[
    Check,
    CheckCarry,
    SetFlags,
    Unary,
    ShiftRow,
    LogicBinary,
    BinaryPair,
    CarryStep,
    SetLatch,
    CopyGated,
]
