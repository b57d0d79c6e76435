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
Each class names its technology-model cost class once, as the class
attribute ``kind`` (``"check"``, ``"shift"``, ...), which is all that
pricing (:func:`repro.sram.executor.profile_program`) reads.
Instructions are never mutated and compare by ``==``, so the compiler
interns them: the programs one engine compiles share one instance per
distinct value (see :meth:`repro.core.layout.DataLayout.intern`).

Operand gating (``gate_operand1``) models the ``m = M or 0`` selection
of Algorithm 2 line 11: wordlines are shared across tiles, so per-tile
conditionality must happen at the sense amplifiers; the predicate latch
masks operand 1 to zero in tiles whose flag is clear.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar, Union


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


@dataclass(frozen=True)
class Check:
    """Latch per-tile predicate flags from one column of ``row``.

    ``bit_index`` selects which bit *within each tile* feeds the flag
    (0 = tile LSB, used for Algorithm 2's LSB test; ``w-1`` = tile MSB,
    used for sign tests).
    """

    kind: ClassVar[str] = "check"
    row: int
    bit_index: int = 0
    invert: bool = False


@dataclass(frozen=True)
class CheckCarry:
    """Load the predicate flags from the per-tile carry-out register.

    The carry-out register accumulates the bits that fell off each tile
    during :class:`CarryStep` latch shifts — i.e. the adder's carry-out,
    which is the >= comparison result needed for conditional subtraction.
    """

    kind: ClassVar[str] = "check"
    invert: bool = False


@dataclass(frozen=True)
class SetFlags:
    """Load the per-tile predicate latch with an immediate mask.

    The CTRL subarray drives the predicate latches directly; this is how
    the compiler restricts gated writebacks to the tiles that own the
    data (spill-mode coefficient stores).
    """

    kind: ClassVar[str] = "check"
    mask: int


@dataclass(frozen=True)
class Unary:
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


@dataclass(frozen=True)
class ShiftRow:
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


@dataclass(frozen=True)
class LogicBinary:
    """Plain two-row logic op written back to ``dst``."""

    kind: ClassVar[str] = "logic"
    op: BinaryOp
    dst: int
    src0: int
    src1: int
    gate_operand1: bool = False


@dataclass(frozen=True)
class BinaryPair:
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


@dataclass(frozen=True)
class CarryStep:
    """Ripple round: c = latch << 1; dst = src ^ c; latch = src & c.

    The latch shift is segmented at tile boundaries; outgoing bits are
    ORed into the per-tile carry-out register (see :class:`CheckCarry`).
    """

    kind: ClassVar[str] = "carry_step"
    dst: int
    src: int


@dataclass(frozen=True)
class SetLatch:
    """Load the SA latch from a row (or clear it with ``row=None``)."""

    kind: ClassVar[str] = "set_latch"
    row: Union[int, None] = None


@dataclass(frozen=True)
class CopyGated:
    """Per-tile conditional copy: tiles with a set flag take ``src``."""

    kind: ClassVar[str] = "copy_gated"
    dst: int
    src: int


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
