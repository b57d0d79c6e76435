"""Sense-amplifier model (Fig 5b).

The paper modifies the conventional SA to support, per column:

- the bitline logic results AND / NOR of the activated rows (Fig 3a),
  from which OR and XOR are composed with an inverter and a NOR gate
  (Fig 3b),
- a MUX + latch implementing a 1-bit bidirectional shift,
- (modeled here, implied by the Fig 4d ``Check`` instruction and the
  multi-tile vector operation) a small per-tile predicate latch used to
  gate one operand — this is how ``m = M or 0`` is selected per tile
  even though wordlines are shared across all tiles.

This module is purely combinational; the stateful latch lives in
:class:`~repro.sram.subarray.SRAMSubarray`.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ParameterError
from repro.utils.bitops import gather_bits, mask, spread_bits


class SenseAmpLogic:
    """Combinational bitline logic over ``cols`` columns."""

    def __init__(self, cols: int):
        if cols <= 0:
            raise ParameterError(f"column count must be positive, got {cols}")
        self.cols = cols
        self._mask = mask(cols)
        # segment width -> a 1 in the LSB column of every segment
        self._segment_lsbs: Dict[int, int] = {}

    def logic_and(self, a: int, b: int) -> int:
        """Bitline AND (all activated cells '1')."""
        return a & b & self._mask

    def logic_nor(self, a: int, b: int) -> int:
        """Bitline NOR (all activated cells '0')."""
        return (~(a | b)) & self._mask

    def logic_or(self, a: int, b: int) -> int:
        """OR = inverted NOR (the extra inverter in Fig 5b)."""
        return (a | b) & self._mask

    def logic_xor(self, a: int, b: int) -> int:
        """XOR = NOR(AND, NOR) per Fig 3(b)."""
        return self.logic_nor(self.logic_and(a, b), self.logic_nor(a, b))

    def segment_lsbs(self, segment: int) -> int:
        """A 1 in the LSB column of every ``segment``-wide segment."""
        lsb = self._segment_lsbs.get(segment)
        if lsb is None:
            lsb = self._segment_lsbs[segment] = spread_bits(
                mask(self.cols // segment), segment)
        return lsb

    def shift_segmented(self, value: int, left: bool, segment: int) -> "ShiftResult":
        """Shift by one bit with zero fill at segment boundaries.

        ``segment`` is the tile width configured in the CTRL subarray;
        bits never cross a tile boundary — the bit that would leave each
        segment is captured and returned so the executor can maintain
        per-tile carry-out flags (used for >=-comparisons).

        ``segment == 0`` means an unsegmented, array-wide shift (used to
        merge coefficients that spill into an adjacent tile).

        The whole row shifts at once: the columns whose bit would leave
        its segment (every segment's MSB on a left shift, its LSB on a
        right one) are masked off first, so no bit crosses a boundary.
        """
        if segment < 0 or (segment and self.cols % segment):
            raise ParameterError(
                f"segment width {segment} must divide column count {self.cols}"
            )
        if segment == 0:
            if left:
                shifted = (value << 1) & self._mask
                out_bits = value >> (self.cols - 1)
            else:
                shifted = value >> 1
                out_bits = value & 1
            return ShiftResult(shifted, out_bits)
        lsb = self._segment_lsbs.get(segment) or self.segment_lsbs(segment)
        if left:
            edge = value & (lsb << (segment - 1))
            return ShiftResult(((value & self._mask) ^ edge) << 1,
                               edge=edge >> (segment - 1), segment=segment)
        edge = value & lsb
        return ShiftResult(((value & self._mask) ^ edge) >> 1,
                           edge=edge, segment=segment)


class ShiftResult:
    """A shifted row plus the per-segment bits that fell off the edge.

    ``out_bits`` holds segment ``t``'s lost bit at bit ``t``.  A
    segmented shift keeps those bits at their segments' LSB columns
    (``edge``) and packs them only when ``out_bits`` is read, which
    only a carry step does.
    """

    __slots__ = ("value", "_out_bits", "_edge", "_segment")

    def __init__(self, value: int, out_bits: int = 0, *, edge: int = 0,
                 segment: int = 0):
        self.value = value
        self._out_bits = out_bits
        self._edge = edge
        self._segment = segment

    @property
    def out_bits(self) -> int:
        if not self._edge:
            return self._out_bits
        return self._out_bits | gather_bits(self._edge, self._segment)

    def __repr__(self) -> str:
        return f"ShiftResult(value={self.value:#x}, out_bits={self.out_bits:#x})"
