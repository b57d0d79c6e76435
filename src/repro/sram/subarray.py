"""The SRAM subarray: storage + peripheral state.

One :class:`SRAMSubarray` is the compute unit of BP-NTT: a grid of 6T
cells (default 256x256, following the ARM Cortex-M0+ class device the
paper sizes against), the sense-amplifier logic, the SA shift latch,
and the small per-tile registers implied by vectored execution:

- ``flags``   — per-tile predicate latch, loaded by *Check*, consumed by
  operand gating and :class:`~repro.sram.isa.CopyGated`;
- ``carry_out`` — per-tile sticky register accumulating bits shifted out
  of each tile's MSB during :class:`~repro.sram.isa.CarryStep`, i.e. the
  adder carry-out used for >= tests.

The subarray is divided into ``cols // tile_width`` tiles of
``tile_width`` columns; each tile is an independent vector lane
processing its own polynomial (Fig 5a).
"""

from __future__ import annotations

from repro.errors import LayoutError, ParameterError
from repro.sram.bitmatrix import BitMatrix
from repro.sram.senseamp import SenseAmpLogic
from repro.utils.bitops import gather_bits, mask, spread_bits


class SRAMSubarray:
    """A compute-enabled SRAM subarray with tile-vector peripherals."""

    def __init__(self, rows: int = 256, cols: int = 256, tile_width: int = 16):
        if tile_width <= 0 or cols % tile_width:
            raise ParameterError(
                f"tile width {tile_width} must divide column count {cols}"
            )
        self.storage = BitMatrix(rows, cols)
        self.logic = SenseAmpLogic(cols)
        self.rows = rows
        self.cols = cols
        self.tile_width = tile_width
        self.num_tiles = cols // tile_width
        self.latch = 0           # SA shift latch contents (one bit per column)
        self.flags = 0           # per-tile predicate latch (one bit per tile)
        self.carry_out = 0       # per-tile sticky carry-out (one bit per tile)
        self._col_mask = mask(cols)
        self._tile_mask = mask(self.num_tiles)
        self._tile_fill = mask(tile_width)
        #: A 1 in the LSB column of every tile (the sense amps' own mask).
        self.lsb_columns = self.logic.segment_lsbs(tile_width)

    # -- tile-addressed data access (host side, not part of programs) ----

    def tile_col_base(self, tile: int) -> int:
        """First column of a tile."""
        if not 0 <= tile < self.num_tiles:
            raise LayoutError(f"tile {tile} out of range [0, {self.num_tiles})")
        return tile * self.tile_width

    def write_word(self, row: int, tile: int, value: int) -> None:
        """Host write of one ``tile_width``-bit word into a tile's row."""
        if value < 0 or value >= (1 << self.tile_width):
            raise LayoutError(
                f"value {value} does not fit in a {self.tile_width}-bit tile word"
            )
        base = self.tile_col_base(tile)
        current = self.storage.read_row(row)
        cleared = current & ~(mask(self.tile_width) << base)
        self.storage.write_row(row, cleared | (value << base))

    def read_word(self, row: int, tile: int) -> int:
        """Host read of one tile word."""
        base = self.tile_col_base(tile)
        return (self.storage.read_row(row) >> base) & mask(self.tile_width)

    def broadcast_word(self, row: int, value: int) -> None:
        """Write the same word into every tile of a row (e.g. the modulus)."""
        for tile in range(self.num_tiles):
            self.write_word(row, tile, value)

    # -- per-tile flag helpers -------------------------------------------

    def expand_flags(self, flags: int) -> int:
        """Expand per-tile flag bits into a full-width column mask.

        Tile ``t``'s flag fills all ``tile_width`` columns of tile ``t``.
        This is the gating mask applied to operand 1 by the predicate
        latch hardware.
        """
        return (spread_bits(flags & self._tile_mask, self.tile_width)
                * self._tile_fill)

    def extract_tile_bits(self, row_value: int, bit_index: int) -> int:
        """Collect bit ``bit_index`` of every tile into a flag vector."""
        if not 0 <= bit_index < self.tile_width:
            raise LayoutError(
                f"bit index {bit_index} out of tile range [0, {self.tile_width})"
            )
        return gather_bits((row_value >> bit_index) & self.lsb_columns,
                           self.tile_width)

    def reset_peripherals(self) -> None:
        """Clear latch, flags and carry-out (program prologue state)."""
        self.latch = 0
        self.flags = 0
        self.carry_out = 0

    def __repr__(self) -> str:
        return (
            f"SRAMSubarray({self.rows}x{self.cols}, "
            f"{self.num_tiles} tiles x {self.tile_width} bits)"
        )
