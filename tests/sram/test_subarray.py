"""Unit tests for SRAMSubarray tile addressing and peripherals."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import LayoutError, ParameterError
from repro.sram.subarray import SRAMSubarray


class TestGeometry:
    def test_tile_width_must_divide_cols(self):
        with pytest.raises(ParameterError):
            SRAMSubarray(16, 30, 8)

    def test_tile_count(self):
        assert SRAMSubarray(256, 256, 16).num_tiles == 16
        assert SRAMSubarray(256, 224, 32).num_tiles == 7

    def test_repr_mentions_tiles(self):
        assert "16 tiles" in repr(SRAMSubarray(256, 256, 16))


class TestWordAccess:
    @given(st.integers(min_value=0, max_value=0xFFFF), st.integers(min_value=0, max_value=15))
    def test_word_roundtrip(self, value, tile):
        sub = SRAMSubarray(8, 256, 16)
        sub.write_word(3, tile, value)
        assert sub.read_word(3, tile) == value

    def test_words_do_not_interfere(self):
        sub = SRAMSubarray(8, 32, 8)
        sub.write_word(0, 0, 0xAA)
        sub.write_word(0, 1, 0x55)
        sub.write_word(0, 2, 0xFF)
        sub.write_word(0, 1, 0x00)  # rewrite middle tile
        assert (sub.read_word(0, 0), sub.read_word(0, 1), sub.read_word(0, 2)) == (
            0xAA, 0x00, 0xFF,
        )

    def test_word_must_fit_tile(self):
        sub = SRAMSubarray(8, 32, 8)
        with pytest.raises(LayoutError):
            sub.write_word(0, 0, 256)

    def test_tile_bounds(self):
        sub = SRAMSubarray(8, 32, 8)
        with pytest.raises(LayoutError):
            sub.write_word(0, 4, 1)
        with pytest.raises(LayoutError):
            sub.tile_col_base(-1)

    def test_broadcast(self):
        sub = SRAMSubarray(8, 32, 8)
        sub.broadcast_word(2, 97)
        assert all(sub.read_word(2, t) == 97 for t in range(4))


def _loop_extract(value, bit_index, cols, tile_width):
    """Per-tile reference: bit ``bit_index`` of each tile, packed."""
    flags = 0
    for tile in range(cols // tile_width):
        if (value >> (tile * tile_width + bit_index)) & 1:
            flags |= 1 << tile
    return flags


def _loop_expand(flags, cols, tile_width):
    """Per-tile reference: each tile's flag fills the tile's columns."""
    expanded = 0
    for tile in range(cols // tile_width):
        if (flags >> tile) & 1:
            expanded |= ((1 << tile_width) - 1) << (tile * tile_width)
    return expanded


@st.composite
def _flag_draws(draw):
    tile_width = draw(st.integers(1, 40))
    cols = tile_width * draw(st.integers(1, 40))
    # Bits past the last tile (value) or the tile count (flags) are ignored.
    value = draw(st.one_of(st.integers(0, (1 << (cols + tile_width)) - 1),
                           st.sampled_from((0, (1 << cols) - 1))))
    flags = draw(st.integers(0, (1 << (cols // tile_width + 3)) - 1))
    return cols, tile_width, value, draw(st.integers(0, tile_width - 1)), flags


class TestFlagHelpers:
    def test_expand_flags(self):
        sub = SRAMSubarray(8, 32, 8)
        assert sub.expand_flags(0b0101) == 0x00FF00FF

    def test_extract_tile_bits(self):
        sub = SRAMSubarray(8, 32, 8)
        # LSB of tiles 0 and 2 set
        value = 1 | (1 << 16)
        assert sub.extract_tile_bits(value, 0) == 0b0101
        assert sub.extract_tile_bits(value << 7, 7) == 0b0101

    def test_extract_bounds(self):
        sub = SRAMSubarray(8, 32, 8)
        with pytest.raises(LayoutError):
            sub.extract_tile_bits(0, 8)

    @given(_flag_draws())
    def test_masks_equal_the_per_tile_loop(self, draw):
        cols, tile_width, value, bit_index, flags = draw
        sub = SRAMSubarray(4, cols, tile_width)
        assert sub.extract_tile_bits(value, bit_index) == _loop_extract(
            value, bit_index, cols, tile_width)
        assert sub.expand_flags(flags) == _loop_expand(flags, cols, tile_width)
        assert sub.lsb_columns == _loop_expand(
            (1 << cols // tile_width) - 1, cols, tile_width) // ((1 << tile_width) - 1)

    def test_reset_peripherals(self):
        sub = SRAMSubarray(8, 32, 8)
        sub.latch = 5
        sub.flags = 3
        sub.carry_out = 1
        sub.reset_peripherals()
        assert (sub.latch, sub.flags, sub.carry_out) == (0, 0, 0)
