"""Unit tests for the sense-amplifier combinational model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.sram.senseamp import SenseAmpLogic

W = 16
vals = st.integers(min_value=0, max_value=(1 << W) - 1)


class TestLogic:
    def test_cols_positive(self):
        with pytest.raises(ParameterError):
            SenseAmpLogic(0)

    @given(vals, vals)
    def test_truth_tables(self, a, b):
        sa = SenseAmpLogic(W)
        m = (1 << W) - 1
        assert sa.logic_and(a, b) == a & b
        assert sa.logic_or(a, b) == a | b
        assert sa.logic_nor(a, b) == (~(a | b)) & m
        assert sa.logic_xor(a, b) == a ^ b

    @given(vals, vals)
    def test_xor_composed_from_and_nor(self, a, b):
        # Fig 3(b): XOR = NOR(AND(a,b), NOR(a,b)).
        sa = SenseAmpLogic(W)
        assert sa.logic_xor(a, b) == sa.logic_nor(sa.logic_and(a, b), sa.logic_nor(a, b))


class TestSegmentedShift:
    def test_unsegmented_left(self):
        sa = SenseAmpLogic(8)
        r = sa.shift_segmented(0b1100_0001, left=True, segment=0)
        assert r.value == 0b1000_0010
        assert r.out_bits == 1  # MSB fell off

    def test_unsegmented_right(self):
        sa = SenseAmpLogic(8)
        r = sa.shift_segmented(0b0000_0011, left=False, segment=0)
        assert r.value == 0b0000_0001
        assert r.out_bits == 1  # LSB fell off

    def test_segmented_left_zero_fill_at_boundaries(self):
        sa = SenseAmpLogic(8)
        # two 4-bit tiles: 1000 | 1001
        r = sa.shift_segmented(0b1000_1001, left=True, segment=4)
        assert r.value == 0b0000_0010  # tile MSBs discarded, not propagated
        assert r.out_bits == 0b11      # one out bit per tile

    def test_segmented_right(self):
        sa = SenseAmpLogic(8)
        r = sa.shift_segmented(0b0001_0011, left=False, segment=4)
        assert r.value == 0b0000_0001
        assert r.out_bits == 0b11

    def test_segment_must_divide_cols(self):
        sa = SenseAmpLogic(8)
        with pytest.raises(ParameterError):
            sa.shift_segmented(0, True, 3)
        with pytest.raises(ParameterError):
            sa.shift_segmented(0, True, -1)

    @given(vals)
    def test_left_then_right_loses_only_edge_bits(self, v):
        sa = SenseAmpLogic(W)
        seg = 4
        once = sa.shift_segmented(v, True, seg).value
        back = sa.shift_segmented(once, False, seg).value
        # Round trip clears each tile's MSB (lost on the left shift).
        expected = 0
        for t in range(W // seg):
            chunk = (v >> (t * seg)) & 0xF
            expected |= (chunk & 0b0111) << (t * seg)
        assert back == expected

    @given(vals)
    def test_segmented_equals_per_tile_shift(self, v):
        sa = SenseAmpLogic(W)
        r = sa.shift_segmented(v, True, 8)
        lo, hi = v & 0xFF, v >> 8
        assert r.value == (((hi << 1) & 0xFF) << 8) | ((lo << 1) & 0xFF)
        assert r.out_bits == ((hi >> 7) << 1) | (lo >> 7)


def _loop_shift(value, left, cols, segment):
    """The per-tile reference: cut each segment out, shift it, put it back."""
    seg_mask = (1 << segment) - 1
    shifted = out_bits = 0
    for tile in range(cols // segment):
        chunk = (value >> (tile * segment)) & seg_mask
        if left:
            out, chunk = chunk >> (segment - 1), (chunk << 1) & seg_mask
        else:
            out, chunk = chunk & 1, chunk >> 1
        shifted |= chunk << (tile * segment)
        out_bits |= out << tile
    return shifted, out_bits


@st.composite
def _shift_draws(draw):
    segment = draw(st.integers(1, 40))
    cols = segment * draw(st.integers(1, 16))
    value = draw(st.one_of(
        st.integers(0, (1 << cols) - 1),
        st.sampled_from((0, (1 << cols) - 1)),
        # One bit set per segment, at the edge the shift drops.
        st.sampled_from((sum(1 << c for c in range(0, cols, segment)),
                         sum(1 << c for c in range(segment - 1, cols, segment))))))
    return cols, segment, value, draw(st.booleans())


class TestSegmentedShiftAgainstLoop:
    @given(_shift_draws())
    def test_mask_shift_equals_per_tile_loop(self, draw):
        cols, segment, value, left = draw
        result = SenseAmpLogic(cols).shift_segmented(value, left, segment)
        assert (result.value, result.out_bits) == _loop_shift(
            value, left, cols, segment)
