"""The energy total of ``profile_program`` has the bits of the plain fold.

``profile_program`` adds whole runs of blocks as one integer count of
ulps per binade (``repro.sram.executor._fold_energy``).  The property
below holds it to the definition, ``reduce(add)`` over the program's
per-instruction energies from ``0.0`` in program order, compared by
``repr``.  The run cut-off is patched down so that short draws take the
integer sums too.  Energies include ``0.0``, dyadic values (so ties
happen), subnormals, values near the top of the float range and the
shipped 45 nm table, and the sums cross many binades.

The ``@example`` cases pin two guards of the fast path: a tie, and a
run whose ulp total lands exactly on the top of the last binade.
"""

import itertools
import math
import random
from functools import reduce
from operator import add
from unittest.mock import patch

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sram import executor, isa
from repro.sram.energy import DEFAULT_ENERGY_PJ, TechnologyModel
from repro.sram.executor import profile_program
from repro.sram.program import Program

#: One instruction of each cost class a compiled program uses.
INSTRUCTIONS = {
    "logic": isa.LogicBinary(isa.BinaryOp.XOR, dst=2, src0=0, src1=1),
    "pair": isa.BinaryPair(dst_xor=2, src0=0, src1=1),
    "carry_step": isa.CarryStep(dst=2, src=1),
    "shift": isa.ShiftRow(dst=1, src=0, direction=isa.ShiftDirection.LEFT),
    "unary": isa.Unary(isa.UnaryOp.NOT, dst=1, src=0),
    "check": isa.Check(row=0),
    "copy_gated": isa.CopyGated(dst=1, src=0),
    "set_latch": isa.SetLatch(row=0),
}
KINDS = tuple(INSTRUCTIONS)

SPECIAL_ENERGIES = (
    0.0, 1.0, 0.5, 0.25, 2.0 ** -10, 3 * 2.0 ** -10, 3 * 2.0 ** -40,
    2.0 ** -53, 2.0 ** 52, 2.0 ** 53, 5e-324, 2.0 ** -1030, 2.0 ** -1000,
    1e300, 2.0 ** 1020, 2.0 ** 1021, 2.0 ** 1022, 0.625 * 2.0 ** 971,
    *DEFAULT_ENERGY_PJ.values(),
)


def energies(scale):
    """Special values, any finite float, or a small odd multiple of a
    power of two near ``scale`` or about 2^52 above it: a table mixing
    those puts the small ones at half an ulp once the sum is large."""
    return st.one_of(
        st.sampled_from(SPECIAL_ENERGIES),
        st.floats(min_value=0.0, max_value=1e300, allow_nan=False,
                  allow_infinity=False),
        st.builds(math.ldexp, st.sampled_from((1.0, 3.0, 5.0)),
                  st.sampled_from((0, 1, 2, 51, 52, 53)).map(scale.__add__)),
    )


@st.composite
def programs(draw):
    """(energy per kind, block shapes as kind tuples, references, cut-off)."""
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=8,
                          unique=True))
    scale = draw(st.integers(-1000, 960))
    table = {kind: draw(energies(scale)) for kind in kinds}
    shapes = draw(st.lists(
        st.lists(st.sampled_from(kinds), min_size=1, max_size=24).map(tuple),
        min_size=1, max_size=12))
    length = draw(st.integers(0, 10_000))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    # Runs of one shape, as emitters make them, mixed with single picks.
    references = []
    while len(references) < length:
        shape = rng.randrange(len(shapes))
        references += [shape] * rng.choice((1, 1, 2, 8, 64))
    references = references[:length]
    if len(kinds) >= 3 and draw(st.booleans()):
        # Ties: one leading 2^(scale+53) lifts the sum to where an odd
        # multiple of 2^scale is half an ulp, and odd multiples of
        # 2^(scale+1) make the sum's ulp count odd.
        jump, even, half = kinds[:3]
        odd = st.sampled_from((1.0, 3.0, 5.0))
        table.update({jump: math.ldexp(1.0, scale + 53),
                      even: math.ldexp(draw(odd), scale + 1),
                      half: math.ldexp(draw(odd), scale)})
        shapes = [(jump,)] + [tuple(kind for kind in shape if kind != jump)
                              or (even,) for shape in shapes]
        references = [0] + [index + 1 for index in references]
    return table, shapes, references, draw(st.integers(1, 8))


def build(table, shapes, references):
    tech = TechnologyModel(energy_pj={**DEFAULT_ENERGY_PJ, **table})
    blocks = [tuple(INSTRUCTIONS[kind] for kind in shape) for shape in shapes]
    program = Program("fold")
    for index in references:
        program.extend(blocks[index])  # a tuple: appended by reference
    return program, tech


@settings(max_examples=300, deadline=None)
@given(programs())
# A tie: 1.0 is half an ulp of [2^53, 2^54), and 2^53 + 2 is odd in ulps.
@example((
    {"logic": 2.0 ** 53, "pair": 2.0, "unary": 1.0},
    [("logic",), ("pair",), ("unary",)], [0, 1] + [2] * 6 + [1, 2] * 5, 1))
# Eight times 2^1021: the last run of [2^1023, 2^1024) would end exactly
# on 2^1024, which the plain fold rounds to inf.
@example(({"logic": 2.0 ** 1021}, [("logic",)], [0] * 8, 1))
def test_fold_has_the_bits_of_the_left_to_right_sum(case):
    table, shapes, references, cut_off = case
    program, tech = build(table, shapes, references)
    expected = reduce(add, (tech.energy_pj[instruction.kind]
                            for instruction in program), 0.0)
    with patch.object(executor, "ULP_RUN_MIN_BLOCKS", cut_off):
        stats = profile_program(program, tech)
    assert repr(stats.energy_pj) == repr(expected)
    assert stats.instructions == len(program)


def test_long_programs_take_the_integer_sums():
    """A 45 nm program past the cut-off prices exactly, without patching."""
    table = {kind: DEFAULT_ENERGY_PJ[kind] for kind in KINDS}
    shapes = [KINDS[:k] for k in range(1, len(KINDS) + 1)]
    rng = random.Random(7)
    references = [rng.randrange(len(shapes)) for _ in range(
        4 * executor.ULP_RUN_MIN_BLOCKS)] * 16
    program, tech = build(table, shapes, references)
    expected = reduce(add, (tech.energy_pj[instruction.kind]
                            for instruction in program), 0.0)
    with patch.object(executor, "_shape_ulps",
                      wraps=executor._shape_ulps) as binade:
        assert repr(profile_program(program, tech).energy_pj) == repr(expected)
    assert binade.called


def test_more_than_256_shapes_take_the_plain_fold():
    """Shape codes no longer fit a byte: uses are counted from a list."""
    table = {kind: DEFAULT_ENERGY_PJ[kind] for kind in KINDS}
    shapes = list(itertools.product(KINDS, repeat=3))[:300]
    rng = random.Random(11)
    references = [rng.randrange(len(shapes)) for _ in range(3000)]
    program, tech = build(table, shapes, references)
    expected = reduce(add, (tech.energy_pj[instruction.kind]
                            for instruction in program), 0.0)
    stats = profile_program(program, tech)
    assert repr(stats.energy_pj) == repr(expected)
    assert sum(stats.op_counts.values()) == stats.instructions == len(program)


def test_a_binade_with_a_tie_or_an_inexact_quotient_has_no_ulp_counts():
    """``_shape_ulps`` leaves such a binade to the plain fold.

    ``_fold_energy`` asks only for binades with room for many mean
    blocks, where no quotient overflows; the helper's own contract is
    held here.
    """
    mixes = [[(1.0, 2), (0.25, 1)]]
    assert executor._shape_ulps(mixes, 0.25) == [9]
    assert executor._shape_ulps(mixes, 2.0) is None  # 1.0 / 2.0 is a tie
    assert executor._shape_ulps([[(1e300, 1)]], 2.0 ** -1052) is None
