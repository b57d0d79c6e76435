"""Generated rings: the compiler is correct and its static price is exact.

A ``hypothesis`` strategy draws an NTT-friendly modulus
(``find_ntt_prime`` from a drawn start), a ring of 8, 16 or 32 points,
a container width from ``container_width(q)`` upward, and a subarray
geometry that either holds each polynomial in one tile or spills it
across several.  For the ``ntt``, ``intt`` and ``polymul`` kernels of
every draw:

- every compiled program passes ``check_program`` (PROG001-012);
- executing the programs on the subarray gives the gold transform;
- ``profile_program`` (which is also what ``Executor.run`` reports)
  equals an independent reference price field for field, dict key
  order included and energy float-for-float: a loop over the program
  charging each instruction its class's cycles and pJ in program order,
  with section spans read off the cumulative cycle count.  It is
  checked under the default technology, where every class costs one
  cycle, and under one whose classes cost different cycle counts;
- the engine's memoized ``profile`` equals a fresh ``price_programs``
  and the merged reference prices, cold and warm;
- the schedule pricer (:class:`~repro.core.pricing.SchedulePricer`,
  which builds no program) prices each of the kernel's programs as
  ``profile_program`` does, field for field, dict key order and energy
  bits included, under both technologies; and the engine's
  ``schedule_profile`` equals its ``profile``;
- equal instructions across the kernel's programs are one object, and a
  second engine built with the same arguments compiles equal programs
  that share no instruction object with the first (interning is per
  engine, never global);
- every instruction's declared ``reads()``/``writes()`` are exactly the
  rows its ``run`` step reads and writes on the subarray (the dataflow
  ``check_program`` verifies is the one the interpreter performs).

Hand-built programs that share blocks, split them anywhere and put
section bounds inside a block also price exactly as the reference, and
a layout with more than 256 distinct block shapes prices exactly from
its schedule.
"""

import random
from dataclasses import fields
from typing import get_args

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.backends import price_programs
from repro.check import check_program
from repro.core.engine import BPNTTEngine
from repro.core.layout import DataLayout
from repro.core.pricing import SchedulePricer
from repro.core.scheduler import compile_ntt_from_twiddles
from repro.core.tiles import SCRATCH_ROW_COUNT, container_width
from repro.errors import ParameterError
from repro.ntt.params import NTTParams
from repro.ntt.transform import intt_negacyclic, ntt_negacyclic, polymul_negacyclic
from repro.sram.cost import CostReport
from repro.sram import isa
from repro.sram.energy import DEFAULT_CYCLES, TECH_45NM, TechnologyModel
from repro.sram.executor import ExecutionStats, profile_program
from repro.sram.program import Program
from repro.sram.subarray import SRAMSubarray
from repro.utils.primes import find_ntt_prime

#: Every instruction class at a different cycle count (1, 2, 3, ...).
SKEWED_TECH = TechnologyModel(
    cycles={kind: cost for cost, kind in enumerate(DEFAULT_CYCLES, 1)})

GOLD = {
    "ntt": lambda payload, operand, params: ntt_negacyclic(payload, params),
    "intt": lambda payload, operand, params: intt_negacyclic(payload, params),
    "polymul": polymul_negacyclic,
}


@st.composite
def engines(draw):
    """An engine on a generated ring and geometry, plus a random seed."""
    n = draw(st.sampled_from([8, 16, 32]))
    bits = draw(st.integers(min_value=(2 * n).bit_length() + 2, max_value=14))
    start = draw(st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1))
    try:
        q = find_ntt_prime(bits, n, start=start)
    except ParameterError:
        assume(False)
    width = container_width(q) + draw(st.integers(min_value=0, max_value=3))
    if draw(st.booleans()):  # spill: coefficients overflow into more tiles
        coeff_rows = draw(st.integers(min_value=-(-n // 3), max_value=n - 1))
    else:
        coeff_rows = n + draw(st.integers(min_value=0, max_value=4))
    tiles_per_poly = -(-n // coeff_rows)
    slots = draw(st.integers(min_value=1, max_value=3))
    cols = width * tiles_per_poly * slots + draw(
        st.integers(min_value=0, max_value=width - 1))
    engine = BPNTTEngine(NTTParams(n=n, q=q), width=width,
                         rows=coeff_rows + SCRATCH_ROW_COUNT, cols=cols)
    assert engine.layout.uses_spill == (tiles_per_poly > 1)
    return engine, draw(st.integers(min_value=0, max_value=2**32))


def reference_price(program, tech) -> ExecutionStats:
    """Charge each instruction in program order; spans from the running total."""
    stats = ExecutionStats()
    cycle_at = []
    for instruction in program.instructions:
        kind = type(instruction).kind
        stats.cycles += tech.instruction_cycles(kind)
        stats.energy_pj += tech.instruction_energy_pj(kind)
        stats.instructions += 1
        stats.op_counts[kind] = stats.op_counts.get(kind, 0) + 1
        stats.shift_count += isinstance(instruction, isa.ShiftRow)
        cycle_at.append(stats.cycles)
    for label, start, end in program.sections:
        span = (cycle_at[end - 1] if end else 0) - (cycle_at[start - 1] if start else 0)
        stats.section_cycles[label] = stats.section_cycles.get(label, 0) + span
    return stats


def assert_same_stats(static: ExecutionStats, reference: ExecutionStats) -> None:
    for f in fields(ExecutionStats):  # energy_pj compares float-exact
        assert getattr(static, f.name) == getattr(reference, f.name), f.name
    assert list(static.op_counts) == list(reference.op_counts)
    assert list(static.section_cycles) == list(reference.section_cycles)


def assert_same_bits(priced: ExecutionStats, profiled: ExecutionStats) -> None:
    assert_same_stats(priced, profiled)
    assert priced.energy_pj.hex() == profiled.energy_pj.hex()


def assert_same_cost(left: CostReport, right: CostReport) -> None:
    assert left == right
    assert repr(left) == repr(right)
    assert list(left.section_cycles) == list(right.section_cycles)


@settings(max_examples=50, deadline=None)
@given(engines(), st.sampled_from(["ntt", "intt", "polymul"]))
def test_generated_kernels_check_clean_execute_gold_and_price_exactly(draw, op):
    engine, seed = draw
    params, layout = engine.params, engine.layout
    rng = random.Random(seed)

    def poly():
        return [rng.randrange(params.q) for _ in range(params.n)]

    operand = poly() if op == "polymul" else None
    kernel = engine.compile(op, operand)
    for program in kernel.programs:
        findings = check_program(program, rows=layout.rows, width=engine.width,
                                 num_tiles=layout.num_tiles, modulus=params.q)
        assert not [d for d in findings if d.is_error], findings
    built = [i for program in kernel.programs for i in program.instructions]
    assert len({id(i) for i in built}) == len(set(built))

    twin = BPNTTEngine(params, width=engine.width, rows=layout.rows,
                       cols=engine.physical_cols).compile(op, operand)
    assert twin.programs == kernel.programs
    for mine, theirs in zip(kernel.programs, twin.programs):
        assert mine.instructions == theirs.instructions
        assert mine.sections == theirs.sections
    assert not {id(i) for i in built} & {
        id(i) for program in twin.programs for i in program.instructions}

    payloads = [poly() for _ in range(engine.batch)]
    engine.load(payloads)
    references = []
    for program in kernel.programs:
        engine.gang[0].subarray.reset_peripherals()
        engine.gang[0].run(program)
        references.append(reference_price(program, engine.tech))
        assert_same_stats(profile_program(program, engine.tech), references[-1])
        # Unequal per-class cycles take the running-count path.
        assert_same_stats(profile_program(program, SKEWED_TECH),
                          reference_price(program, SKEWED_TECH))
    assert engine.results() == [GOLD[op](p, operand, params) for p in payloads]

    fresh = price_programs(kernel.programs, engine.tech)
    priced = CostReport.from_stats(ExecutionStats.merge(*references), engine.tech)
    assert_same_cost(engine.profile(kernel), fresh)  # cold
    assert_same_cost(engine.profile(kernel), priced)  # from the engine's memo


@settings(max_examples=50, deadline=None)
@given(engines(), st.sampled_from(["ntt", "intt", "polymul"]))
def test_the_schedule_prices_as_the_compiled_programs(draw, op):
    engine, seed = draw
    params = engine.params
    rng = random.Random(seed)
    operand = ([rng.randrange(params.q) for _ in range(params.n)]
               if op == "polymul" else None)
    # A twin prices from the schedule alone: its kernel's programs are
    # never read, so it compiles none.
    twin = BPNTTEngine(params, width=engine.width, rows=engine.layout.rows,
                       cols=engine.physical_cols)
    cost = twin.schedule_profile(twin.compile(op, operand))
    assert not twin._programs
    kernel = engine.compile(op, operand)
    assert_same_cost(cost, engine.profile(kernel))
    for tech in (TECH_45NM, SKEWED_TECH):
        pricer = SchedulePricer(engine.layout, tech, params,
                                engine.twiddle_table)
        for priced, program in zip(map(pricer.price, kernel.schedule),
                                   kernel.programs, strict=True):
            assert_same_bits(priced, profile_program(program, tech))


def touched_rows(sub, instruction):
    """The rows ``instruction.run`` reads and writes on ``sub``."""
    storage = sub.storage
    read, written = set(), set()
    read_row, write_row = storage.read_row, storage.write_row
    storage.read_row = lambda row: read.add(row) or read_row(row)
    storage.write_row = lambda row, value: written.add(row) or write_row(row, value)
    try:
        instruction.run(sub)
    finally:
        del storage.read_row, storage.write_row
    return read, written


@settings(max_examples=50, deadline=None)
@given(engines(), st.sampled_from(["ntt", "intt", "polymul"]))
def test_declared_rows_are_the_rows_the_interpreter_touches(draw, op):
    engine, seed = draw
    params = engine.params
    rng = random.Random(seed)
    operand = ([rng.randrange(params.q) for _ in range(params.n)]
               if op == "polymul" else None)
    kernel = engine.compile(op, operand)
    engine.load([[rng.randrange(params.q) for _ in range(params.n)]
                 for _ in range(engine.batch)])
    sub = engine.gang[0].subarray
    # Rows touched depend on the instruction alone, never on data: each
    # distinct (interned) instruction runs once, in first-use order.
    distinct = dict.fromkeys(
        i for program in kernel.programs for i in program.instructions)
    for instruction in distinct:
        read, written = touched_rows(sub, instruction)
        assert read == set(instruction.reads()), instruction
        assert written == set(instruction.writes()), instruction


#: One or more instances of every ISA class, compiled or not (the
#: compiler never emits SetLatch).
SAMPLES = [
    isa.Check(1, bit_index=2, invert=True),
    isa.CheckCarry(),
    isa.SetFlags(0b1),
    isa.Unary(isa.UnaryOp.ZERO, 1),
    isa.Unary(isa.UnaryOp.NOT, 1, 2, set_lsb=True),
    isa.ShiftRow(1, 2, isa.ShiftDirection.RIGHT),
    isa.LogicBinary(isa.BinaryOp.NOR, 3, 1, 2, gate_operand1=True),
    isa.BinaryPair(3, 1, 2, carry_in=True),
    isa.CarryStep(3, 3),
    isa.SetLatch(None),
    isa.SetLatch(2),
    isa.CopyGated(1, 2),
]


def test_every_instruction_class_declares_and_is_priced():
    classes = get_args(isa.Instruction)
    assert {type(sample) for sample in SAMPLES} == set(classes)
    for cls in classes:
        for fact in ("kind", "text", "run"):
            assert fact in vars(cls), (cls.__name__, fact)
        TECH_45NM.instruction_cycles(cls.kind)
        TECH_45NM.instruction_energy_pj(cls.kind)
    sub = SRAMSubarray(rows=4, cols=16, tile_width=8)
    for sample in SAMPLES:
        assert touched_rows(sub, sample) == (set(sample.reads()),
                                             set(sample.writes())), sample


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_any_split_into_blocks_prices_as_the_flat_program(data):
    """Shared blocks, any block sizes, and section bounds inside a block."""
    distinct = data.draw(st.lists(
        st.lists(st.sampled_from(SAMPLES), min_size=1, max_size=6).map(tuple),
        min_size=1, max_size=4))
    program = Program("drawn")
    for index in data.draw(st.lists(
            st.integers(min_value=0, max_value=len(distinct) - 1), max_size=20)):
        program.extend(distinct[index])
    bound = st.integers(min_value=0, max_value=len(program))
    for start, end in data.draw(st.lists(st.tuples(bound, bound), max_size=4)):
        program.sections.append((f"s{start % 3}", min(start, end), max(start, end)))
    assert len(program) == len(program.instructions)
    for tech in (TECH_45NM, SKEWED_TECH):
        assert_same_stats(profile_program(program, tech),
                          reference_price(program, tech))


def test_a_layout_with_more_than_256_shapes_prices_exactly():
    """One coefficient row per tile: every tile offset of a spill fetch
    and a store is its own block shape, so the codes are a list."""
    layout = DataLayout(rows=SCRATCH_ROW_COUNT + 1, cols=4 * 128, width=4,
                        order=128)
    rng = random.Random(5)
    twiddles = [rng.getrandbits(4) for _ in range(128)]
    program = compile_ntt_from_twiddles(layout, twiddles)
    assert len({tuple(map(type, block)) for block in program.blocks}) > 256
    for tech in (TECH_45NM, SKEWED_TECH):
        assert_same_bits(SchedulePricer(layout, tech).ntt_from_twiddles(twiddles),
                         profile_program(program, tech))
