"""Program execution, and the static price that is its cost.

The :class:`Executor` interprets Fig 4d instruction streams against an
:class:`~repro.sram.subarray.SRAMSubarray`.  It knows no instruction
class: each step is the class's own ``run`` (declared next to its
``kind``, rows and text in :mod:`repro.sram.isa`), which updates
storage and peripheral state exactly as the hardware would.  It
charges nothing per instruction: every instruction class has fixed
cycles and energy (its ``kind``), so a run's stats *are* the static
price of its instruction mix, :func:`profile_program`, which
:meth:`Executor.run` returns once the program has been interpreted.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import add
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.sram.energy import TECH_45NM, TechnologyModel
from repro.sram.program import Program
from repro.sram.subarray import SRAMSubarray


@dataclass
class ExecutionStats:
    """Aggregate counters from one or more program runs."""

    cycles: int = 0
    energy_pj: float = 0.0
    instructions: int = 0
    op_counts: Dict[str, int] = field(default_factory=dict)
    shift_count: int = 0
    section_cycles: Dict[str, int] = field(default_factory=dict)

    def accumulate(self, other: "ExecutionStats") -> None:
        """Fold another stats object into this one."""
        self.cycles += other.cycles
        self.energy_pj += other.energy_pj
        self.instructions += other.instructions
        self.shift_count += other.shift_count
        for k, v in other.op_counts.items():
            self.op_counts[k] = self.op_counts.get(k, 0) + v
        for k, v in other.section_cycles.items():
            self.section_cycles[k] = self.section_cycles.get(k, 0) + v

    @classmethod
    def merge(cls, *stats: "ExecutionStats") -> "ExecutionStats":
        """A new stats object combining several runs (e.g. NTT->mul->INTT)."""
        merged = cls()
        for s in stats:
            merged.accumulate(s)
        return merged

    @property
    def energy_nj(self) -> float:
        """Total energy in nanojoules."""
        return self.energy_pj / 1000.0

    def latency_s(self, tech: TechnologyModel) -> float:
        """Wall-clock time of the recorded cycles at a node's frequency."""
        return tech.cycles_to_seconds(self.cycles)

    def __repr__(self) -> str:
        return (
            f"ExecutionStats(cycles={self.cycles}, "
            f"energy={self.energy_nj:.2f}nJ, instructions={self.instructions})"
        )


class Executor:
    """Interprets programs on a subarray; ``stats`` sums the runs' prices."""

    def __init__(self, subarray: SRAMSubarray, tech: TechnologyModel = TECH_45NM):
        self.subarray = subarray
        self.tech = tech
        self.stats = ExecutionStats()

    def run(self, program: Program,
            price: Optional[ExecutionStats] = None) -> ExecutionStats:
        """Execute every instruction; returns stats for *this run only*.

        The stats are the program's static price, also folded into the
        lifetime :attr:`stats`.  ``price`` is that price when the caller
        already holds it (an engine keeps one per compiled program);
        otherwise the program is priced here.  Either way the returned
        stats are a fresh object the caller may keep or change.
        """
        for block in program.blocks:
            for instruction in block:
                self.execute(instruction)
        if price is None:
            run_stats = profile_program(program, self.tech)
        else:
            run_stats = ExecutionStats.merge(price)
        self.stats.accumulate(run_stats)
        return run_stats

    def execute(self, instruction) -> None:
        """Execute a single instruction (its class's ``run``); charges nothing."""
        try:
            step = instruction.run
        except AttributeError:
            raise ExecutionError(f"unknown instruction {instruction!r}") from None
        step(self.subarray)


def profile_program(program: Program, tech: TechnologyModel = TECH_45NM) -> ExecutionStats:
    """Cost a program *without* executing it.

    Cycles and energy are fixed per instruction class, so they are a
    pure function of the instruction mix: this is what
    :meth:`Executor.run` reports for the program on any data.  The
    serving simulator uses it to price a kernel invocation once per
    compiled program instead of interpreting millions of bitline
    operations per batch.

    The program is priced per block.  Blocks are told apart by
    identity, each distinct block is read once, and blocks with the
    same class sequence (the same emitter on other rows) share one
    shape code; :func:`price_shapes` prices the codes.
    """
    blocks = program.blocks
    # Each distinct block's class sequence (its shape), in first-use
    # order, with its index (the shape's code); per distinct block, its
    # shape's code.
    code_of: Dict[int, int] = {}
    shapes: Dict[tuple, int] = {}
    for key, block in dict(zip(map(id, blocks), blocks)).items():
        code_of[key] = shapes.setdefault(tuple(map(type, block)), len(shapes))
    # The program as shape codes, one per block reference.
    codes = (bytes if len(shapes) <= 256 else list)(
        map(code_of.__getitem__, map(id, blocks)))
    length = len(program)
    sections = program.sections
    spans: Dict[str, int] = {}
    for label, start, end in sections:
        if end > length:
            raise ExecutionError(f"section {label!r} exceeds program length")
        if not 0 <= start <= end:
            raise ExecutionError(f"section {label!r} spans [{start}, {end})")
        spans[label] = spans.get(label, 0) + (end - start)

    def section_cycles(cycles_of: Dict[type, int]) -> Dict[str, int]:
        # The running cycle count before instruction i, at section bounds.
        before = _cycles_at(blocks, cycles_of, {length}.union(
            *((start, end) for _, start, end in sections)))
        cycles: Dict[str, int] = {}
        for label, start, end in sections:
            cycles[label] = cycles.get(label, 0) + (before[end] - before[start])
        return cycles

    return price_shapes(list(shapes), codes, length, spans, section_cycles,
                        tech)


def price_shapes(shapes: Sequence[Tuple[type, ...]], codes: Sequence[int],
                 length: int, spans: Dict[str, int],
                 section_cycles: Callable[[Dict[type, int]], Dict[str, int]],
                 tech: TechnologyModel) -> ExecutionStats:
    """The stats of a program given as block shape codes.

    The back half of both pricing front ends: :func:`profile_program`
    over a compiled program's blocks, and
    :class:`~repro.core.pricing.SchedulePricer` over the compiler's
    schedule.  ``shapes`` lists each distinct block shape (its
    instruction classes) in first-use order; ``codes`` is the program as
    one shape index per block reference (bytes when there are at most
    256 shapes, else a list); ``length`` counts its instructions and
    ``spans`` each section label's instructions, labels in first-use
    order.  ``section_cycles(cycles_of)`` gives each label's cycles; it
    is called only when the program's classes cost unequal cycles.

    The class counts are each shape's counts times its uses.  The
    energy total has the bits of the left-to-right float sum over the
    program, one addition per instruction in program order;
    :func:`_fold_energy` gets them from per-binade integer sums over the
    blocks and adds single instructions only where the sum crosses into
    the next binade.
    """
    stats = ExecutionStats()
    if len(shapes) <= 256:
        uses = list(map(codes.count, range(len(shapes))))
    else:
        counted = Counter(codes)
        uses = list(map(counted.__getitem__, range(len(shapes))))
    cycles_of: Dict[type, int] = {}
    energy_of: Dict[type, float] = {}
    counts: Dict[type, int] = {}
    # Classes in first-seen order, so op_counts keys follow the program.
    for shape, used in zip(shapes, uses):
        for cls, count in Counter(shape).items():
            if cls not in counts:
                kind = _class_kind(cls)
                cycles_of[cls] = tech.instruction_cycles(kind)
                energy_of[cls] = tech.instruction_energy_pj(kind)
                counts[cls] = 0
            counts[cls] += count * used
    for cls, count in counts.items():
        stats.op_counts[cls.kind] = stats.op_counts.get(cls.kind, 0) + count
        if cls.kind == "shift":
            stats.shift_count += count
    stats.energy_pj = _fold_energy(
        codes, uses,
        [tuple(map(energy_of.__getitem__, shape)) for shape in shapes])
    stats.instructions = length
    if len(set(cycles_of.values())) <= 1:
        # Every class costs the same: cycles are instructions times it.
        cost = next(iter(cycles_of.values()), 0)
        stats.cycles = cost * length
        stats.section_cycles = {label: cost * span
                                for label, span in spans.items()}
        return stats
    stats.cycles = sum(used * sum(map(cycles_of.__getitem__, shape))
                       for shape, used in zip(shapes, uses))
    stats.section_cycles = section_cycles(cycles_of)
    return stats


#: Fewest blocks a binade must have room for, at the program's mean
#: block energy, to be added as one integer sum; otherwise the plain
#: fold adds this many blocks before the next look.
ULP_RUN_MIN_BLOCKS = 256
_MIN_NORMAL = sys.float_info.min
_ULPS_PER_BINADE = 1 << 53


def _fold(s: float, blocks: Iterable[Tuple[float, ...]]) -> float:
    """The plain fold: ``s`` plus each energy of each block, in order."""
    return reduce(add, chain.from_iterable(blocks), s)


def _fold_energy(codes: Sequence[int], uses: List[int],
                 energies: List[Tuple[float, ...]]) -> float:
    """The plain fold of a program's energies from ``0.0``, bit for bit.

    ``codes`` lists the program's blocks by their shape's index (as
    bytes when there are at most 256 shapes), ``uses[c]`` counts shape
    ``c`` in it, and ``energies[c]`` holds shape ``c``'s
    per-instruction energies (all finite and ``>= 0``, which
    :class:`TechnologyModel` checks).

    While the running sum ``s`` stays in one binade ``[2^(e-1), 2^e)``
    its ulp ``u = 2^(e-53)`` is fixed, and adding ``x`` rounds to
    ``s + round(x/u)*u`` exactly, provided ``x/u`` is exact and not a
    half-integer (a tie rounds by the parity of ``s/u``).  So the run
    of blocks that keeps the sum below ``2^e`` adds one integer: its
    blocks' ulp counts, per shape (:func:`_shape_ulps`) times the
    shape's uses in the run (:func:`_run`).  The block that crosses
    into the next binade takes the plain fold, one addition per
    instruction.  So do, :data:`ULP_RUN_MIN_BLOCKS` blocks at a time,
    the start (``s`` below the smallest normal float), binades with a
    tie or an inexact quotient and binades with room for fewer blocks
    than that; and so does, whole, a program of at most that many
    blocks or with more than 256 shapes.
    """
    if len(codes) <= ULP_RUN_MIN_BLOCKS or len(energies) > 256:
        return _fold(0.0, map(energies.__getitem__, codes))
    n = len(codes)
    # A binade with room for fewer blocks than this takes the plain fold
    # (the mean block energy, summed so that it overflows only when a
    # block's own energy does).
    short = ULP_RUN_MIN_BLOCKS * sum(
        sum(shape) * (uses[code] / n)
        for code, shape in enumerate(energies))
    mixes = [Counter(shape).items() for shape in energies]
    binades: Dict[int, Optional[List[int]]] = {}
    s = 0.0
    i = 0
    while i < n:
        stop = i + ULP_RUN_MIN_BLOCKS
        if _MIN_NORMAL <= s < math.inf:
            mantissa, e = math.frexp(s)
            base = int(math.ldexp(mantissa, 53))  # s in ulps
            if math.ldexp(float(_ULPS_PER_BINADE - base), e - 53) >= short:
                if e not in binades:
                    binades[e] = _shape_ulps(mixes, math.ldexp(1.0, e - 53))
                ulps = binades[e]
                if ulps is not None:
                    i, total = _run(codes, ulps, i, _ULPS_PER_BINADE - base)
                    s = math.ldexp(float(base + total), e - 53)
                    stop = i + 1
        s = _fold(s, map(energies.__getitem__, codes[i:stop]))
        i = stop
    return s


def _run(codes: bytes, ulps: List[int], start: int, limit: int) -> Tuple[int, int]:
    """The longest run of blocks from ``start`` whose ulps total stays
    below ``limit``: its end and that total.

    The run grows in chunks of doubling length while they fit, then
    in halving ones; each chunk's total counts its blocks per shape.
    """
    present = [(code, count) for code, count in enumerate(ulps) if count]
    n = len(codes)
    end = start
    total = 0
    step = 1
    growing = True
    while step and end < n:
        stop = min(n, end + step)
        more = sum(count * codes.count(code, end, stop)
                   for code, count in present)
        if total + more < limit:
            total += more
            end = stop
        else:
            growing = False
        step = step * 2 if growing else step // 2
    return end, total


def _shape_ulps(mixes, ulp: float) -> Optional[List[int]]:
    """Each shape's energy in ``ulp`` units, as one binade rounds it.

    ``None`` when some energy over ``ulp`` is inexact (an overflow or
    underflow) or a tie.
    """
    rounded: Dict[float, int] = {}
    for mix in mixes:
        for energy, _ in mix:
            if energy not in rounded:
                quotient = energy / ulp
                if quotient * ulp != energy:
                    return None
                whole = round(quotient)
                if abs(quotient - whole) == 0.5:
                    return None
                rounded[energy] = whole
    return [sum(rounded[energy] * count for energy, count in mix)
            for mix in mixes]


def _cycles_at(blocks, cycles_of: Dict[type, int], bounds) -> Dict[int, int]:
    """The running cycle count before each instruction index in ``bounds``.

    Sums whole blocks, once per distinct block, and single instructions
    only inside a block that a bound splits.
    """
    block_cycles: Dict[int, int] = {}
    at: Dict[int, int] = {}
    pending = sorted(bounds, reverse=True)
    offset = cycles = 0
    for block in blocks:
        end = offset + len(block)
        while pending and pending[-1] < end:
            bound = pending.pop()
            at[bound] = cycles + sum(map(cycles_of.__getitem__,
                                         map(type, block[:bound - offset])))
        key = id(block)
        if key not in block_cycles:
            block_cycles[key] = sum(map(cycles_of.__getitem__, map(type, block)))
        cycles += block_cycles[key]
        offset = end
    at.update(dict.fromkeys(pending, cycles))
    return at


def _instruction_kind(instruction) -> str:
    """An instruction's technology-model class name (its class's ``kind``)."""
    return _class_kind(type(instruction))


def _class_kind(cls: type) -> str:
    """An instruction class's technology-model class name (its ``kind``)."""
    try:
        return cls.kind
    except AttributeError:
        raise ExecutionError(f"unknown instruction class {cls.__name__}") from None
