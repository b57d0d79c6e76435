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

from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import add
from typing import Dict, Optional

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
    count: the class counts are a block's counts times how often it
    occurs.  Only the energy total walks every instruction: it is the
    left-to-right float sum over the program, one addition per
    instruction in program order, because no per-block product gives
    the same bits.
    """
    stats = ExecutionStats()
    blocks = program.blocks
    ids = list(map(id, blocks))
    uses = Counter(ids)
    # Each distinct block's class sequence (its shape), and per shape
    # its total uses and one block that has it, in first-use order.
    shape_of: Dict[int, tuple] = {}
    shapes: Dict[tuple, list] = {}
    for key, block in dict(zip(ids, blocks)).items():
        shape = shape_of[key] = tuple(map(type, block))
        entry = shapes.get(shape)
        if entry is None:
            shapes[shape] = [uses[key], block]
        else:
            entry[0] += uses[key]
    cycles_of: Dict[type, int] = {}
    energy_of: Dict[type, float] = {}
    counts: Dict[type, int] = {}
    # Classes in first-seen order, so op_counts keys follow the program.
    for shape, (used, block) in shapes.items():
        for cls, count in Counter(shape).items():
            if cls not in counts:
                kind = _instruction_kind(block[shape.index(cls)])
                cycles_of[cls] = tech.instruction_cycles(kind)
                energy_of[cls] = tech.instruction_energy_pj(kind)
                counts[cls] = 0
            counts[cls] += count * used
    for cls, count in counts.items():
        stats.op_counts[cls.kind] = stats.op_counts.get(cls.kind, 0) + count
        if cls.kind == "shift":
            stats.shift_count += count
    energies = {shape: tuple(map(energy_of.__getitem__, shape))
                for shape in shapes}
    stats.energy_pj = reduce(add, chain.from_iterable(
        map(energies.__getitem__, map(shape_of.__getitem__, ids))), 0.0)
    stats.instructions = length = len(program)
    sections = program.sections
    spans: Dict[str, int] = {}
    for label, start, end in sections:
        if end > length:
            raise ExecutionError(f"section {label!r} exceeds program length")
        if not 0 <= start <= end:
            raise ExecutionError(f"section {label!r} spans [{start}, {end})")
        spans[label] = spans.get(label, 0) + (end - start)
    if len(set(cycles_of.values())) <= 1:
        # Every class costs the same: cycles are instructions times it.
        cost = next(iter(cycles_of.values()), 0)
        stats.cycles = cost * length
        stats.section_cycles = {label: cost * span
                                for label, span in spans.items()}
        return stats
    # The running cycle count before instruction i, at section bounds.
    before = _cycles_at(blocks, cycles_of, {length}.union(
        *((start, end) for _, start, end in sections)))
    stats.cycles = before[length]
    section_cycles = stats.section_cycles
    for label, start, end in sections:
        section_cycles[label] = section_cycles.get(label, 0) + (
            before[end] - before[start]
        )
    return stats


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
    try:
        return type(instruction).kind
    except AttributeError:
        raise ExecutionError(f"unknown instruction {instruction!r}") from None
