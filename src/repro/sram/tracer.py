"""Disassembly and execution tracing for BP-NTT programs.

Debugging microcode needs two views the executor alone does not give:

- :func:`disassemble` — human-readable listing of a program, with
  section markers (what the CTRL/CMD subarray holds); each line is the
  instruction's own ``text()``, declared with its class in
  :mod:`repro.sram.isa`;
- :class:`TracingExecutor` — an executor that additionally records, per
  instruction, which rows changed, the peripheral state and the
  instruction's cycle cost, with a ring buffer so tracing a
  300k-instruction NTT stays bounded.  The cost is the technology
  model's fixed price for the instruction's ``kind``: the executor's
  stats are the static price of the instruction mix, so per-entry
  costs sum to :func:`~repro.sram.executor.profile_program`'s cycles.

Both are used by the test suite to pin instruction-stream regressions
and by developers porting the compiler to new layouts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.errors import ParameterError
from repro.sram.executor import Executor
from repro.sram.program import Program


def format_instruction(instruction) -> str:
    """One-line assembly-style rendering of an instruction (its ``text()``)."""
    try:
        text = instruction.text
    except AttributeError:
        raise ParameterError(f"unknown instruction {instruction!r}") from None
    return text()


def disassemble(program: Program, limit: Optional[int] = None) -> str:
    """Listing of a program with section markers.

    ``limit`` truncates long programs (a 256-point NTT has ~300k
    instructions); the truncation is reported in the output.
    """
    starts = {start: label for label, start, _ in program.sections}
    lines: List[str] = [f"; program {program.name}: {len(program)} instructions"]
    count = len(program) if limit is None else min(limit, len(program))
    for index in range(count):
        if index in starts:
            lines.append(f".{starts[index]}:")
        lines.append(f"  {index:>6}  {format_instruction(program.instructions[index])}")
    if count < len(program):
        lines.append(f"  ... ({len(program) - count} more)")
    return "\n".join(lines)


@dataclass(frozen=True)
class TraceEntry:
    """State delta of one executed instruction.

    ``cycle_cost`` is this one instruction's cycles under the executor's
    technology model — what lets
    :func:`repro.obs.tracer.program_events` place the entries on a
    wall-clock axis next to the serving-layer lifecycle events.
    """

    index: int
    text: str
    changed_rows: tuple
    flags: int
    latch: int
    cycle_cost: int = 0


class TracingExecutor(Executor):
    """Executor recording per-instruction row deltas in a ring buffer."""

    def __init__(self, subarray, tech=None, *, capacity: int = 1024):
        if capacity <= 0:
            raise ParameterError(f"trace capacity must be positive, got {capacity}")
        if tech is None:
            super().__init__(subarray)
        else:
            super().__init__(subarray, tech)
        self.trace: Deque[TraceEntry] = deque(maxlen=capacity)
        self._counter = 0

    def execute(self, instruction) -> None:
        before = self.subarray.storage.snapshot()
        super().execute(instruction)
        after = self.subarray.storage.snapshot()
        changed = tuple(
            row for row, (a, b) in enumerate(zip(before, after)) if a != b
        )
        self.trace.append(
            TraceEntry(
                index=self._counter,
                text=format_instruction(instruction),
                changed_rows=changed,
                flags=self.subarray.flags,
                latch=self.subarray.latch,
                cycle_cost=self.tech.instruction_cycles(type(instruction).kind),
            )
        )
        self._counter += 1

    def format_trace(self, last: int = 20) -> str:
        """The most recent ``last`` trace entries, formatted."""
        entries = list(self.trace)[-last:]
        lines = []
        for e in entries:
            rows = ",".join(f"r{r}" for r in e.changed_rows) or "-"
            lines.append(
                f"{e.index:>6}  {e.text:<34} wrote:{rows:<10} "
                f"flags={e.flags:#x} latch={e.latch:#x}"
            )
        return "\n".join(lines)
