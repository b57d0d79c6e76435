"""Instruction sequences with provenance metadata.

A :class:`Program` is the unit the CTRL/CMD subarray streams to a data
subarray.  It is a thin list wrapper that also records *sections* — the
compiler marks which instruction ranges belong to which algorithm phase
(e.g. ``modmul``, ``carry_resolve``, ``mod_add``) so benches can report
per-phase cycle breakdowns and the shift-count ablation can attribute
shifts to phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.errors import IsaError
from repro.sram.isa import Instruction


@dataclass
class Program:
    """An ordered list of instructions plus named sections."""

    name: str = "program"
    instructions: List[Instruction] = field(default_factory=list)
    sections: List[Tuple[str, int, int]] = field(default_factory=list)
    _open_section: Tuple[str, int] = field(default=None, repr=False)

    def emit(self, instruction: Instruction) -> None:
        """Append one instruction."""
        self.instructions.append(instruction)

    def extend(self, instructions) -> None:
        """Append several instructions."""
        self.instructions.extend(instructions)

    def begin_section(self, label: str) -> None:
        """Open a named range; close it with :meth:`end_section`."""
        if self._open_section is not None:
            raise IsaError(
                f"section {self._open_section[0]!r} still open; sections do not nest"
            )
        self._open_section = (label, len(self.instructions))

    def end_section(self) -> None:
        """Close the currently open section."""
        if self._open_section is None:
            raise IsaError("no section open")
        label, start = self._open_section
        self.sections.append((label, start, len(self.instructions)))
        self._open_section = None

    def section_histogram(self) -> Dict[str, int]:
        """Instruction counts per section label (aggregated)."""
        hist: Dict[str, int] = {}
        for label, start, end in self.sections:
            hist[label] = hist.get(label, 0) + (end - start)
        return hist

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __repr__(self) -> str:
        return f"Program({self.name!r}, {len(self.instructions)} instructions)"
