"""Instruction sequences with provenance metadata.

A :class:`Program` is the unit the CTRL/CMD subarray streams to a data
subarray.  It is stored as a list of *blocks*: each block is a tuple of
instructions, and the compiler's emitters append one block per call
(a modular multiplication appends one conditional-add or reduction
block per twiddle bit).  Each emitter builds its blocks once per
:class:`~repro.core.layout.DataLayout` and reuses that one tuple object
at every call, so a 300k-instruction NTT is a few tens of thousands of
references to a few hundred distinct blocks, and pricing works per
block (:func:`~repro.sram.executor.profile_program`).

The program also records *sections*: the compiler marks which
instruction ranges belong to which algorithm phase (e.g. ``modmul``,
``carry_resolve``, ``mod_add``) so benches can report per-phase cycle
breakdowns and the shift-count ablation can attribute shifts to phases.
Sections and ``len(program)`` count instructions, not blocks.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import IsaError
from repro.sram.isa import Instruction


class Program:
    """An ordered sequence of instruction blocks plus named sections.

    ``Program(name, instructions=[...])`` builds a program holding the
    given instructions as one block.  Append through :meth:`emit`,
    :meth:`extend` and :meth:`append_section`, which keep ``len`` and
    the flat view in step with :attr:`blocks`.
    """

    def __init__(self, name: str = "program",
                 instructions: Iterable[Instruction] = ()):
        self.name = name
        self.blocks: List[Tuple[Instruction, ...]] = []
        self.sections: List[Tuple[str, int, int]] = []
        self._open_section: Optional[Tuple[str, int]] = None
        self._length = 0
        self._flat: Optional[Tuple[Instruction, ...]] = None
        self.extend(instructions)

    def emit(self, instruction: Instruction) -> None:
        """Append one instruction (as a block of its own)."""
        self.extend((instruction,))

    def extend(self, instructions: Iterable[Instruction]) -> None:
        """Append several instructions as one block.

        A tuple is appended as itself, so an emitter that passes its
        layout's interned block adds a reference, not a copy.
        """
        block = tuple(instructions)
        if block:
            self.blocks.append(block)
            self._length += len(block)
            self._flat = None

    def append_section(self, label: str, *blocks: Tuple[Instruction, ...]) -> None:
        """Append ``blocks`` (tuples, kept by reference) as one section.

        The emitters' one call per section, in place of
        :meth:`begin_section`, :meth:`extend` per block and
        :meth:`end_section`.
        """
        if self._open_section is not None:
            raise IsaError(
                f"section {self._open_section[0]!r} still open; sections do not nest"
            )
        start = self._length
        self.blocks.extend(blocks)
        self._length += sum(map(len, blocks))
        self._flat = None
        self.sections.append((label, start, self._length))

    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        """The flat instruction sequence, built on first use and cached.

        Execution and pricing walk :attr:`blocks`; the flat view is for
        readers that index single instructions (the disassembler,
        tests).
        """
        if self._flat is None:
            self._flat = tuple(chain.from_iterable(self.blocks))
        return self._flat

    def begin_section(self, label: str) -> None:
        """Open a named range; close it with :meth:`end_section`."""
        if self._open_section is not None:
            raise IsaError(
                f"section {self._open_section[0]!r} still open; sections do not nest"
            )
        self._open_section = (label, self._length)

    def end_section(self) -> None:
        """Close the currently open section."""
        if self._open_section is None:
            raise IsaError("no section open")
        label, start = self._open_section
        self.sections.append((label, start, self._length))
        self._open_section = None

    def section_histogram(self) -> Dict[str, int]:
        """Instruction counts per section label (aggregated)."""
        hist: Dict[str, int] = {}
        for label, start, end in self.sections:
            hist[label] = hist.get(label, 0) + (end - start)
        return hist

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Instruction]:
        return chain.from_iterable(self.blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return ((self.name, self.sections, self._open_section)
                == (other.name, other.sections, other._open_section)
                and self.instructions == other.instructions)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Program({self.name!r}, {self._length} instructions)"
