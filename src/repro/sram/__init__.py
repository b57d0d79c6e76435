"""In-SRAM computing substrate.

A functional, cycle-level model of the paper's execution fabric: a 6T
SRAM subarray whose wordline decoders can activate two rows at once so
the sense amplifiers compute bitwise logic on the bitlines (Fig 3), a
modified sense amplifier with a MUX + latch giving 1-bit bidirectional
shifts (Fig 5b), and the small memory-mapped ISA of Fig 4(d) driven from
a CTRL/CMD subarray.

Layering:

- :mod:`repro.sram.bitmatrix` — raw bit storage (one int per row).
- :mod:`repro.sram.senseamp`  — sense-amplifier combinational model.
- :mod:`repro.sram.isa`       — instruction classes (Fig 4d), each with
  its cost class, rows, text and interpreter step.
- :mod:`repro.sram.program`   — instruction sequences with metadata.
- :mod:`repro.sram.subarray`  — geometry + storage + peripheral state.
- :mod:`repro.sram.executor`  — runs programs, counts cycles and energy.
- :mod:`repro.sram.energy`    — 45 nm technology constants, area model.
"""

from repro.registry import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bitmatrix": ("BitMatrix",),
    ".energy": ("TechnologyModel", "TECH_45NM"),
    ".executor": ("ExecutionStats", "Executor"),
    ".isa": ("BinaryOp", "BinaryPair", "CarryStep", "Check", "CheckCarry", "CopyGated",
             "Instruction", "LogicBinary", "SetFlags", "SetLatch", "ShiftDirection",
             "ShiftRow", "Unary", "UnaryOp"),
    ".program": ("Program",),
    ".subarray": ("SRAMSubarray",),
})
