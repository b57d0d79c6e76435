"""BP-NTT: the paper's primary contribution.

This package compiles the Cooley–Tukey NTT (and its Gentleman–Sande
inverse) into Fig 4d instruction streams executed on the in-SRAM
substrate, using the bit-parallel Montgomery modular multiplication of
Algorithm 2 and the tile-based "implicit shift" data organization of
Fig 5(a).

Public entry point: :class:`repro.core.engine.BPNTTEngine`.
"""

from repro.registry import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".engine": ("BPNTTEngine", "NTTRunReport"),
    ".layout": ("DataLayout", "ScratchRows"),
    ".tiles": ("CapacityReport", "capacity_report", "container_width"),
})
