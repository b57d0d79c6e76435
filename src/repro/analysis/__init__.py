"""Evaluation-section tooling: every table and figure generator.

- :mod:`repro.analysis.area`      — technology-node projection utilities.
- :mod:`repro.analysis.footprint` — Fig 7 memory-footprint comparison.
- :mod:`repro.analysis.roofline`  — Fig 1 roofline model.
- :mod:`repro.analysis.sweeps`    — Fig 8(a)/(b) parameter sweeps.
- :mod:`repro.analysis.tables`    — Table I generator.
"""

from repro.registry import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".area": ("project_area", "project_energy", "project_frequency"),
    ".breakdown": ("phase_breakdown", "sense_amp_ablation"),
    ".footprint": ("FootprintEntry", "fig7_comparison"),
    ".roofline": ("DEFAULT_MACHINE", "KernelProfile", "MachineModel",
                  "lattice_kernel_profiles"),
    ".scaling": ("NodePoint", "scale_design_point"),
    ".sweeps": ("SweepPoint", "sweep_bitwidths", "sweep_orders"),
    ".tables": ("build_table1", "format_table1"),
})
