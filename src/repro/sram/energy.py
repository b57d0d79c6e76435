"""Technology model: 45 nm timing, energy and area constants.

The paper builds SRAM arrays with PyMTL3 + OpenRAM and extracts timing
and area with Synopsys DC / Cadence Innovus (§V-A).  Those tools are not
reproducible in a pure-Python environment, so this module plays their
role: a single table of per-operation latency/energy constants plus an
area model, **calibrated** so the BP-NTT 256-point / 16-bit operating
point lands on the paper's Table I row (3.8 GHz, 61.9 us, 69.4 nJ per
batch, 0.063 mm^2).

Everything derived (Fig 8 sweeps, Table I ratios) is *generated* from
instruction counts produced by the cycle-accurate executor — only these
base constants are fitted, exactly as a circuit-level characterization
would provide them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ParameterError

#: Energy per instruction class, picojoules.  A two-row activation with
#: sense and writeback dominates; shifts and checks exercise less of the
#: array.  Values fitted to Table I (see module docstring).
DEFAULT_ENERGY_PJ: Dict[str, float] = {
    "logic": 0.244,       # two-row activation + SA logic + row writeback
    "pair": 0.260,        # same + latch load
    "carry_step": 0.260,  # row activation + latch shift + writeback
    "shift": 0.168,       # single-row read, latch shift, writeback
    "unary": 0.153,       # single-row read + writeback
    "check": 0.061,       # single-column sense into the predicate latch
    "copy_gated": 0.153,  # writeback masked by per-tile write enables
    "set_latch": 0.092,   # single-row read into the latch
    "row_write": 0.115,   # host data load (setup, outside kernels)
    "row_read": 0.076,    # host data readout
}

#: Cycles per instruction class.  The design is pipelined so one
#: activate-sense-writeback completes per clock (the paper's clock count
#: treats each bitline operation as one cycle).
DEFAULT_CYCLES: Dict[str, int] = {
    "logic": 1,
    "pair": 1,
    "carry_step": 1,
    "shift": 1,
    "unary": 1,
    "check": 1,
    "copy_gated": 1,
    "set_latch": 1,
    "row_write": 1,
    "row_read": 1,
}


@dataclass(frozen=True)
class TechnologyModel:
    """A process node characterization for the subarray.

    Attributes:
        name: label, e.g. ``"45nm"``.
        frequency_hz: subarray clock (Table I: 3.8 GHz at 45 nm).
        cell_area_um2: 6T bit-cell area.
        periphery_factor: array area multiplier covering decoders, SAs,
            drivers (OpenRAM-style overhead).
        compute_overhead: extra area for the BP-NTT SA modifications
            (paper: "less than 2%").
        energy_pj: per-instruction-class energy table.
        cycles: per-instruction-class cycle table.
    """

    name: str = "45nm"
    frequency_hz: float = 3.8e9
    cell_area_um2: float = 0.38
    periphery_factor: float = 2.48
    compute_overhead: float = 0.02
    energy_pj: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_ENERGY_PJ))
    cycles: Dict[str, int] = field(default_factory=lambda: dict(DEFAULT_CYCLES))

    def __post_init__(self) -> None:
        # Pricing sums these per instruction; its per-binade sums need
        # every energy finite and >= 0, so that the running sum only grows.
        for kind, energy in self.energy_pj.items():
            if not (isinstance(energy, float) and math.isfinite(energy)
                    and energy >= 0):
                raise ParameterError(
                    f"energy of {kind!r} must be a finite float >= 0, "
                    f"got {energy!r}")
        for kind, cycles in self.cycles.items():
            if isinstance(cycles, bool) or not isinstance(cycles, int) \
                    or cycles < 0:
                raise ParameterError(
                    f"cycles of {kind!r} must be an int >= 0, got {cycles!r}")

    def subarray_area_mm2(self, rows: int, cols: int) -> float:
        """Silicon area of one compute-enabled subarray.

        For the 256x256 reference geometry this evaluates to ~0.063 mm^2,
        matching Table I.
        """
        if rows <= 0 or cols <= 0:
            raise ParameterError("subarray dimensions must be positive")
        cell_mm2 = self.cell_area_um2 * 1e-6
        array = rows * cols * cell_mm2
        return array * self.periphery_factor * (1.0 + self.compute_overhead)

    def instruction_energy_pj(self, kind: str) -> float:
        """Energy for one instruction of class ``kind``."""
        try:
            return self.energy_pj[kind]
        except KeyError:
            raise ParameterError(f"unknown instruction class {kind!r}") from None

    def instruction_cycles(self, kind: str) -> int:
        """Cycles for one instruction of class ``kind``."""
        try:
            return self.cycles[kind]
        except KeyError:
            raise ParameterError(f"unknown instruction class {kind!r}") from None

    def cycles_to_seconds(self, cycle_count: int) -> float:
        """Convert a cycle count into wall-clock seconds at this node."""
        return cycle_count / self.frequency_hz

    def scale_to(self, target_nm: float, source_nm: float = 45.0) -> "TechnologyModel":
        """First-order Dennard projection to another node.

        Area scales with the square of feature size, frequency inversely,
        and per-op energy with the cube (V^2 * C).  This is the same
        apples-to-apples normalization Table I applies to baselines
        reported at other nodes ("projected to 45nm").
        """
        if target_nm <= 0 or source_nm <= 0:
            raise ParameterError("feature sizes must be positive")
        s = target_nm / source_nm
        return TechnologyModel(
            name=f"{target_nm:g}nm",
            frequency_hz=self.frequency_hz / s,
            cell_area_um2=self.cell_area_um2 * s * s,
            periphery_factor=self.periphery_factor,
            compute_overhead=self.compute_overhead,
            energy_pj={k: v * s**3 for k, v in self.energy_pj.items()},
            cycles=dict(self.cycles),
        )


#: The calibrated 45 nm node used throughout the evaluation.
TECH_45NM = TechnologyModel()
