"""Fig 8 parameter sweeps: clock count and energy vs bitwidth / order.

Fig 8(a) sweeps the coefficient bitwidth (2..64) at order 256; Fig 8(b)
sweeps the polynomial order at 16-bit coefficients.  Both trends are
*generated* by pricing real instruction schedules on the Fig 5a layout
with the technology model (the schedule pricer,
:class:`~repro.core.pricing.SchedulePricer`, equal to pricing the
compiled program) — not fitted curves.

Some sweep points admit no NTT-friendly modulus (e.g. no prime fits a
2-bit container), exactly as in the paper's own flexibility figure,
which reports cost rather than arithmetic: the schedule's cost depends
only on the twiddle *bit patterns*, so synthetic twiddles with the
expected bit density stand in.  The executor-equality test in
``tests/analysis`` pins the cost model to real executions.

Expected shapes (§V-E):
- (a) cycles grow ~linearly with bitwidth; energy per NTT grows faster
  because the parallel batch shrinks as floor(256/w).
- (b) cycles and energy grow superlinearly in the order (n log n
  butterflies, plus cross-tile spill shifts past one tile's capacity,
  plus a shrinking batch).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.backends import price_programs, price_stats
from repro.core.layout import DataLayout
from repro.core.pricing import SchedulePricer
from repro.errors import CapacityError, ParameterError
from repro.sram.cost import CostReport
from repro.sram.energy import TECH_45NM, TechnologyModel
from repro.sram.program import Program
from repro.utils.bitops import is_power_of_two


@dataclass(frozen=True)
class SweepPoint:
    """One configuration's cost."""

    width: int
    order: int
    batch: int
    cycles: int
    energy_per_ntt_nj: float
    latency_us: float
    shift_ops: int

    @property
    def feasible(self) -> bool:
        return self.batch > 0


def program_cost(program: Program, tech: TechnologyModel) -> CostReport:
    """The :class:`CostReport` of a program without executing it.

    Cost is a pure function of the instruction mix; this prices it
    through the backend layer's shared
    :func:`repro.backends.price_programs`, and the executor's stats for
    a real run are that same static price.
    """
    return price_programs((program,), tech)


def _synthetic_twiddles(n: int, width: int, rng: random.Random) -> List[int]:
    """Twiddle stand-ins with uniform bit density (expected popcount w/2)."""
    return [rng.getrandbits(width) for _ in range(n)]


def sweep_point(width: int, order: int, *, rows: int = 256, cols: int = 256,
                tech: TechnologyModel = TECH_45NM,
                seed: int = 2023) -> Optional[SweepPoint]:
    """Cost of one (width, order) configuration; None when it cannot fit."""
    if not is_power_of_two(order):
        raise ParameterError(f"order must be a power of two, got {order}")
    try:
        layout = DataLayout(rows, cols, width, order)
    except (CapacityError, ParameterError):
        return None
    rng = random.Random(seed * 1009 + width * 13 + order)
    stats = SchedulePricer(layout, tech).ntt_from_twiddles(
        _synthetic_twiddles(order, width, rng))
    cost = price_stats([stats], tech)
    return SweepPoint(
        width=width,
        order=order,
        batch=layout.batch,
        cycles=cost.cycles,
        energy_per_ntt_nj=cost.energy_per_item_nj(layout.batch),
        latency_us=cost.latency_s * 1e6,
        shift_ops=cost.shift_count,
    )


def sweep_bitwidths(widths: Iterable[int] = (4, 8, 16, 32, 64), order: int = 256,
                    **kwargs) -> List[SweepPoint]:
    """Fig 8(a): vary the coefficient bitwidth at a fixed order.

    The paper plots 2..64 bits; widths below 4 violate Algorithm 2's
    ``n > 2`` precondition (there is also no odd modulus to reduce by),
    so the generated sweep starts at 4 and the bench records the gap.
    """
    points = []
    for width in widths:
        point = sweep_point(width, order, **kwargs)
        if point is not None:
            points.append(point)
    return points


def sweep_orders(orders: Iterable[int] = (16, 32, 64, 128, 256, 512, 1024, 2048),
                 width: int = 16, **kwargs) -> List[SweepPoint]:
    """Fig 8(b): vary the polynomial order at 16-bit coefficients."""
    points = []
    for order in orders:
        point = sweep_point(width, order, **kwargs)
        if point is not None:
            points.append(point)
    return points


def format_sweep(points: List[SweepPoint], varying: str) -> str:
    """Render a sweep as aligned rows (the Fig 8 series)."""
    header = (
        f"{varying:>8} {'batch':>6} {'cycles':>10} {'latency_us':>11} "
        f"{'nJ/NTT':>10} {'shifts':>8}"
    )
    lines = [header]
    for p in points:
        key = p.width if varying == "bitwidth" else p.order
        lines.append(
            f"{key:>8} {p.batch:>6} {p.cycles:>10,} {p.latency_us:>11.2f} "
            f"{p.energy_per_ntt_nj:>10.2f} {p.shift_ops:>8,}"
        )
    return "\n".join(lines)
