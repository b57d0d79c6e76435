"""Tile capacity arithmetic (§I and §IV-B claims).

The paper sizes BP-NTT's flexibility with tile arithmetic on a 256x256
subarray: ``floor(256 / w)`` tiles of ``w`` columns, each row of a tile
holding one coefficient.  This module reproduces those claims and adds
the *effective* numbers once the 6 intermediate rows are reserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import CapacityError, ParameterError
from repro.mont import safe_modulus_bound

#: Intermediate rows reserved per subarray (Fig 5a): Sum, Carry, two
#: compressor temporaries, the spill landing row, and the modulus row.
SCRATCH_ROW_COUNT = 6


def container_width(modulus: int, *, minimum: int = 0) -> int:
    """Smallest column count per coefficient that runs ``modulus`` safely.

    Observation 1 of Algorithm 2 requires ``M < 2^(w-1)`` (see
    :func:`repro.mont.safe_modulus_bound`), so a b-bit
    modulus needs ``b + 1`` columns.  ``minimum`` lets callers round up
    to a standard container (e.g. 16).
    """
    if modulus < 3:
        raise ParameterError(f"modulus must be >= 3, got {modulus}")
    width = modulus.bit_length() + 1
    width = max(width, minimum, 4)
    if modulus > safe_modulus_bound(width):  # pragma: no cover - by construction
        raise ParameterError(f"internal error sizing container for {modulus}")
    return width


@dataclass(frozen=True)
class CapacityReport:
    """Capacity of one subarray for a given coefficient width."""

    rows: int
    cols: int
    width: int
    num_tiles: int
    coeff_rows_per_tile: int
    max_resident_order: int      # largest polynomial kept in one tile
    max_order: int               # largest polynomial across all tiles
    paper_claimed_order: int     # the paper's rows*tiles arithmetic

    @property
    def parallel_polys(self) -> int:
        """How many max_resident_order polynomials run concurrently."""
        return self.num_tiles


def capacity_report(rows: int = 256, cols: int = 256, width: int = 16) -> CapacityReport:
    """Compute what fits in one subarray at a coefficient width.

    Reproduces the §I capacity claims: at 256 bits one tile holds a
    250-point polynomial; at 14 bits, 18 tiles x 250 rows = 4500 points
    (the paper quotes rows x tiles without reserving intermediate rows —
    both numbers are reported).
    """
    if width <= 0 or width > cols:
        raise ParameterError(f"width {width} out of range (0, {cols}]")
    num_tiles = cols // width
    if num_tiles == 0:  # pragma: no cover - guarded above
        raise CapacityError(f"no {width}-bit tile fits in {cols} columns")
    coeff_rows = rows - SCRATCH_ROW_COUNT
    if coeff_rows <= 0:
        raise CapacityError(f"{rows} rows leave no space after scratch reservation")
    return CapacityReport(
        rows=rows,
        cols=cols,
        width=width,
        num_tiles=num_tiles,
        coeff_rows_per_tile=coeff_rows,
        max_resident_order=coeff_rows,
        max_order=coeff_rows * num_tiles,
        paper_claimed_order=coeff_rows * num_tiles,
    )


def tiles_per_polynomial(order: int, rows: int = 256) -> int:
    """Tiles one polynomial occupies (spill tiles beyond the first)."""
    if order <= 0:
        raise ParameterError(f"polynomial order must be positive, got {order}")
    coeff_rows = rows - SCRATCH_ROW_COUNT
    return math.ceil(order / coeff_rows)


def batch_size(order: int, rows: int = 256, cols: int = 256, width: int = 16) -> int:
    """Polynomials processed in parallel by one subarray.

    Raises :class:`CapacityError` when even a single polynomial does not
    fit (the paper's answer there is ganging subarrays).
    """
    report = capacity_report(rows, cols, width)
    k = tiles_per_polynomial(order, rows)
    if k > report.num_tiles:
        raise CapacityError(
            f"a {order}-point polynomial needs {k} tiles of {width} bits; "
            f"the subarray has {report.num_tiles}"
        )
    return report.num_tiles // k
