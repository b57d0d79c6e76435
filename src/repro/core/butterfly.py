"""Butterfly microcode (Algorithm 1 lines 6-8 and the GS mirror).

Row choreography is the delicate part: the six scratch rows must cover
the Montgomery product, carry resolution, canonicalization, the modular
add/sub pair, and (in spill layouts) operand staging — without any
in-flight value being clobbered.  The ownership timeline is spelled out
in each emitter.

Cooley–Tukey (forward)::

    t        = zeta * a[k]          # modmul -> (Sum, Carry); resolve -> Sum
    a[k]     = a[j] - t             # computed in Carry (free after resolve)
    a[j]     = a[j] + t             # computed in landing / in place

Gentleman–Sande (inverse)::

    s        = a[j] + a[k]          # computed in Sum
    d        = a[j] - a[k]          # computed in landing (modmul's B!)
    a[j]     = s                    # stored before modmul clobbers Sum
    a[k]     = zeta * d             # modmul(B=landing) -> resolve -> Sum
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.addsub import (
    emit_cond_subtract,
    emit_fetch,
    emit_mod_add,
    emit_mod_sub,
    emit_resolve,
    emit_store,
)
from repro.core.layout import DataLayout
from repro.core.modmul import emit_modmul

if TYPE_CHECKING:
    from repro.sram.program import Program


def emit_ct_butterfly(program: Program, layout: DataLayout, j: int, k: int,
                      twiddle: int) -> None:
    """Forward (Cooley–Tukey) butterfly on coefficients ``j`` and ``k``.

    ``twiddle`` is the Montgomery-scaled zeta.  Works for resident and
    spill layouts; all slots of the batch execute in lockstep.
    """
    s = layout.scratch
    loc_j = layout.locate(j)
    loc_k = layout.locate(k)
    # t = zeta * a[k] * R^-1: B is readable from its own row even when
    # spilled only in a resident layout; spilled operands slide onto the
    # base tile first (reads of foreign-tile columns are harmless — only
    # writes must be gated).
    b_row = emit_fetch(program, layout, s.landing, loc_k.row, loc_k.tile_offset)
    emit_modmul(program, layout, twiddle, b_row)
    emit_resolve(program, layout)            # t -> Sum; Carry becomes free
    emit_cond_subtract(program, layout, s.sum)
    # u = a[j]: the landing row is free again (B fully consumed).
    u_row = emit_fetch(program, layout, s.landing, loc_j.row, loc_j.tile_offset)
    # a[k] = u - t, staged in the free Carry row.
    emit_mod_sub(program, layout, s.carry, u_row, s.sum)
    # a[j] = u + t.  In resident layouts this can land in a[j]'s row
    # directly; spill layouts stage in the landing row (reads precede the
    # writeback inside each instruction, so dst == u_row is fine).
    add_dst = loc_j.row if not layout.uses_spill else s.landing
    emit_mod_add(program, layout, add_dst, u_row, s.sum)
    if layout.uses_spill:
        emit_store(program, layout, s.landing, loc_j.row, loc_j.tile_offset, s.sum)
    emit_store(program, layout, s.carry, loc_k.row, loc_k.tile_offset, s.landing)


def emit_gs_butterfly(program: Program, layout: DataLayout, j: int, k: int,
                      twiddle: int) -> None:
    """Inverse (Gentleman–Sande) butterfly on coefficients ``j`` and ``k``."""
    s = layout.scratch
    loc_j = layout.locate(j)
    loc_k = layout.locate(k)
    # Stage spilled operands: u may use the (currently free) Carry row,
    # v uses the landing row because it must survive the modmul.
    u_row = emit_fetch(program, layout, s.carry, loc_j.row, loc_j.tile_offset)
    v_row = emit_fetch(program, layout, s.landing, loc_k.row, loc_k.tile_offset)
    # s = u + v staged in Sum (free scratch before the modmul).
    emit_mod_add(program, layout, s.sum, u_row, v_row)
    # d = u - v staged in the landing row (it becomes the modmul's B).
    emit_mod_sub(program, layout, s.landing, u_row, v_row)
    # Commit a[j] = s before the modmul reuses Sum.  The Carry row is
    # free now (u consumed) and serves as the spill shuttle.
    emit_store(program, layout, s.sum, loc_j.row, loc_j.tile_offset, s.carry)
    # a[k] = zeta * d.
    emit_modmul(program, layout, twiddle, s.landing)
    emit_resolve(program, layout)
    emit_cond_subtract(program, layout, s.sum)
    emit_store(program, layout, s.sum, loc_k.row, loc_k.tile_offset, s.landing)


def emit_coefficient_scale(program: Program, layout: DataLayout, index: int,
                           scale: int) -> None:
    """Multiply one coefficient by a compile-time constant (INTT n^-1).

    ``scale`` must already be Montgomery-scaled (``value * R mod M``).
    """
    s = layout.scratch
    loc = layout.locate(index)
    b_row = emit_fetch(program, layout, s.landing, loc.row, loc.tile_offset)
    emit_modmul(program, layout, scale, b_row)
    emit_resolve(program, layout)
    emit_cond_subtract(program, layout, s.sum)
    emit_store(program, layout, s.sum, loc.row, loc.tile_offset, s.landing)
