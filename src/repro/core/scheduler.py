"""Compile complete NTT / INTT instruction streams (Algorithm 1).

The scheduler walks the same loop structure as the gold model in
:mod:`repro.ntt.transform` — identical stage/block/butterfly order and
identical twiddle indexing — but emits SRAM microcode instead of doing
arithmetic.  Twiddles are Montgomery-pre-scaled (``zeta * R mod q``) so
the carry-save product of Algorithm 2 lands directly in the normal
domain (§IV-D).

Compiled programs are position-independent of the *data* (they only
encode row addresses and twiddle bits), so one program stored in the
CTRL/CMD subarray serves every batch — the paper's flexibility story.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.core.butterfly import (
    emit_coefficient_scale,
    emit_ct_butterfly,
    emit_gs_butterfly,
)
from repro.core.layout import DataLayout
from repro.errors import ParameterError
from repro.mont.bitparallel import safe_modulus_bound
from repro.ntt.params import NTTParams
from repro.ntt.twiddles import TwiddleTable
from repro.sram.program import Program


def check_compatible(layout: DataLayout, params: NTTParams) -> None:
    """Refuse a ring the layout cannot hold or multiply safely."""
    if layout.order != params.n:
        raise ParameterError(
            f"layout is sized for order {layout.order}, parameters use {params.n}"
        )
    if params.q > safe_modulus_bound(layout.width):
        raise ParameterError(
            f"modulus {params.q} exceeds the safe bound for a "
            f"{layout.width}-bit container (Observation 1); widen the container"
        )


def ct_butterflies(n: int, twiddles) -> Iterator[Tuple[int, int, int]]:
    """The forward schedule: ``(twiddle, j, k)`` per butterfly, in order.

    Algorithm 1's loop nest, with ``twiddles`` indexed like its zeta
    array (entry 0 unused).  The compiler emits a Cooley–Tukey
    butterfly per item, and :mod:`repro.core.pricing` prices the same
    walk without building a program.
    """
    k = 0
    length = n // 2
    while length > 0:
        for start in range(0, n, 2 * length):
            k += 1
            zeta = twiddles[k]
            for j in range(start, start + length):
                yield zeta, j, j + length
        length //= 2


def gs_butterflies(n: int, twiddles) -> Iterator[Tuple[int, int, int]]:
    """The inverse schedule: ``(twiddle, j, k)`` per Gentleman–Sande
    butterfly, in order (the mirror of :func:`ct_butterflies`)."""
    k = n
    length = 1
    while length < n:
        for start in range(0, n, 2 * length):
            k -= 1
            zeta = twiddles[k]
            for j in range(start, start + length):
                yield zeta, j, j + length
        length *= 2


def inverse_scales(layout: DataLayout, params: NTTParams) -> List[int]:
    """The inverse's ``n^-1`` pass: coefficient ``i``'s Montgomery-scaled
    multiplier at index ``i``."""
    q = params.q
    return [(params.n_inv * pow(2, layout.width, q)) % q] * params.n


def pointwise_scales(layout: DataLayout, params: NTTParams,
                     other_hat) -> List[int]:
    """Coefficient ``i``'s Montgomery-scaled multiplier in the pointwise
    product against ``other_hat``."""
    check_compatible(layout, params)
    if len(other_hat) != params.n:
        raise ParameterError(
            f"expected {params.n} NTT-domain coefficients, got {len(other_hat)}"
        )
    q = params.q
    r = pow(2, layout.width, q)
    return [(value % q) * r % q for value in other_hat]


def compile_ntt_from_twiddles(layout: DataLayout, twiddles,
                              name: str = "ntt") -> Program:
    """Forward NTT program from an explicit (scaled) twiddle table.

    ``twiddles`` is indexed like Algorithm 1's zeta array (entry 0
    unused).  The schedule (and hence the cycle/energy cost) only
    depends on the twiddle bit patterns, not on their number theory.
    """
    program = Program(name=name)
    for zeta, j, k in ct_butterflies(layout.order, twiddles):
        emit_ct_butterfly(program, layout, j, k, zeta)
    return program


def compile_ntt(layout: DataLayout, params: NTTParams,
                table: TwiddleTable = None) -> Program:
    """Forward negacyclic NTT program: standard order in, bit-reversed out."""
    check_compatible(layout, params)
    table = table or TwiddleTable(params)
    twiddles = table.forward_scaled(layout.width)
    return compile_ntt_from_twiddles(
        layout, twiddles, name=f"ntt-n{params.n}-q{params.q}-w{layout.width}"
    )


def compile_intt(layout: DataLayout, params: NTTParams,
                 table: TwiddleTable = None) -> Program:
    """Inverse negacyclic NTT program: bit-reversed in, standard order out.

    Ends with the ``n^-1`` scaling pass (one constant multiplication per
    coefficient), as the gold model does.
    """
    check_compatible(layout, params)
    table = table or TwiddleTable(params)
    program = Program(name=f"intt-n{params.n}-q{params.q}-w{layout.width}")
    for zeta, j, k in gs_butterflies(params.n,
                                     table.inverse_scaled(layout.width)):
        emit_gs_butterfly(program, layout, j, k, zeta)
    for index, scale in enumerate(inverse_scales(layout, params)):
        emit_coefficient_scale(program, layout, index, scale)
    return program


def compile_pointwise_mul(layout: DataLayout, params: NTTParams,
                          other_hat) -> Program:
    """Pointwise product against a *known* NTT-domain polynomial.

    This is the server-side pattern of R-LWE encryption: one operand
    (e.g. the public key) is fixed, so its NTT-domain coefficients can be
    compiled into twiddle-style constants while the SRAM-resident batch
    supplies the other operand.  Coefficient ``i`` of every slot is
    multiplied by ``other_hat[i]``.
    """
    scales = pointwise_scales(layout, params, other_hat)
    program = Program(name=f"pointwise-n{params.n}-q{params.q}")
    for index, scale in enumerate(scales):
        emit_coefficient_scale(program, layout, index, scale)
    return program


def butterfly_count(n: int) -> int:
    """Number of butterflies in one n-point NTT: (n/2) log2 n."""
    if n < 2 or n & (n - 1):
        raise ParameterError(f"order must be a power of two >= 2, got {n}")
    return (n // 2) * (n.bit_length() - 1)
