"""Functional model of the paper's Algorithm 2: in-memory bit-parallel
Montgomery modular multiplication.

The algorithm scans the multiplier ``A`` bit by bit (LSB first).  The
accumulator ``P`` is kept in carry-save form ``P = Sum + 2*Carry`` so
each step needs only bitwise AND / XOR / OR plus 1-bit shifts — the
exact repertoire of a multi-row SRAM activation with the modified sense
amplifier of Fig. 5(b).  Per iteration:

1. if ``a_i == 1``: ``P += B`` via one 3:2 carry-save compression
   (lines 5–10).  The Carry vector is shifted *left* one bit first —
   safe because its top bit is always 0 (the paper's Observation 1).
2. unconditionally: ``m = M if LSB(P) else 0``; ``P = (P + m) >> 1``
   (lines 11–16).  After adding ``m`` the LSB is always 0 (Observation
   2), so the right shift is exact.

After ``width`` iterations ``P == A * B * 2^-width  (mod M)`` with
``P <= 2M - 1``; a single conditional subtraction canonicalizes it.

This module is *functional* (plain ints): it validates the mathematics
and provides the traced variant used to reproduce the paper's Fig. 6
worked example.  The cycle-level compilation of the same steps onto the
SRAM substrate lives in :mod:`repro.core.modmul`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import ParameterError
from repro.mont import safe_modulus_bound
from repro.mont.csa import carry_save_add, half_add, resolve_carry


def montgomery_expected(a: int, b: int, modulus: int, width: int) -> int:
    """The contract Algorithm 2 must meet: ``a * b * 2^-width mod M``."""
    r_inv = pow(2, -width, modulus)
    return (a * b * r_inv) % modulus


def _validate(a: int, b: int, modulus: int, width: int, allow_tight: bool) -> None:
    if width <= 2:
        raise ParameterError(f"Algorithm 2 requires n > 2, got width={width}")
    if modulus % 2 == 0 or modulus < 3:
        raise ParameterError(f"modulus must be odd and >= 3, got {modulus}")
    if modulus >= (1 << width):
        raise ParameterError(f"modulus {modulus} must satisfy M < R = 2^{width}")
    if not allow_tight and modulus > safe_modulus_bound(width):
        raise ParameterError(
            f"modulus {modulus} exceeds the provably safe bound "
            f"{safe_modulus_bound(width)} for {width} columns; use a wider "
            f"container, bp_modmul_vanilla, or pass allow_tight=True "
            f"(invariant violations then raise at runtime)"
        )
    if not 0 <= a < (1 << width):
        raise ParameterError(f"multiplier A={a} does not fit in {width} bits")
    if not 0 <= b < (1 << width):
        raise ParameterError(f"multiplicand B={b} does not fit in {width} bits")


@dataclass
class IterationTrace:
    """State snapshot after one iteration of Algorithm 2 (one Fig. 6 row)."""

    index: int
    a_bit: int
    sum_after_add: int
    carry_after_add: int
    m_selected: int
    sum_after_reduce: int
    carry_after_reduce: int

    @property
    def partial_value(self) -> int:
        """Accumulator value ``P = Sum + 2*Carry`` at iteration end."""
        return resolve_carry(self.sum_after_reduce, self.carry_after_reduce)


@dataclass
class BitParallelResult:
    """Full result of a traced Algorithm 2 run."""

    a: int
    b: int
    modulus: int
    width: int
    sum_bits: int
    carry_bits: int
    result: int
    iterations: List[IterationTrace] = field(default_factory=list)

    @property
    def raw_value(self) -> int:
        """``Sum + 2*Carry`` before the final conditional subtraction."""
        return resolve_carry(self.sum_bits, self.carry_bits)


def _reduce_step(sum_bits: int, carry_bits: int, modulus: int, width: int) -> tuple:
    """Lines 11–16: ``P = (P + m) >> 1`` in carry-save form.

    Returns ``(carry, sum, m)``.
    """
    m = modulus if sum_bits & 1 else 0
    c1, s1 = half_add(sum_bits, m, width)
    if s1 & 1:
        raise ParameterError(
            "LSB of Sum + m is 1; the paper's Observation 2 failed "
            "(modulus must be odd)"
        )
    s1 >>= 1  # Observation 2: exact halving.
    c2, s2 = half_add(s1, c1, width)
    c3, new_sum = carry_bits & s2, carry_bits ^ s2
    if c2 & c3:
        raise ParameterError("carry vectors overlap in reduction step")
    return c2 | c3, new_sum, m


def bp_modmul(
    a: int,
    b: int,
    modulus: int,
    width: int,
    *,
    normalize: bool = True,
    allow_tight: bool = False,
) -> int:
    """Algorithm 2: compute ``a * b * 2^-width mod M`` bit-parallelly.

    Args:
        a: multiplier (its bits drive the conditional adds; in BP-NTT
           this is the twiddle factor hidden in the control commands).
        b: multiplicand (an SRAM-resident coefficient row).
        modulus: odd modulus; by default restricted to the provably safe
           ``M < 2**(width-1)`` (see :func:`safe_modulus_bound`).
        width: operand bitwidth *n* (number of iterations / columns).
        normalize: apply the final conditional subtraction so the result
           is canonical.  With ``normalize=False`` the raw
           ``Sum + 2*Carry`` value (< 2M) is returned, matching what the
           SRAM array holds before the carry-resolve program runs.
        allow_tight: accept moduli up to ``2**width - 1`` as the paper
           states; invariant violations then raise
           :class:`~repro.errors.ParameterError` at runtime.

    Returns:
        ``A * B * R^-1 mod M`` with ``R = 2**width``.
    """
    _validate(a, b, modulus, width, allow_tight)
    sum_bits = 0
    carry_bits = 0
    for i in range(width):
        if (a >> i) & 1:
            carry_bits, sum_bits = carry_save_add(sum_bits, carry_bits, b, width)
        carry_bits, sum_bits, _ = _reduce_step(sum_bits, carry_bits, modulus, width)
    value = resolve_carry(sum_bits, carry_bits)
    if not normalize:
        return value
    return value - modulus if value >= modulus else value


def bp_modmul_vanilla(a: int, b: int, modulus: int, width: int) -> int:
    """The n+1-column "vanilla" variant of Algorithm 2 (§IV-D).

    Without the two shift observations, intermediate values occupy
    ``width + 1`` columns.  At that width the optimization's safety
    bound holds for *every* ``M < 2**width``, so this is also the
    correct fallback for tight moduli (e.g. Dilithium's q = 2^23 - 2^13
    + 1 in 23 data bits).  The paper quantifies the cost: a 256-column
    array fits only ``256 // (width+1)`` operands instead of
    ``256 // width`` (7 vs 8 for 32-bit words, i.e. 12.5% lower
    throughput).
    """
    columns = width + 1
    if modulus >= (1 << width):
        raise ParameterError(f"modulus {modulus} must satisfy M < 2^{width}")
    sum_bits = 0
    carry_bits = 0
    for i in range(width):
        if (a >> i) & 1:
            carry_bits, sum_bits = carry_save_add(sum_bits, carry_bits, b, columns)
        carry_bits, sum_bits, _ = _reduce_step(sum_bits, carry_bits, modulus, columns)
    value = resolve_carry(sum_bits, carry_bits)
    return value - modulus if value >= modulus else value


def bp_modmul_traced(a: int, b: int, modulus: int, width: int) -> BitParallelResult:
    """Run Algorithm 2 recording every iteration (reproduces Fig. 6).

    The paper's worked example — ``A=4, B=3, M=7, n=3`` — yields
    ``P = 0b001 + (0b010 << 1) = 5``:

    >>> r = bp_modmul_traced(4, 3, 7, 3)
    >>> (r.sum_bits, r.carry_bits, r.result)
    (1, 2, 5)
    """
    _validate(a, b, modulus, width, allow_tight=True)
    sum_bits = 0
    carry_bits = 0
    iterations: List[IterationTrace] = []
    for i in range(width):
        a_bit = (a >> i) & 1
        if a_bit:
            carry_bits, sum_bits = carry_save_add(sum_bits, carry_bits, b, width)
        sum_after_add, carry_after_add = sum_bits, carry_bits
        carry_bits, sum_bits, m = _reduce_step(sum_bits, carry_bits, modulus, width)
        iterations.append(
            IterationTrace(
                index=i,
                a_bit=a_bit,
                sum_after_add=sum_after_add,
                carry_after_add=carry_after_add,
                m_selected=m,
                sum_after_reduce=sum_bits,
                carry_after_reduce=carry_bits,
            )
        )
    value = resolve_carry(sum_bits, carry_bits)
    result = value - modulus if value >= modulus else value
    return BitParallelResult(
        a=a,
        b=b,
        modulus=modulus,
        width=width,
        sum_bits=sum_bits,
        carry_bits=carry_bits,
        result=result,
        iterations=iterations,
    )


def format_trace(result: BitParallelResult) -> str:
    """Render a traced run in the style of the paper's Fig. 6."""
    width = result.width

    def bits(value: int) -> str:
        return format(value, f"0{width}b")

    lines = [
        f"A={result.a}, B={result.b}, M={result.modulus}, n={width}",
        f"expected A*B*R^-1 mod M = "
        f"{montgomery_expected(result.a, result.b, result.modulus, width)}",
    ]
    for it in result.iterations:
        lines.append(
            f"iter {it.index}: a_i={it.a_bit}  "
            f"S={bits(it.sum_after_reduce)} C={bits(it.carry_after_reduce)}  "
            f"m={'M' if it.m_selected else '0'}  P={it.partial_value}"
        )
    lines.append(
        f"output: P = {bits(result.sum_bits)} + {bits(result.carry_bits)}<<1 "
        f"= {result.raw_value} -> {result.result}"
    )
    return "\n".join(lines)
