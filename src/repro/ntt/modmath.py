"""Modular arithmetic over Z_q.

Plain helpers (``mod_add`` .. ``mod_pow``) are the readable reference
used by the gold model.  :class:`BarrettReducer` implements the
division-free reduction CPUs typically use, included both as a software
baseline for the roofline analysis and to document the contrast with
the paper's Montgomery-based in-SRAM approach (Barrett needs a wide
multiply, which bitline logic cannot do cheaply; Montgomery needs only
conditional adds and shifts — the heart of Algorithm 2).

:func:`default_relin_base` and :func:`relin_digit_count` size the
base-T digit decomposition of Z_q coefficients that BFV-lite
relinearization (:mod:`repro.crypto.he`) and the ``he-mul`` serving
scenario both use.
"""

from __future__ import annotations

from repro.errors import ParameterError


def _check_modulus(q: int) -> None:
    if q < 2:
        raise ParameterError(f"modulus must be >= 2, got {q}")


def mod_add(a: int, b: int, q: int) -> int:
    """``(a + b) mod q`` with inputs reduced into canonical range."""
    _check_modulus(q)
    return (a + b) % q


def mod_sub(a: int, b: int, q: int) -> int:
    """``(a - b) mod q`` in canonical range [0, q)."""
    _check_modulus(q)
    return (a - b) % q


def mod_mul(a: int, b: int, q: int) -> int:
    """``(a * b) mod q``."""
    _check_modulus(q)
    return (a * b) % q


def mod_pow(base: int, exponent: int, q: int) -> int:
    """``base ** exponent mod q`` by square-and-multiply."""
    _check_modulus(q)
    if exponent < 0:
        return mod_pow(mod_inv(base, q), -exponent, q)
    return pow(base, exponent, q)


def mod_inv(a: int, q: int) -> int:
    """Multiplicative inverse of ``a`` mod ``q`` (extended Euclid).

    Raises :class:`ParameterError` when ``gcd(a, q) != 1``.
    """
    _check_modulus(q)
    a %= q
    if a == 0:
        raise ParameterError("0 has no modular inverse")
    old_r, r = a, q
    old_s, s = 1, 0
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
    if old_r != 1:
        raise ParameterError(f"{a} is not invertible mod {q} (gcd={old_r})")
    return old_s % q


def default_relin_base(q: int) -> int:
    """The default base-T of the relinearization decomposition for ``q``.

    ``2^ceil(bits/3)`` keeps the decomposition at three digits for any
    modulus, balancing evaluation-key size (more digits = more keys and
    more products per relinearization) against noise (a larger base
    means larger digits multiplying the key noise).
    """
    return 1 << -(-q.bit_length() // 3)


def relin_digit_count(q: int, base: int) -> int:
    """Digits needed to represent a canonical Z_q coefficient in base-T."""
    if base < 2:
        raise ParameterError(f"decomposition base must be >= 2, got {base}")
    digits = 1
    span = base
    while span < q:
        span *= base
        digits += 1
    return digits


class BarrettReducer:
    """Barrett reduction: ``x mod q`` without division at runtime.

    Precomputes ``mu = floor(4^k / q)`` where ``k = ceil(log2 q)``; the
    reduction of ``x < q**2`` then costs two multiplies, a shift and at
    most two conditional subtractions.

    >>> r = BarrettReducer(3329)
    >>> r.reduce(3329 * 3328 + 17)
    17
    """

    def __init__(self, q: int):
        _check_modulus(q)
        self.q = q
        self.shift = 2 * q.bit_length()
        self.mu = (1 << self.shift) // q

    def reduce(self, x: int) -> int:
        """Reduce ``0 <= x < q**2`` to ``x mod q``."""
        if x < 0 or x >= self.q * self.q:
            raise ParameterError(
                f"Barrett input must satisfy 0 <= x < q^2, got {x} for q={self.q}"
            )
        estimate = (x * self.mu) >> self.shift
        remainder = x - estimate * self.q
        while remainder >= self.q:
            remainder -= self.q
        return remainder

    def mul(self, a: int, b: int) -> int:
        """``(a * b) mod q`` for canonical inputs via Barrett reduction."""
        if not (0 <= a < self.q and 0 <= b < self.q):
            raise ParameterError("Barrett mul expects canonical residues")
        return self.reduce(a * b)

    def __repr__(self) -> str:
        return f"BarrettReducer(q={self.q})"
