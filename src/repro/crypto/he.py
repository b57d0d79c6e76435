"""Toy leveled homomorphic encryption (BFV-lite) over the NTT ring.

The paper motivates BP-NTT with homomorphic encryption: the HE security
levels in §I (1024-point polynomials, 16/21/29-bit moduli) are exactly
the ``he-16bit/21bit/29bit`` parameter sets of this library.  This
module implements the operations whose cost is dominated by NTT-based
polynomial products:

- encryption / decryption with scale factor ``Delta = floor(q / t)``
  (plaintexts in Z_t[x]/(x^n + 1)),
- **homomorphic addition** (ciphertext + ciphertext),
- **plaintext multiplication** (ciphertext * plaintext polynomial),
- **ciphertext multiplication** with relinearization: the BFV tensor
  product's three components, the t/q rescale-and-round, and base-T
  evaluation keys (:meth:`HEContext.relin_keygen`) that fold the
  degree-2 term back into an ``(u, v)`` pair.

Ciphertext-ciphertext multiplication is what gives the scheme
*multiplicative depth*; every one of its constituent operations is a
negacyclic polynomial product — the exact kernel BP-NTT accelerates —
which is why the serving runtime can lower a logical ct x ct call into
engine requests (:func:`repro.serve.request.he_multiply_requests`).

Noise budget: every operation adds noise; decryption is guaranteed
while the accumulated noise stays at or below
:attr:`HEContext.noise_budget` (= ``(Delta - 1) // 2``).
:meth:`HEContext.noise_of` exposes the actual noise so tests can verify
the budget arithmetic, ciphertexts carry their multiplicative
:attr:`~HECiphertext.level`, and :func:`depth_profile` charts noise per
level until the budget is exhausted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ParameterError
from repro.ntt.modmath import default_relin_base, relin_digit_count
from repro.ntt.params import NTTParams
from repro.ntt.polynomial import Polynomial
from repro.ntt.transform import polymul_negacyclic
from repro.utils.primes import find_ntt_prime


@dataclass(frozen=True)
class HEKeyPair:
    """Public key (a, b = a*s + e) and secret key s."""

    a: Polynomial
    b: Polynomial
    s: Polynomial


@dataclass(frozen=True)
class RelinKey:
    """Base-T evaluation keys encrypting ``T^i * s^2``.

    Component ``i`` is the pair ``(a_i, b_i = a_i*s + e_i + T^i*s^2)``:
    summing ``digit_i * b_i - (digit_i * a_i) * s`` over the base-T
    digits of a degree-2 ciphertext component reconstructs ``d2 * s^2``
    plus a small noise term, which is what lets
    :meth:`HEContext.multiply` fold the tensor product back into an
    ``(u, v)`` pair.  The components are long-lived key material — in
    the serving runtime they are pool operands whose products coalesce
    across client calls.
    """

    base: int
    components: Tuple[Tuple[Polynomial, Polynomial], ...]

    @property
    def digits(self) -> int:
        """Number of base-T digits the key can absorb."""
        return len(self.components)


@dataclass(frozen=True)
class HECiphertext:
    """An LPR ciphertext (u, v) encrypting Delta * m + noise.

    ``level`` counts the ciphertext-ciphertext multiplications on the
    deepest path that produced it (0 for a fresh encryption); additions
    and plaintext products keep the maximum of their inputs' levels.
    """

    u: Polynomial
    v: Polynomial
    level: int = 0

    def __add__(self, other: "HECiphertext") -> "HECiphertext":
        """Homomorphic addition: coefficient-wise on both components."""
        return HECiphertext(
            u=self.u + other.u,
            v=self.v + other.v,
            level=max(self.level, other.level),
        )


#: Auxiliary NTT rings for the exact integer tensor product, cached by
#: (n, bits) so every context over the same ring shares one root search.
_TENSOR_RINGS: Dict[Tuple[int, int], NTTParams] = {}


def _tensor_ring(params: NTTParams) -> NTTParams:
    """An NTT-friendly prime large enough for exact Z[x]/(x^n+1) products.

    The BFV tensor is computed over the *integers* (centered lifts of
    the ciphertext components) before the t/q rescale; reducing mod q
    first would destroy the scale arithmetic.  A single auxiliary prime
    Q with ``|coeff| < Q/2`` for every tensor coefficient — including
    the two-product sum d1 — makes the negacyclic NTT product exact
    after re-centering.
    """
    half = params.q // 2 + 1
    bound = 4 * params.n * half * half  # d1 sums two n-term products
    bits = bound.bit_length() + 1
    key = (params.n, bits)
    if key not in _TENSOR_RINGS:
        _TENSOR_RINGS[key] = NTTParams(
            n=params.n, q=find_ntt_prime(bits, params.n),
            name=f"tensor ring for n={params.n}, {bits}-bit",
        )
    return _TENSOR_RINGS[key]


class HEContext:
    """BFV-lite over Z_q[x]/(x^n + 1) with plaintext modulus ``t``."""

    def __init__(self, params: NTTParams, plaintext_modulus: int = 16,
                 noise_bound: int = 1, rng: Optional[random.Random] = None,
                 secret_weight: Optional[int] = None):
        if not params.negacyclic:
            raise ParameterError("HE uses the negacyclic ring x^n + 1")
        if plaintext_modulus < 2:
            raise ParameterError(
                f"plaintext modulus must be >= 2, got {plaintext_modulus}"
            )
        if params.q // plaintext_modulus < 4:
            raise ParameterError(
                f"q={params.q} leaves no noise room for t={plaintext_modulus}"
            )
        self.params = params
        self.t = plaintext_modulus
        self.delta = params.q // plaintext_modulus
        self.noise_bound = noise_bound
        self.rng = rng or random.Random()
        # Sparse ternary secrets (and encryption randomness): the
        # multiply noise is dominated by t * (k1*e2 + k2*e1), where the
        # k_i carry-polynomials scale with the secret's Hamming weight.
        # Capping the weight (64 is the classic sparse-key setting) is
        # what lets the 16-bit security level absorb a ciphertext
        # product; dense ternary would blow its budget 2x.
        if secret_weight is None:
            secret_weight = min(64, max(1, params.n // 4))
        if not 1 <= secret_weight <= params.n:
            raise ParameterError(
                f"secret weight must be in [1, {params.n}], got {secret_weight}"
            )
        self.secret_weight = secret_weight

    # -- key management ----------------------------------------------------

    def _small(self) -> Polynomial:
        return Polynomial.random_small(self.params, self.noise_bound, self.rng)

    def _sparse_ternary(self) -> Polynomial:
        """A ternary polynomial with exactly ``secret_weight`` nonzeros."""
        coeffs = [0] * self.params.n
        for index in self.rng.sample(range(self.params.n), self.secret_weight):
            coeffs[index] = 1 if self.rng.randrange(2) else -1
        return Polynomial(coeffs, self.params)

    def keygen(self) -> HEKeyPair:
        """Sample an LPR key pair (sparse ternary secret)."""
        a = Polynomial.random(self.params, self.rng)
        s = self._sparse_ternary()
        e = self._small()
        return HEKeyPair(a=a, b=a * s + e, s=s)

    def relin_keygen(self, key: HEKeyPair, *,
                     base: Optional[int] = None) -> RelinKey:
        """Sample base-T evaluation keys for ``key``'s secret.

        Component ``i`` encrypts ``T^i * s^2`` under ``s``; the default
        base keeps the decomposition at three digits (see
        :func:`default_relin_base`).
        """
        base = default_relin_base(self.params.q) if base is None else base
        digits = relin_digit_count(self.params.q, base)
        s_squared = key.s * key.s
        components = []
        power = 1
        for _ in range(digits):
            a_i = Polynomial.random(self.params, self.rng)
            e_i = self._small()
            b_i = a_i * key.s + e_i + power * s_squared
            components.append((a_i, b_i))
            power = power * base % self.params.q
        return RelinKey(base=base, components=tuple(components))

    # -- encryption ----------------------------------------------------------

    def _encode(self, message: Sequence[int]) -> Polynomial:
        if len(message) != self.params.n:
            raise ParameterError(
                f"message needs {self.params.n} coefficients, got {len(message)}"
            )
        return Polynomial([(m % self.t) * self.delta for m in message], self.params)

    def encrypt(self, key: HEKeyPair, message: Sequence[int]) -> HECiphertext:
        """Encrypt a Z_t message vector."""
        r = self._sparse_ternary()
        e1 = self._small()
        e2 = self._small()
        return HECiphertext(
            u=key.a * r + e1,
            v=key.b * r + e2 + self._encode(message),
        )

    def decrypt(self, key: HEKeyPair, ciphertext: HECiphertext) -> List[int]:
        """Round (v - u*s) / Delta to recover the Z_t message.

        The noisy coefficients are *centered* into (-q/2, q/2] before
        rounding, and the rounding is exact integer arithmetic
        (``(c + Delta//2) // Delta``): rounding the canonical [0, q)
        representatives with float ``round()`` mis-decodes coefficients
        whose noise sits exactly at the budget boundary (half-even ties
        resolve by message parity instead of noise magnitude).
        """
        noisy = ciphertext.v - ciphertext.u * key.s
        delta = self.delta
        half = delta // 2
        return [((c + half) // delta) % self.t for c in noisy.centered()]

    def noise_of(self, key: HEKeyPair, ciphertext: HECiphertext,
                 message: Sequence[int]) -> int:
        """Max |noise| of a ciphertext known to encrypt ``message``."""
        noisy = ciphertext.v - ciphertext.u * key.s - self._encode(message)
        return max(abs(c) for c in noisy.centered())

    @property
    def noise_budget(self) -> int:
        """Decryption is guaranteed while noise stays at or below this.

        ``(Delta - 1) // 2``: the intervals ``Delta*m ± budget`` must
        not touch, so for even ``Delta`` the last representable noise
        value ``Delta/2`` is ambiguous and lies *outside* the budget
        (the old ``Delta // 2`` bound overstated it by one there).
        """
        return (self.delta - 1) // 2

    # -- homomorphic operations -----------------------------------------------

    def add(self, a: HECiphertext, b: HECiphertext) -> HECiphertext:
        """Homomorphic addition (messages add in Z_t)."""
        return a + b

    def multiply_plain(self, ciphertext: HECiphertext,
                       plaintext: Sequence[int]) -> HECiphertext:
        """Multiply an encrypted message by a public Z_t polynomial.

        Both ciphertext components are multiplied by the (unscaled)
        plaintext polynomial — two negacyclic products, the exact
        workload BP-NTT accelerates server-side.
        """
        if len(plaintext) != self.params.n:
            raise ParameterError(
                f"plaintext needs {self.params.n} coefficients, got {len(plaintext)}"
            )
        p = Polynomial([m % self.t for m in plaintext], self.params)
        return HECiphertext(u=ciphertext.u * p, v=ciphertext.v * p,
                            level=ciphertext.level)

    # -- ciphertext multiplication -------------------------------------------

    def _lift(self, poly: Polynomial) -> List[int]:
        """Centered integer lift, re-reduced into the auxiliary ring."""
        big_q = _tensor_ring(self.params).q
        return [c % big_q for c in poly.centered()]

    def multiply_parts(self, ct1: HECiphertext,
                       ct2: HECiphertext) -> Tuple[Polynomial, Polynomial, Polynomial]:
        """The rescaled BFV tensor product ``(d0, d1, d2)`` of two ciphertexts.

        Over the integers (centered lifts), the product of the two
        decryption phases expands to ``d0 - d1*s + d2*s^2`` with

        - ``d0 = v1 * v2``,
        - ``d1 = u1 * v2 + u2 * v1``,
        - ``d2 = u1 * u2``

        (four negacyclic products — the constituent kernels the serving
        trail prices individually).  Each component is then scaled by
        ``t/q`` and rounded back into Z_q, which turns the ``Delta^2``
        message scale into ``Delta``.
        """
        aux = _tensor_ring(self.params)
        big_q = aux.q
        u1, v1, u2, v2 = map(self._lift, (ct1.u, ct1.v, ct2.u, ct2.v))
        d0 = polymul_negacyclic(v1, v2, aux)
        d2 = polymul_negacyclic(u1, u2, aux)
        d1 = [
            (x + y) % big_q
            for x, y in zip(polymul_negacyclic(u1, v2, aux),
                            polymul_negacyclic(u2, v1, aux))
        ]
        return tuple(self._rescale(d) for d in (d0, d1, d2))

    def degree_two_component(self, ct1: HECiphertext,
                             ct2: HECiphertext) -> Polynomial:
        """Just the rescaled ``d2 = u1 * u2`` tensor component.

        The serving adapter needs only d2 (its base-T digits are the
        relinearization payloads); computing the full tensor would
        waste three of the four products host-side.
        """
        aux = _tensor_ring(self.params)
        return self._rescale(
            polymul_negacyclic(self._lift(ct1.u), self._lift(ct2.u), aux)
        )

    def _rescale(self, coeffs: Sequence[int]) -> Polynomial:
        """Round ``t/q`` times an exact (aux-ring) tensor component into Z_q.

        The aux-ring coefficients are re-centered to their true integer
        values, then ``round(t * c / q)`` is taken with exact integer
        arithmetic (ties away from zero).
        """
        aux_q = _tensor_ring(self.params).q
        t, q = self.t, self.params.q
        out = []
        for c in coeffs:
            if c > aux_q // 2:
                c -= aux_q
            num = t * c
            if num >= 0:
                rounded = (2 * num + q) // (2 * q)
            else:
                rounded = -((2 * -num + q) // (2 * q))
            out.append(rounded % q)
        return Polynomial(out, self.params)

    def decompose(self, poly: Polynomial, base: int) -> List[Polynomial]:
        """Base-T digits of a polynomial's canonical coefficients.

        Returns ``digits`` polynomials with coefficients in ``[0, T)``
        satisfying ``sum(T^i * digit_i) == poly`` exactly — the
        decomposition the relinearization keys are built against.
        """
        digits = relin_digit_count(self.params.q, base)
        rows: List[List[int]] = [[] for _ in range(digits)]
        for c in poly.coeffs:
            for row in rows:
                row.append(c % base)
                c //= base
        return [Polynomial(row, self.params) for row in rows]

    def check_relin_key(self, relin_key: RelinKey) -> None:
        """Reject a relinearization key that cannot absorb this ring's d2.

        A key with fewer digits than ``relin_digit_count(q, base)``
        would silently drop the high digits of the degree-2 component.
        """
        needed = relin_digit_count(self.params.q, relin_key.base)
        if relin_key.digits != needed:
            raise ParameterError(
                f"relinearization key has {relin_key.digits} digits; base "
                f"{relin_key.base} needs {needed} for q={self.params.q}"
            )

    def multiply(self, ct1: HECiphertext, ct2: HECiphertext,
                 relin_key: RelinKey) -> HECiphertext:
        """Homomorphic product of two ciphertexts (messages multiply in Z_t).

        Tensor, rescale (:meth:`multiply_parts`), then relinearize: the
        base-T digits of the degree-2 component multiply the evaluation
        keys, folding ``d2 * s^2`` back into an ``(u, v)`` pair.  The
        result's :attr:`~HECiphertext.level` is one past the deeper
        input's.
        """
        self.check_relin_key(relin_key)
        d0, d1, d2 = self.multiply_parts(ct1, ct2)
        u, v = d1, d0
        for digit, (a_i, b_i) in zip(self.decompose(d2, relin_key.base),
                                     relin_key.components):
            u = u + digit * a_i
            v = v + digit * b_i
        return HECiphertext(u=u, v=v, level=max(ct1.level, ct2.level) + 1)

    def __repr__(self) -> str:
        return (
            f"HEContext({self.params!r}, t={self.t}, delta={self.delta}, "
            f"noise_bound={self.noise_bound})"
        )


@dataclass(frozen=True)
class DepthRecord:
    """One multiplicative level of a :func:`depth_profile` chain."""

    level: int
    noise: int
    budget: int
    correct: bool

    @property
    def budget_used(self) -> float:
        """Fraction of the noise budget this level consumed."""
        return self.noise / self.budget if self.budget else float("inf")

    @property
    def within_budget(self) -> bool:
        """True when this level is *guaranteed* good: decrypted correctly
        and inside the advertised budget.  (A level can decrypt
        correctly past the budget — the wrapped top message has ``q mod
        t`` extra positive-side slack — but that is luck, not depth.)"""
        return self.correct and self.noise <= self.budget


def format_depth_table(rows: Sequence[Tuple[str, DepthRecord]]) -> str:
    """Fixed-width noise-per-level table for ``(set name, record)`` rows.

    Shared by ``repro.cli hedepth`` and ``benchmarks/bench_he_depth.py``
    so the two surfaces cannot drift.
    """
    header = (f"{'Set':<10} {'Level':>5} {'Noise':>13} {'Budget':>13} "
              f"{'Used':>6} {'Within':>7}")
    lines = [header, "-" * len(header)]
    for name, record in rows:
        lines.append(
            f"{name:<10} {record.level:>5} {record.noise:>13,} "
            f"{record.budget:>13,} {min(record.budget_used, 9.99):>6.0%} "
            f"{'yes' if record.within_budget else 'NO':>7}"
        )
    return "\n".join(lines)


def depth_profile(context: HEContext, *, max_levels: int = 4,
                  relin_base: Optional[int] = None) -> List[DepthRecord]:
    """Noise per multiplicative level until the budget is exhausted.

    Runs a multiply chain — fresh random messages, each level one
    ciphertext-ciphertext product — measuring the actual noise against
    the expected (schoolbook mod-t) message after every level.  The
    chain stops after the first level that decrypts wrong or exceeds
    the budget, so the achievable depth is the count of records with
    ``within_budget``.  Uses ``context.rng`` throughout: seed it for a
    reproducible table.
    """
    from repro.ntt.transform import schoolbook_negacyclic

    key = context.keygen()
    relin = context.relin_keygen(key, base=relin_base)
    n, t = context.params.n, context.t
    message = [context.rng.randrange(t) for _ in range(n)]
    ct = context.encrypt(key, message)
    records = []
    for level in range(1, max_levels + 1):
        fresh = [context.rng.randrange(t) for _ in range(n)]
        ct = context.multiply(ct, context.encrypt(key, fresh), relin)
        message = schoolbook_negacyclic(message, fresh, t)
        noise = context.noise_of(key, ct, message)
        correct = context.decrypt(key, ct) == message
        record = DepthRecord(level=level, noise=noise,
                             budget=context.noise_budget, correct=correct)
        records.append(record)
        if not record.within_budget:
            break
    return records
