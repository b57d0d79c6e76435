"""Iterative NTT / inverse NTT (the paper's Algorithm 1 and its inverse).

Two ring flavours are provided:

- **negacyclic** (``Z_q[x]/(x^n + 1)``) — the lattice-cryptography
  workhorse.  The forward transform is the in-place Cooley–Tukey
  decimation-in-time loop of the paper's Algorithm 1, consuming psi
  powers in bit-reversed order and producing output in bit-reversed
  order; the inverse is the matching Gentleman–Sande loop.  This is the
  schedule the in-SRAM engine (:mod:`repro.core.scheduler`) compiles.
- **cyclic** (``Z_q[x]/(x^n - 1)``) — the textbook DFT-over-Z_q, kept
  for generality and as an independent cross-check.

The negacyclic pair also comes batched (:func:`ntt_negacyclic_batch` /
:func:`intt_negacyclic_batch`): the same schedules run stage by stage
as numpy array operations over many polynomials at once, the way a
bit-parallel subarray runs one butterfly on every row.  They consume the
same twiddle tables in the same order, so results are bit-identical.
Their butterflies are lazy, the host's counterpart of BP-NTT avoiding
division in its modular reduction: each stage reduces only the twiddle
product, with one in-place ``x -= (x // q) * q`` (int64 floor division
by a scalar is ~4x cheaper than ``%``), and lets the sums and
differences grow.  A Python-int bound on ``|coefficient|`` tracks that
growth (``+q`` a forward stage, ``x2`` an inverse stage); before any
stage whose twiddle product could reach ``2**63`` the whole array is
reduced and the bound reset to ``q``, so every intermediate is an exact
integer and the one reduction at the end yields canonical residues.

All functions are pure: they copy their input and return a new list
(the batched pair: a new ``int64`` array).
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, List, Sequence

from repro.errors import ParameterError
from repro.ntt.params import NTTParams
from repro.ntt.twiddles import TwiddleTable
from repro.utils.bitops import bit_reverse_permutation

if TYPE_CHECKING:
    import numpy

#: Largest modulus the batched schedules take: a twiddle product of
#: canonical residues, below ``(q-1)**2``, must fit ``int64``.  The
#: lazy butterflies let coefficients grow past ``q`` and reduce them
#: whole before a stage whose twiddle product could reach ``2**63``.
BATCH_MAX_MODULUS_BITS = 31

_INT64_LIMIT = 2**63


def _validate_input(a: Sequence[int], params: NTTParams) -> List[int]:
    if len(a) != params.n:
        raise ParameterError(f"expected {params.n} coefficients, got {len(a)}")
    return [x % params.q for x in a]


def ntt_negacyclic(a: Sequence[int], params: NTTParams, table: TwiddleTable = None) -> List[int]:
    """Forward negacyclic NTT (Algorithm 1): standard order in, bit-reversed out."""
    if not params.negacyclic:
        raise ParameterError("ntt_negacyclic requires negacyclic parameters")
    coeffs = _validate_input(a, params)
    twiddles = (table or TwiddleTable(params)).forward
    q = params.q
    n = params.n
    k = 0
    length = n // 2
    while length > 0:
        start = 0
        while start < n:
            k += 1
            zeta = twiddles[k]
            for j in range(start, start + length):
                t = (zeta * coeffs[j + length]) % q
                coeffs[j + length] = (coeffs[j] - t) % q
                coeffs[j] = (coeffs[j] + t) % q
            start += 2 * length
        length //= 2
    return coeffs


def intt_negacyclic(a: Sequence[int], params: NTTParams, table: TwiddleTable = None) -> List[int]:
    """Inverse negacyclic NTT (Gentleman–Sande): bit-reversed in, standard out."""
    if not params.negacyclic:
        raise ParameterError("intt_negacyclic requires negacyclic parameters")
    coeffs = _validate_input(a, params)
    twiddles = (table or TwiddleTable(params)).inverse
    q = params.q
    n = params.n
    k = n
    length = 1
    while length < n:
        start = 0
        while start < n:
            k -= 1
            zeta = twiddles[k]
            for j in range(start, start + length):
                t = coeffs[j]
                coeffs[j] = (t + coeffs[j + length]) % q
                coeffs[j + length] = (zeta * (t - coeffs[j + length])) % q
            start += 2 * length
        length *= 2
    n_inv = params.n_inv
    return [(x * n_inv) % q for x in coeffs]


@lru_cache(maxsize=16)
def _twiddle_arrays(table: TwiddleTable):
    import numpy as np

    return (np.asarray(table.forward, dtype=np.int64),
            np.asarray(table.inverse, dtype=np.int64))


def _reduce(x: "numpy.ndarray", q: int) -> "numpy.ndarray":
    """Reduce ``x`` to ``[0, q)`` in place and return it.

    ``x - (x // q) * q`` equals ``x % q`` for ``q > 0``, negative ``x``
    included, because numpy floor-divides; int64 floor division by a
    scalar is ~4x cheaper per element than ``%``.  Within ``q`` of
    int64's floor, ``(x // q) * q`` wraps, but so does the subtraction,
    and the exact remainder it lands on fits.
    """
    quotient = x // q
    quotient *= q
    x -= quotient
    return x


def _as_batch(batch, params: NTTParams) -> "numpy.ndarray":
    """``batch`` as a new canonical ``(rows, n)`` int64 array."""
    import numpy as np

    if not params.negacyclic:
        raise ParameterError("the batched NTT requires negacyclic parameters")
    q = params.q
    if q.bit_length() > BATCH_MAX_MODULUS_BITS:
        raise ParameterError(
            f"the batched NTT takes moduli up to {BATCH_MAX_MODULUS_BITS} bits "
            f"(int64 products); q={q} has {q.bit_length()}"
        )
    try:
        # np.array copies even an int64 array, so the in-place reduction
        # below never writes to the caller's batch.
        rows = np.array(batch, dtype=np.int64)
    except OverflowError:
        # Coefficients past int64 reduce in Python first, as the scalar
        # path reduces every coefficient.
        return _as_batch([[c % q for c in row] for row in batch], params)
    except ValueError:  # rows of different lengths
        raise ParameterError(
            f"every batch row must hold {params.n} coefficients"
        ) from None
    if rows.ndim != 2 or rows.shape[1] != params.n:
        raise ParameterError(
            f"every batch row must hold {params.n} coefficients, "
            f"got a batch of shape {rows.shape}"
        )
    return _reduce(rows, q)


def ntt_negacyclic_batch(batch, params: NTTParams,
                         table: TwiddleTable = None) -> "numpy.ndarray":
    """Forward negacyclic NTT of every row of a ``(rows, n)`` batch.

    :func:`ntt_negacyclic`'s schedule with the inner per-coefficient
    loop replaced by a ``(rows, blocks, 2*length)`` reshape: within a
    stage every block's butterflies run as one array expression,
    broadcasting one zeta per block.  Only the twiddle product is
    reduced per stage; the sums and differences grow by up to ``q`` a
    stage, tracked in ``bound``, and are reduced at the end (and whole,
    before a stage whose twiddle product could wrap).  Returns a
    canonical int64 array.
    """
    import numpy as np

    coeffs = _as_batch(batch, params)
    forward, _ = _twiddle_arrays(table or TwiddleTable(params))
    q, n = params.q, params.n
    rows = coeffs.shape[0]
    bound = q  # |coefficient| < bound
    k = 0
    length = n // 2
    while length > 0:
        if bound * q >= _INT64_LIMIT:  # zeta * high could wrap
            _reduce(coeffs, q)
            bound = q
        blocks_n = n // (2 * length)
        # Algorithm 1 consumes zeta[++k] block by block, in order.
        zetas = forward[k + 1:k + 1 + blocks_n].reshape(1, blocks_n, 1)
        k += blocks_n
        blocks = coeffs.reshape(rows, blocks_n, 2 * length)
        low, high = blocks[:, :, :length], blocks[:, :, length:]
        t = _reduce(zetas * high, q)
        np.subtract(low, t, out=high)
        low += t
        bound += q
        length //= 2
    return _reduce(coeffs, q)


def intt_negacyclic_batch(batch, params: NTTParams,
                          table: TwiddleTable = None) -> "numpy.ndarray":
    """Inverse negacyclic NTT of every row of a ``(rows, n)`` batch.

    :func:`intt_negacyclic`'s Gentleman–Sande schedule, vectorized over
    the batch and each stage's blocks like :func:`ntt_negacyclic_batch`.
    Only the twiddle products are reduced per stage; the sums run
    unreduced and double ``bound`` each stage, under the same guard.
    """
    import numpy as np

    coeffs = _as_batch(batch, params)
    _, inverse = _twiddle_arrays(table or TwiddleTable(params))
    q, n = params.q, params.n
    rows = coeffs.shape[0]
    bound = q  # |coefficient| < bound
    k = n
    length = 1
    while length < n:
        if 2 * bound * q >= _INT64_LIMIT:  # zeta * (low - high) could wrap
            _reduce(coeffs, q)
            bound = q
        blocks_n = n // (2 * length)
        # Gentleman–Sande consumes zeta[--k]: descending within a stage.
        zetas = inverse[k - blocks_n:k][::-1].reshape(1, blocks_n, 1)
        k -= blocks_n
        blocks = coeffs.reshape(rows, blocks_n, 2 * length)
        low, high = blocks[:, :, :length], blocks[:, :, length:]
        diff = low - high
        low += high
        np.multiply(zetas, diff, out=high)
        _reduce(high, q)
        bound *= 2
        length *= 2
    if bound * q >= _INT64_LIMIT:  # coefficient * n_inv could wrap
        _reduce(coeffs, q)
    coeffs *= params.n_inv
    return _reduce(coeffs, q)


def ntt_cyclic(a: Sequence[int], params: NTTParams) -> List[int]:
    """Forward cyclic NTT: standard order in and out.

    Classic iterative Cooley–Tukey: bit-reverse permutation first, then
    log2(n) butterfly stages with omega powers.
    """
    coeffs = _validate_input(a, params)
    n = params.n
    q = params.q
    perm = bit_reverse_permutation(n)
    coeffs = [coeffs[p] for p in perm]
    length = 2
    while length <= n:
        w_len = pow(params.omega, n // length, q)
        for start in range(0, n, length):
            w = 1
            half = length // 2
            for j in range(start, start + half):
                u = coeffs[j]
                v = (coeffs[j + half] * w) % q
                coeffs[j] = (u + v) % q
                coeffs[j + half] = (u - v) % q
                w = (w * w_len) % q
        length *= 2
    return coeffs


def intt_cyclic(a: Sequence[int], params: NTTParams) -> List[int]:
    """Inverse cyclic NTT: same loop with omega^-1, then scale by n^-1."""
    coeffs = _validate_input(a, params)
    n = params.n
    q = params.q
    perm = bit_reverse_permutation(n)
    coeffs = [coeffs[p] for p in perm]
    omega_inv = params.omega_inv
    length = 2
    while length <= n:
        w_len = pow(omega_inv, n // length, q)
        for start in range(0, n, length):
            w = 1
            half = length // 2
            for j in range(start, start + half):
                u = coeffs[j]
                v = (coeffs[j + half] * w) % q
                coeffs[j] = (u + v) % q
                coeffs[j + half] = (u - v) % q
                w = (w * w_len) % q
        length *= 2
    n_inv = params.n_inv
    return [(x * n_inv) % q for x in coeffs]


def ntt(a: Sequence[int], params: NTTParams) -> List[int]:
    """Forward NTT dispatching on the ring flavour of ``params``."""
    if params.negacyclic:
        return ntt_negacyclic(a, params)
    return ntt_cyclic(a, params)


def intt(a: Sequence[int], params: NTTParams) -> List[int]:
    """Inverse NTT dispatching on the ring flavour of ``params``."""
    if params.negacyclic:
        return intt_negacyclic(a, params)
    return intt_cyclic(a, params)


def polymul_negacyclic(
    a: Sequence[int], b: Sequence[int], params: NTTParams
) -> List[int]:
    """Multiply two polynomials in Z_q[x]/(x^n + 1) via the NTT.

    Implements ``ab = NTT^-1(NTT(a) * NTT(b))`` — the identity the paper
    states in §II-B.  Both inputs are in standard coefficient order and
    so is the result; the bit-reversed intermediate order cancels because
    the pointwise product is order-independent.
    """
    if not params.negacyclic:
        raise ParameterError("polymul_negacyclic requires negacyclic parameters")
    table = TwiddleTable(params)
    a_hat = ntt_negacyclic(a, params, table)
    b_hat = ntt_negacyclic(b, params, table)
    q = params.q
    prod = [(x * y) % q for x, y in zip(a_hat, b_hat)]
    return intt_negacyclic(prod, params, table)


def schoolbook_negacyclic(a: Sequence[int], b: Sequence[int], q: int) -> List[int]:
    """O(n^2) negacyclic convolution — the gold standard for tests.

    ``x^n = -1`` folds the high half of the product back with a sign flip.
    """
    n = len(a)
    if len(b) != n:
        raise ParameterError(f"length mismatch: {n} vs {len(b)}")
    result = [0] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            k = i + j
            term = (ai * bj) % q
            if k < n:
                result[k] = (result[k] + term) % q
            else:
                result[k - n] = (result[k - n] - term) % q
    return result


def schoolbook_cyclic(a: Sequence[int], b: Sequence[int], q: int) -> List[int]:
    """O(n^2) cyclic convolution (``x^n = 1``)."""
    n = len(a)
    if len(b) != n:
        raise ParameterError(f"length mismatch: {n} vs {len(b)}")
    result = [0] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            result[(i + j) % n] = (result[(i + j) % n] + ai * bj) % q
    return result
