"""Montgomery arithmetic: word-level reference and the paper's Algorithm 2.

- :mod:`repro.mont.word` — the textbook word-level Montgomery REDC used
  to define what the bit-parallel algorithm must compute.
- :mod:`repro.mont.csa` — carry-save 3:2 compressor primitives on
  fixed-width bit vectors (the Sum/Carry machinery of §IV-D).
- :mod:`repro.mont.bitparallel` — the functional model of Algorithm 2,
  step-traceable so Fig. 6 of the paper can be reproduced exactly.

:func:`safe_modulus_bound`, the modulus bound of Algorithm 2's n-column
optimization, is defined here rather than in a submodule: the engine's
container sizing and kernel scheduler check it, and need none of the
functional model.
"""

from repro.registry import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bitparallel": ("BitParallelResult", "IterationTrace", "bp_modmul", "bp_modmul_traced",
                     "bp_modmul_vanilla", "format_trace", "montgomery_expected"),
    ".csa": ("carry_save_add", "half_add", "resolve_carry"),
    ".word": ("MontgomeryContext",),
})

__all__.append("safe_modulus_bound")


def safe_modulus_bound(width: int) -> int:
    """Largest modulus provably safe for the n-column optimization.

    The paper states Observation 1 ("the highest bit of Carry is always
    0") unconditionally for any ``M < 2^n``.  Exhaustive simulation in
    this reproduction shows it actually fails once ``M`` exceeds roughly
    ``0.62 * 2^n`` (e.g. first failure at M=29 for n=5, M=49 for n=6);
    ``M < 2^(n-1)`` is provably safe: the accumulator invariant
    ``P = Sum + 2*Carry <= 2M - 1`` gives ``Carry <= M - 1 < 2^(n-1)``,
    so the left shift of line 7 never overflows the n columns.

    Practical consequence (recorded in EXPERIMENTS.md): a 14-bit modulus
    like 12289 needs a 15-bit container, or the n+1-column *vanilla*
    variant (:func:`~repro.mont.bitparallel.bp_modmul_vanilla`),
    matching the paper's own throughput discussion of the 33-column
    fallback.
    """
    return (1 << (width - 1)) - 1
