"""Reference (gold-model) NTT substrate.

This package implements the mathematics the accelerator must agree
with: modular arithmetic over Z_q, the iterative Cooley–Tukey forward
NTT / Gentleman–Sande inverse NTT, the negacyclic polynomial ring
Z_q[x]/(x^n + 1), and the standard lattice-cryptography parameter sets
the paper evaluates (Kyber, Dilithium, Falcon, HE security levels).

Everything in :mod:`repro.core` (the in-SRAM engine) is verified against
this package in the test suite.
"""

from repro.registry import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".modmath": ("BarrettReducer", "mod_add", "mod_inv", "mod_mul", "mod_pow", "mod_sub"),
    ".params": ("NTTParams", "STANDARD_PARAMS", "get_params", "list_param_names"),
    ".polynomial": ("Polynomial",),
    ".transform": ("intt", "intt_negacyclic", "ntt", "ntt_negacyclic",
                   "polymul_negacyclic"),
    ".twiddles": ("TwiddleTable",),
})
