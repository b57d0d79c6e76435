"""Lattice-crypto kernels built on the library (the "generality" claim).

The paper motivates BP-NTT with the PQC and HE workloads whose inner
loop is negacyclic polynomial multiplication.  This package provides
executable versions of those workloads:

- :mod:`repro.crypto.rlwe`      — textbook R-LWE public-key encryption
  (the §II-A construction), usable with either the gold-model ring or
  the in-SRAM engine.
- :mod:`repro.crypto.kyber`     — the real CRYSTALS-Kyber ring
  (q = 3329): the *incomplete* 7-layer NTT with pairwise base
  multiplication, since 2n does not divide q - 1.
- :mod:`repro.crypto.dilithium` — CRYSTALS-Dilithium's full 8-layer NTT
  over q = 8380417.
- :mod:`repro.crypto.he`        — BFV-lite leveled HE over the 1024-point
  ``he-*`` rings: encryption, homomorphic addition, plaintext products,
  and relinearized ciphertext-ciphertext multiplication.
"""

from repro.registry import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".dilithium": ("DILITHIUM_Q", "dilithium_intt", "dilithium_ntt", "dilithium_polymul"),
    ".he": ("DepthRecord", "HECiphertext", "HEContext", "HEKeyPair", "RelinKey",
            "default_relin_base", "depth_profile", "format_depth_table",
            "relin_digit_count"),
    ".kyber": ("KYBER_N", "KYBER_Q", "kyber_basemul", "kyber_intt", "kyber_ntt",
               "kyber_polymul"),
    ".rlwe": ("RLWECiphertext", "RLWEKeyPair", "RLWEScheme"),
})
