"""Low-level utilities shared by every substrate in the library."""

from repro.registry import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bitops": ("bit_length", "bit_reverse", "bit_reverse_permutation", "bits_to_int",
                "int_to_bits", "is_power_of_two", "mask", "popcount", "rotate_left",
                "rotate_right"),
    ".primes": ("find_ntt_prime", "is_prime", "is_primitive_root", "primitive_nth_root",
                "primitive_root"),
})
