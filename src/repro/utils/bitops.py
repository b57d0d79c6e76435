"""Bit-manipulation helpers.

The whole library manipulates fixed-width bit vectors: SRAM rows hold
n-bit coefficients, Algorithm 2 operates on n-bit ``Sum``/``Carry``
registers, and twiddle factors are compiled bit-by-bit into control
commands.  These helpers centralize the fiddly parts (masking, LSB-first
bit lists, bit reversal) so each module can stay readable.

All functions treat integers as unsigned values of an explicit width;
widths are always passed, never inferred, to avoid silent truncation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.errors import ParameterError


def mask(width: int) -> int:
    """Return the all-ones mask of ``width`` bits (``2**width - 1``)."""
    if width < 0:
        raise ParameterError(f"mask width must be non-negative, got {width}")
    return (1 << width) - 1


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def bit_length(value: int) -> int:
    """Number of bits needed to represent ``value`` (0 needs 1 bit)."""
    if value < 0:
        raise ParameterError(f"bit_length expects non-negative value, got {value}")
    return max(1, value.bit_length())


def popcount(value: int) -> int:
    """Number of set bits in a non-negative integer."""
    if value < 0:
        raise ParameterError(f"popcount expects non-negative value, got {value}")
    return bin(value).count("1")


def int_to_bits(value: int, width: int) -> List[int]:
    """Decompose ``value`` into ``width`` bits, least-significant first.

    >>> int_to_bits(6, 4)
    [0, 1, 1, 0]
    """
    if value < 0:
        raise ParameterError(f"int_to_bits expects non-negative value, got {value}")
    if value > mask(width):
        raise ParameterError(f"value {value} does not fit in {width} bits")
    return [(value >> i) & 1 for i in range(width)]


def bits_to_int(bits: Sequence[int]) -> int:
    """Recompose an LSB-first bit sequence into an integer.

    >>> bits_to_int([0, 1, 1, 0])
    6
    """
    result = 0
    for i, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ParameterError(f"bit at index {i} is {bit}, expected 0 or 1")
        result |= bit << i
    return result


def bit_reverse(value: int, width: int) -> int:
    """Reverse the low ``width`` bits of ``value``.

    This is the index permutation used by in-place Cooley–Tukey NTT.

    >>> bit_reverse(0b001, 3)
    4
    """
    if value > mask(width):
        raise ParameterError(f"value {value} does not fit in {width} bits")
    result = 0
    for _ in range(width):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


def bit_reverse_permutation(n: int) -> List[int]:
    """Return the length-``n`` bit-reversal permutation (n a power of two).

    >>> bit_reverse_permutation(8)
    [0, 4, 2, 6, 1, 5, 3, 7]
    """
    if not is_power_of_two(n):
        raise ParameterError(f"bit-reversal permutation needs power-of-two n, got {n}")
    width = n.bit_length() - 1
    return [bit_reverse(i, width) for i in range(n)]


def rotate_left(value: int, shift: int, width: int) -> int:
    """Rotate the low ``width`` bits of ``value`` left by ``shift``."""
    if width <= 0:
        raise ParameterError(f"rotate width must be positive, got {width}")
    shift %= width
    m = mask(width)
    value &= m
    return ((value << shift) | (value >> (width - shift))) & m


def rotate_right(value: int, shift: int, width: int) -> int:
    """Rotate the low ``width`` bits of ``value`` right by ``shift``."""
    if width <= 0:
        raise ParameterError(f"rotate width must be positive, got {width}")
    return rotate_left(value, width - (shift % width), width)


@lru_cache(maxsize=None)
def _byte_spreads(stride: int) -> Tuple[Tuple[int, ...], Dict[int, int]]:
    """Every byte with its bits spread ``stride`` apart, and the inverse
    (read-only: one copy per stride serves every caller)."""
    spread = tuple(int(("0" * (stride - 1)).join(format(byte, "b")), 2)
                   for byte in range(256))
    return spread, {bits: byte for byte, bits in enumerate(spread)}


def spread_bits(value: int, stride: int) -> int:
    """Move bit ``i`` of a non-negative ``value`` to bit ``i * stride``.

    The per-tile fan-out of a packed flag vector, a byte at a time from
    a table built once per stride.

    >>> bin(spread_bits(0b101, 3))
    '0b1000001'
    """
    table = _byte_spreads(stride)[0]
    out = shift = 0
    while value:
        out |= table[value & 0xFF] << shift
        value >>= 8
        shift += 8 * stride
    return out


def gather_bits(value: int, stride: int) -> int:
    """Move bit ``i * stride`` of ``value`` to bit ``i``.

    The inverse of :func:`spread_bits`, from the same table: every set
    bit of the non-negative ``value`` must sit at a multiple of
    ``stride``.

    >>> bin(gather_bits(0b1000001, 3))
    '0b101'
    """
    table = _byte_spreads(stride)[1]
    chunk = mask(8 * stride)
    out = shift = 0
    while value:
        out |= table[value & chunk] << shift
        value >>= 8 * stride
        shift += 8
    return out
