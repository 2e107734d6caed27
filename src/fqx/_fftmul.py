"""Exact products of large non-negative ints through numpy's real FFT.

A private helper of :mod:`fqx.density`, which imports it (and with it
numpy's fft module) on the first product that needs it.  Each operand
is cut into 8-bit limbs (its bytes), the limb sequences are convolved
with a double-precision real FFT, and the rounded convolution is carried
back into an int.  The convolution is exact only while the rounding
error stays below 1/2, so every product is checked twice before it is
returned:

- the largest distance of a convolution entry from its nearest integer
  must be below ``MAX_ERROR``, and
- the product must agree with ``a * b`` modulo the Mersenne prime
  2**61 - 1.

If either check fails, the product is taken with ``int``
multiplication instead.  Nothing is cached between calls.

With 8-bit limbs the entries of a length-L convolution stay below
2**(16 + log2(L)), at most 2**40 under ``MAX_POINTS``; squaring
all-ones limbs, the worst case for their size, left a largest rounding
error of 0.00024 at that length with numpy 2.4 (the error grows about
as 2**(entry bits - 52)).

A transform of length L holds about 32 * L bytes at its peak: the real
buffer, the spectrum, and numpy's scratch space, all reused in place.
Products that would need more than ``MAX_POINTS`` points are split:
the larger operand is cut into two halves (a square into high**2,
2*high*low and low**2), and the pieces are multiplied on their own, so
that one product never holds more than about 520 MB.
"""

from __future__ import annotations

import numpy as np
from numpy import fft

#: a product is rejected when a convolution entry is this far from an integer
MAX_ERROR = 0.25
#: longest transform taken in one piece
MAX_POINTS = 1 << 24
#: the residue check works modulo this prime
RESIDUE_MODULUS = (1 << 61) - 1
# rounding runs over blocks of this many entries, to bound its temporaries
_ROUND_BLOCK = 1 << 16


def _good_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c at least n."""
    best = 1 << (n - 1).bit_length()
    power5 = 1
    while power5 < best:
        power35 = power5
        while power35 < best:
            length = power35
            while length < n:
                length *= 2
            best = min(best, length)
            power35 *= 3
        power5 *= 5
    return best


def _transform_length(a: int, b: int) -> int:
    """Transform length for the product of a and b, both non-zero."""
    return _good_length((a.bit_length() + 7) // 8 + (b.bit_length() + 7) // 8 - 1)


def _limbs(value: int, out: np.ndarray) -> None:
    """Write the bytes of value, least significant first, into out."""
    count = (value.bit_length() + 7) // 8
    out[:count] = np.frombuffer(value.to_bytes(count, "little"), dtype=np.uint8)


def _convolve(a: int, b: int, length: int) -> int | None:
    """a * b by one transform of the given length; None when rounding is in doubt."""
    real = np.zeros(length)
    _limbs(a, real)
    spectrum = fft.rfft(real, out=np.empty(length // 2 + 1, dtype=np.complex128))
    if b is a:
        np.multiply(spectrum, spectrum, out=spectrum)
    else:
        real[:] = 0
        _limbs(b, real)
        other = fft.rfft(real)
        np.multiply(spectrum, other, out=spectrum)
        del other
    fft.irfft(spectrum, n=length, out=real)
    del spectrum
    error = 0.0
    for start in range(0, length, _ROUND_BLOCK):
        block = real[start : start + _ROUND_BLOCK]
        rounded = np.rint(block)
        error = max(error, float(np.max(np.abs(block - rounded))))
        block[...] = rounded
    if not error < MAX_ERROR:
        return None
    # entries are below 2**40; entries 8 apart do not overlap as 64-bit
    # words, so each residue class mod 8 is one int
    product = 0
    for offset in range(8):
        words = real[offset::8].astype("<u8")
        product += int.from_bytes(words.tobytes(), "little") << (8 * offset)
    return product


def _residues_agree(a: int, b: int, product: int) -> bool:
    m = RESIDUE_MODULUS
    a_res = a % m
    b_res = a_res if b is a else b % m
    return a_res * b_res % m == product % m


def fft_multiply(a: int, b: int) -> int:
    """a * b for non-negative ints, through the transform; exact.

    Pass the same object twice to square (one forward transform
    instead of two).
    """
    if not a or not b:
        return 0
    length = _transform_length(a, b)
    if length > MAX_POINTS:
        return _split_multiply(a, b)
    product = _convolve(a, b, length)
    if product is None or not _residues_agree(a, b, product):
        return a * b
    return product


def _split_multiply(a: int, b: int) -> int:
    """a * b from products of halves, each within MAX_POINTS in the end."""
    if b is a:
        shift = a.bit_length() // 2
        high, low = a >> shift, a & ((1 << shift) - 1)
        return (
            (fft_multiply(high, high) << (2 * shift))
            + (fft_multiply(high, low) << (shift + 1))
            + fft_multiply(low, low)
        )
    if a.bit_length() < b.bit_length():
        a, b = b, a
    shift = a.bit_length() // 2
    high, low = a >> shift, a & ((1 << shift) - 1)
    return (fft_multiply(high, b) << shift) + fft_multiply(low, b)
