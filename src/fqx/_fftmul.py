"""Exact products of large non-negative ints through numpy's real FFT.

A private helper of :mod:`fqx.density`, which imports it (and with it
numpy's fft module) on the first product that needs it.  Each operand
is cut into 8-bit limbs (its bytes), and the limb sequences are cut
into blocks of ``block`` bytes:

- every block is zero-padded to 2 * block points and transformed once,
  at that one length, and its spectrum is kept (a square transforms its
  one operand);
- output block s gathers sum over i + j = s of A_i * B_j into one
  spectrum buffer, which is transformed back, rounded, and carried into
  the result, block after block, so only one block of the convolution
  is ever held.

The convolution is exact only while the rounding error stays below
1/2, so every product is checked twice before it is returned:

- the largest distance of a convolution entry from its nearest integer,
  over all blocks, must be below ``MAX_ERROR``, and
- the product must agree with ``a * b`` modulo the Mersenne prime
  2**61 - 1.

If either check fails, the product is taken with ``int``
multiplication instead.  Nothing is cached between calls.

Memory: a block spectrum holds 16 bytes per operand byte (block + 1
complex values for block bytes), and the spectra of both operands are
held together, against about 72 bytes per operand byte for one
transform of the whole product.  Beside them a product holds its
output, about 2 bytes per operand byte while it is assembled and twice
that when it becomes an int, and a working set of about 80 bytes per
block byte.  Blocks are ``BLOCK_BYTES`` long until the shorter operand
would have more than ``MAX_BLOCKS`` of them; longer operands take
longer blocks, so that the spectrum products, whose count grows as the
square of the block count, stay few.  A product whose spectra would
pass ``SPECTRUM_BUDGET``, and whose halves' spectra would not, is split
once by Karatsuba on the longer operand's halves (a square into
high**2, low**2 and (high + low)**2), so that spectra are held for half
an operand at a time.  Longer products are taken whole: one split would
not bring them under the budget, and it costs half as much time again.

With 8-bit limbs the entries of the convolution stay below
2**(16 + log2(L)) for a shorter operand of L bytes, 2**40 at 16 MB;
squaring all-0xFF operands, the worst case for their size, left a
largest rounding error of 0.0003 at 8 MB with numpy 2.4 (the error
grows about as 2**(entry bits - 52)).
"""

from __future__ import annotations

import numpy as np
from numpy import fft

#: a product is rejected when a convolution entry is this far from an integer
MAX_ERROR = 0.25
#: the residue check works modulo this prime
RESIDUE_MODULUS = (1 << 61) - 1
#: operands are cut into blocks of at least this many bytes
BLOCK_BYTES = 1 << 12
#: the shorter operand is cut into at most this many blocks
MAX_BLOCKS = 32
#: products whose spectra pass this many bytes, and their halves' do not, are split
SPECTRUM_BUDGET = 1 << 21


def _byte_length(value: int) -> int:
    return (value.bit_length() + 7) // 8


def _block_bytes(a: int, b: int) -> int:
    """Block length for the product of a and b, both non-zero."""
    shorter = min(_byte_length(a), _byte_length(b))
    block = BLOCK_BYTES
    while block * MAX_BLOCKS < shorter:
        block *= 2
    return block


def _spectra(value: int, block: int) -> list[np.ndarray]:
    """The zero-padded real spectrum of each block of value's bytes."""
    limbs = np.frombuffer(value.to_bytes(_byte_length(value), "little"), dtype=np.uint8)
    real = np.zeros(2 * block)
    spectra = []
    for start in range(0, len(limbs), block):
        piece = limbs[start : start + block]
        real[: len(piece)] = piece
        real[len(piece) :] = 0
        spectra.append(fft.rfft(real))
    return spectra


def _words_to_int(words: np.ndarray) -> int:
    """Sum of words[k] * 256**k for 64-bit words."""
    # words 8 apart do not overlap, so each residue class mod 8 is one int
    value = 0
    for offset in range(8):
        value += int.from_bytes(words[offset::8].tobytes(), "little") << (8 * offset)
    return value


def _convolve(a: int, b: int, block: int) -> int | None:
    """a * b by blocks of the given byte length; None when rounding is in doubt."""
    square = b is a
    sa = _spectra(a, block)
    sb = sa if square else _spectra(b, block)
    na, nb = len(sa), len(sb)
    acc = np.empty(block + 1, dtype=np.complex128)
    term = np.empty(block + 1, dtype=np.complex128)
    real = np.empty(2 * block)
    rounded = np.empty(2 * block)
    pending = np.zeros(block)  # upper half of the previous output block
    words = np.empty(block, dtype="<u8")
    out = bytearray()
    carry = 0
    mask = (1 << (8 * block)) - 1
    for s in range(na + nb - 1):
        lo = max(0, s - nb + 1)
        # a square takes A_i * A_j with i < j once, doubled, then A_i**2
        top = (s - 1) // 2 if square else min(s, na - 1)
        acc[:] = 0
        for i in range(lo, top + 1):
            np.multiply(sa[i], sb[s - i], out=term)
            np.add(acc, term, out=acc)
        if square:
            np.add(acc, acc, out=acc)
            if s % 2 == 0:
                np.multiply(sa[s // 2], sa[s // 2], out=term)
                np.add(acc, term, out=acc)
        fft.irfft(acc, n=2 * block, out=real)
        np.rint(real, out=rounded)
        np.subtract(real, rounded, out=real)
        np.abs(real, out=real)
        if not real.max() < MAX_ERROR:
            return None
        np.add(rounded[:block], pending, out=words, casting="unsafe")
        pending[:] = rounded[block:]
        value = _words_to_int(words) + carry
        out += (value & mask).to_bytes(block, "little")
        carry = value >> (8 * block)
    del sa, sb
    words[:] = pending
    carry += _words_to_int(words)
    return int.from_bytes(out, "little") + (carry << (8 * len(out)))


def _residues_agree(a: int, b: int, product: int) -> bool:
    m = RESIDUE_MODULUS
    a_res = a % m
    b_res = a_res if b is a else b % m
    return a_res * b_res % m == product % m


def _checked_product(a: int, b: int) -> int:
    """a * b by one blocked convolution, checked; by int multiplication on doubt."""
    if not a or not b:
        return 0
    product = _convolve(a, b, _block_bytes(a, b))
    if product is None or not _residues_agree(a, b, product):
        return a * b
    return product


def fft_multiply(a: int, b: int) -> int:
    """a * b for non-negative ints, through the transform; exact.

    Pass the same object twice to square (one set of spectra instead of
    two).
    """
    spectra = 16 * (_byte_length(a) + (0 if b is a else _byte_length(b)))
    # split only where halving brings the spectra under the budget
    if not SPECTRUM_BUDGET < spectra <= 2 * SPECTRUM_BUDGET:
        return _checked_product(a, b)
    shift = max(a.bit_length(), b.bit_length()) // 2
    a_high, a_low = _halves(a, shift)
    # a square keeps one object per half, so its three products stay squares
    b_high, b_low = (a_high, a_low) if b is a else _halves(b, shift)
    a_sum = a_high + a_low
    middle = _checked_product(a_sum, a_sum if b is a else b_high + b_low)
    del a_sum
    low = _checked_product(a_low, b_low)
    del a_low, b_low
    high = _checked_product(a_high, b_high)
    middle -= high + low
    return (((high << shift) + middle) << shift) + low


def _halves(value: int, shift: int) -> tuple[int, int]:
    return value >> shift, value & ((1 << shift) - 1)
