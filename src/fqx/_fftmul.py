"""Exact products of large non-negative ints through numpy's real FFT.

A private helper of :mod:`fqx.density`, which imports it (and with it
numpy's fft module) on the first product that needs it.  Each operand
is cut into 16-bit limbs written as balanced digits (Crandall and
Fagin, "Discrete weighted transforms and large-integer arithmetic",
Math. Comp. 62, 1994): a limb of at least 2**15 becomes limb - 2**16
and adds 1 to the next limb, so every digit lies in [-2**15, 2**15].
The top limb alone stays unbalanced, read unsigned in [0, 2**16), so
no digit carries out of it, its digit is at most 2**16, and an operand
takes ceil(bits / 16) limbs.  The limb sequences are cut into blocks
of ``block`` limbs:

- every block is balanced, zero-padded to 2 * block points and
  transformed once, at that one length, and its spectrum is kept (a
  square transforms its one operand); only one block of digits is
  ever held;
- output block s gathers sum over i + j = s of A_i * B_j into one
  spectrum buffer, which is transformed back, rounded, and carried into
  the result, block after block, so only one block of the convolution
  is ever held.

The entries of the convolution are signed.  Each is carried in as a
64-bit word with ``OFFSET`` added, and offset times the base-2**16
repunit of the block is subtracted from each block's words, so the
result is assembled from non-negative words whose float sums stay
exact.  Words 4 apart (64 bits) do not overlap, so a block's words
make 4 ints.

The convolution is exact only while the rounding error stays below
1/2, so every product is checked twice before it is returned:

- the largest distance of a convolution entry from its nearest integer,
  over all blocks, must be below ``MAX_ERROR``, and
- the product must agree with ``a * b`` modulo the Mersenne prime
  2**61 - 1, whose residues are taken by folding 64-bit words.

If either check fails, the product is taken with ``int``
multiplication instead.  Nothing is cached between calls.

Entries: a digit below the top one is at most 2**15 in size, so an
entry of a product whose shorter operand has L limbs is at most about
L * 2**30.  The rounding
error grows with the entries; with numpy 2.4 the largest error was
2.0e-4 on the numerator squares of q = j = 4, t = 9 (1.4 Mbit), 4.6e-4
at t = 10 and 2.7e-3 at t = 12 (89 Mbit operands).  The worst case for
a length is every limb 0x8000 (digits of one sign, all of size 2**15):
0.078 at 87 500 limbs (1.4 Mbit), 0.125 at 2**18 limbs; at 2**20 limbs
it passes ``MAX_ERROR`` and the product falls back, still exact.
Unbalanced 16-bit limbs would reach 4.7e-2 on random 1.4 Mbit squares.

Memory: a block spectrum holds 8 bytes per operand byte (block + 1
complex values for 2 * block bytes), and the spectra of both operands
are held together.  Beside them a product holds its output bytes,
preallocated, and then the int made from them, and a working set of
about 80 bytes per block limb.  Blocks are ``BLOCK_LIMBS`` long until
the shorter operand would have more than ``MAX_BLOCKS`` of them;
longer operands take longer blocks, so that the spectrum products,
whose count grows as the square of the block count, stay few.
"""

from __future__ import annotations

import numpy as np
from numpy import fft

#: a product is rejected when a convolution entry is this far from an integer
MAX_ERROR = 0.25
#: the residue check works modulo this prime
RESIDUE_MODULUS = (1 << 61) - 1
#: operands are cut into blocks of at least this many 16-bit limbs
BLOCK_LIMBS = 1 << 12
#: the shorter operand is cut into at most this many blocks
MAX_BLOCKS = 32
#: added to every signed entry before it is carried in; sums below 2**53 stay exact
OFFSET = 1 << 52


def _limb_count(value: int) -> int:
    """16-bit limbs of value: ceil(bits / 16)."""
    return -(-value.bit_length() // 16)


def _block_limbs(a: int, b: int) -> int:
    """Block length in limbs for the product of a and b, both non-zero."""
    shorter = min(_limb_count(a), _limb_count(b))
    block = BLOCK_LIMBS
    while block * MAX_BLOCKS < shorter:
        block *= 2
    return block


def _spectra(value: int, block: int) -> list[np.ndarray]:
    """The zero-padded real spectrum of each block of value's balanced digits."""
    count = _limb_count(value)
    limbs = np.frombuffer(value.to_bytes(2 * count, "little"), dtype="<u2")
    real = np.zeros(2 * block)
    spectra = []
    carry = 0
    for start in range(0, count, block):
        piece = limbs[start : start + block]
        # a limb read as signed is limb - 2**16 exactly when it is >= 2**15,
        # and limb >> 15 is the 1 that it adds to the next limb
        real[: len(piece)] = piece.view("<i2")
        real[1 : len(piece)] += piece[:-1] >> 15
        real[0] += carry
        real[len(piece) :] = 0
        carry = int(piece[-1] >> 15)
        if start + block >= count:  # the top limb, read unsigned
            real[len(piece) - 1] += carry << 16
        spectra.append(fft.rfft(real))
    return spectra


def _words_to_int(words: np.ndarray) -> int:
    """Sum of words[k] * 2**(16 * k) for 64-bit words."""
    # words 4 apart do not overlap, so each residue class mod 4 is one int
    value = 0
    for offset in range(4):
        value += int.from_bytes(words[offset::4].tobytes(), "little") << (16 * offset)
    return value


def _convolve(a: int, b: int, block: int) -> int | None:
    """a * b by blocks of the given limb length; None when rounding is in doubt."""
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
    # OFFSET times the base-2**16 repunit of one block
    bias = OFFSET * int.from_bytes(b"\x01\x00" * block, "little")
    out = bytearray(2 * block * (na + nb))
    carry = 0
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
        np.add(rounded[:block], pending, out=real[:block])
        pending[:] = rounded[block:]
        carry = _carry_in(real[:block], words, bias, carry, out, s)
    del sa, sb
    carry = _carry_in(pending, words, bias, carry, out, na + nb - 1)
    # the product fits the output bytes, so nothing is left over
    if carry:
        return None
    return int.from_bytes(out, "little")


def _carry_in(entries, words, bias: int, carry: int, out: bytearray, s: int) -> int:
    """Write output block s of out from its entries and the carry; the carry past it."""
    width = 2 * len(words)
    np.add(entries, OFFSET, out=words, casting="unsafe")
    value = _words_to_int(words) - bias + carry
    out[s * width : (s + 1) * width] = (value & ((1 << 8 * width) - 1)).to_bytes(width, "little")
    return value >> (8 * width)


def _mersenne_residue(value: int) -> int:
    """value % RESIDUE_MODULUS, for value >= 0, by folding 64-bit words.

    2**64 = 2**3 (mod 2**61 - 1), so word i weighs 2**(3 * i % 61): the
    words of each of the 61 classes mod 61 are summed in numpy, as 32-bit
    halves so that no sum overflows, and the 61 sums are combined as ints.
    """
    rows = -(-value.bit_length() // (64 * 61)) or 1
    halves = np.frombuffer(value.to_bytes(8 * 61 * rows, "little"), dtype="<u4")
    sums = halves.reshape(rows, 61, 2).sum(axis=0, dtype=np.uint64).tolist()
    folded = sum((low + (high << 32)) << (3 * i % 61) for i, (low, high) in enumerate(sums))
    return folded % RESIDUE_MODULUS


def _residues_agree(a: int, b: int, product: int) -> bool:
    a_res = _mersenne_residue(a)
    b_res = a_res if b is a else _mersenne_residue(b)
    return a_res * b_res % RESIDUE_MODULUS == _mersenne_residue(product)


def fft_multiply(a: int, b: int) -> int:
    """a * b for non-negative ints, through the transform; exact.

    Pass the same object twice to square (one set of spectra instead of
    two).  The product is checked, and taken by ``int`` multiplication
    on any doubt.
    """
    if not a or not b:
        return 0
    product = _convolve(a, b, _block_limbs(a, b))
    if product is None or not _residues_agree(a, b, product):
        return a * b
    return product
