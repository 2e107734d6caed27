"""Exact rational densities and bounds for matrix sets over GF(q)[x].

Everything here returns :class:`fractions.Fraction`; no floats are
produced or consumed.  The central quantity is the reciprocal of the
polynomial zeta value,

    zeta_inverse(q, j) = 1 - q**(1 - j)   for j >= 2,

with the convention zeta_inverse(q, 1) = 0 (the j = 1 value diverges,
and its reciprocal is taken to be zero).  The density of unimodular
k x n matrices is the product of zeta_inverse(q, j) for
j = n-k+1 .. n, which in particular vanishes exactly when k = n.

The truncated Euler product over irreducibles of degree at most t,

    product over m <= t of (1 - q**(-j*m)) ** c_m,

with c_m the number of monic irreducibles of degree m, converges to the
closed form from above; ``tail_bound`` gives the guaranteed gap
2 / (q**t * (q - 1)).  Its numerator, the product of
(q**(j*m) - 1) ** c_m, has about j * log2(q) * q**(t+1) / (q-1) bits
(179 Mbit at q = 4, j = 4, t = 12), and is built from plain ints:

- One left-to-right squaring chain serves all t factors together
  (Straus): square the running product, then multiply in every factor
  whose exponent c_m has the current bit set.  The same chain builds
  the denominator q**D for odd q, so its large squarings take the
  transform too; for q = 2**e it is a shift.
- Products of two operands with at least ``FFT_MIN_BITS`` bits each
  go through the blocked numpy FFT multiply of :mod:`fqx._fftmul`
  (16-bit limbs as balanced digits), which checks every product
  (rounding error and a residue mod 2**61 - 1) and falls back to
  ``int`` multiplication on any doubt.  The cut-over is a power of two
  just past the measured crossover: on a 2-CPU x86-64 host with Python
  3.11 and numpy 2.4, squaring a 2**15-bit operand takes 0.31 ms
  through the transform against 0.27 ms with ``int``, a 2**16-bit one
  (one block) 0.32 against 0.84 ms, 0.69 against 2.5 ms at 2**17 bits
  and 11 against 104 ms at the 1.4 Mbit squarings of q = j = 4, t = 9
  (best of 7).  The transform holds block spectra of 8 bytes per
  operand byte, for the whole operand: the 1.4 Mbit square peaks 1.4
  to 2.4 MB above the ``int`` product (VmHWM of a fresh process, from
  run to run).
- Before any product, the numerator's length is bounded from the
  irreducible counts alone, D * log2(q) bits for the exponent D of
  the denominator q**D; once that bound passes ``MAX_NUMERATOR_BITS``
  the call raises ValueError instead of starting a multi-gigabyte
  computation.
- The ints stay the value.  To print one in decimal,
  ``DecimalWriter.truncated`` builds its terms again in exact
  ``decimal`` arithmetic, where the squaring chain runs on decimal
  bases, instead of converting the ints; the numerator of the gap to
  the closed form, N - q**D + q**(D+1-j), comes from the decimal
  q**(D+1-j), as does q**D.  Each term is checked against its int
  modulo 2**61 - 1.  Converting
  the 45 Mbit numerator of q = j = 4, t = 11 and its gap took about
  20 s; built this way the three terms take about 2 s.

The closed forms are products of factors 1 - q**(-m) too, multiplied
out by a balanced product tree, and they refuse the same sizes: each
works out the exponent of its denominator from q, k, n and the degrees
before it builds any power.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple

from .gf import factor_prime_power
from .matrix import IrreducibleSet
from .poly import count_irreducibles

#: products of operands with at least this many bits use the FFT multiply
FFT_MIN_BITS = 1 << 16
#: exact results refuse numerators and denominators longer than this many bits
MAX_NUMERATOR_BITS = 1 << 28
# the squaring chain starts from a product of about this many bits
_CHAIN_MIN_BITS = 1 << 12
# DecimalWriter keeps str() up to this size: 603 digits, under the
# lowest limit on int/str conversion that sys.set_int_max_str_digits
# accepts (640)
_STR_MAX_BITS = 2000
# decimal forms built from factored forms are checked against their ints
# modulo this prime
_CHECK_MODULUS = (1 << 61) - 1


class _LowestTerms:
    """A numerator/denominator pair already in lowest terms.

    Registered as a virtual numbers.Rational subclass: passing one to
    Fraction() then copies the pair verbatim, skipping the gcd the
    two-argument constructor would run.  For the coprime-by-construction
    giants produced by the truncated products that gcd is the dominant
    cost, so this matters.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator):
        self.numerator = numerator
        self.denominator = denominator


Rational.register(_LowestTerms)


def _coprime_fraction(numerator: int, denominator: int) -> Fraction:
    return Fraction(_LowestTerms(numerator, denominator))


def _check_size(q: int, exponent: int, what: str) -> None:
    """Refuse a result whose denominator q**exponent is too long.

    The results here lie in [0, 1], so this bounds the numerator too.
    The first test keeps exponents of any size out of float arithmetic.
    """
    if exponent > MAX_NUMERATOR_BITS or exponent * math.log2(q) > MAX_NUMERATOR_BITS:
        raise ValueError(
            f"{what} needs a denominator of {q}**{exponent}, longer than "
            f"the limit of {MAX_NUMERATOR_BITS} bits"
        )


def _keep_product(q: int, degrees, lo: int, hi: int, what: str) -> Fraction:
    """Product over d in degrees and j = lo .. hi of (1 - q**(-d*j)), exactly.

    Degrees are positive and 0 <= lo <= hi.  The denominator is q**D with
    D = sum(degrees) * (lo + ... + hi), and it is size-checked before any
    power is built; a factor with j = 0 makes the product 0.
    """
    if lo == 0:
        return Fraction(0)
    exponent = sum(degrees) * (lo + hi) * (hi - lo + 1) // 2
    _check_size(q, exponent, what)
    js = range(lo, hi + 1)
    numerator = _tree_product([q ** (d * j) - 1 for d in degrees for j in js])
    # each factor q**(d*j) - 1 is prime to q, so the pair is coprime
    return _coprime_fraction(numerator, q**exponent)


def _multiply(a: int, b: int) -> int:
    """a * b, through the FFT multiply when both have FFT_MIN_BITS bits."""
    if min(a.bit_length(), b.bit_length()) < FFT_MIN_BITS:
        return a * b
    from ._fftmul import fft_multiply  # loaded on first need

    return fft_multiply(a, b)


def _tree_product(factors: list[int]) -> int:
    """Product of the factors by pairwise products of like-sized operands."""
    while len(factors) > 1:
        paired = [_multiply(a, b) for a, b in zip(factors[::2], factors[1::2])]
        factors = paired + factors[2 * len(paired) :]
    return factors[0] if factors else 1


def zeta_inverse(q: int, j: int) -> Fraction:
    """1 - q**(1-j) for j >= 2; zero for j = 1 by convention."""
    factor_prime_power(q)
    j = int(j)
    if j < 1:
        raise ValueError(f"j must be at least 1, got {j}")
    return _keep_product(q, (1,), j - 1, j - 1, f"zeta_inverse({q}, {j})")


def zeta_inverse_truncated(q: int, j: int, t: int) -> Fraction:
    """Euler product over irreducibles of degree <= t, exactly.

    Decreases monotonically in t and stays >= the closed form; the gap
    is at most tail_bound(q, t).  Only defined for j >= 2 (at j = 1 the
    product goes to zero without terminating).
    """
    p = factor_prime_power(q)[0]
    j = int(j)
    t = int(t)
    if j < 2:
        raise ValueError(f"truncated product needs j >= 2, got {j}")
    if t < 1:
        raise ValueError(f"t must be at least 1, got {t}")
    counts, exponent = _truncated_counts(q, j, t)
    powers = [(q ** (j * m) - 1, count) for m, count in enumerate(counts, 1)]
    numerator = _power_product(powers, exponent * math.log2(q))
    # numerator is a product of (q**(j*m) - 1) factors, none divisible
    # by p, so the pair is coprime by construction
    coprime = numerator & 1 if p == 2 else numerator % p
    if not coprime:
        raise AssertionError("truncated product numerator lost coprimality")
    return _coprime_fraction(numerator, _power_of(q, exponent))


def truncation_gap(q: int, j: int, t: int, value: Fraction) -> Fraction:
    """value - zeta_inverse(q, j), for value = zeta_inverse_truncated(q, j, t).

    value is N / q**D in lowest terms, and the gap is
    (N - q**D + q**(D+1-j)) / q**D.  D >= j, so its numerator is N mod p,
    prime to p: the pair is built in lowest terms, with no gcd.
    """
    exponent = _truncated_counts(q, j, t)[1]
    numerator = value.numerator - value.denominator + _power_of(q, exponent + 1 - j)
    return _coprime_fraction(numerator, value.denominator)


def _power_of(q: int, exponent: int) -> int:
    """q**exponent: a shift when q is a power of two, else the squaring chain."""
    p, e = factor_prime_power(q)
    if p == 2:
        return 1 << e * exponent
    return _power_product([(q, exponent)], exponent * math.log2(q))


def _truncated_counts(q: int, j: int, t: int) -> tuple[list[int], int]:
    """The counts c_m for m = 1 .. t and the exponent D of the denominator q**D.

    D is size-checked degree by degree, before any power is built.
    """
    counts = []
    exponent = 0
    for m in range(1, t + 1):
        counts.append(count_irreducibles(q, m))
        exponent += j * m * counts[-1]
        _check_size(q, exponent, f"truncated product for q={q}, j={j}, t={t}")
    return counts, exponent


def _power_product(powers: list[tuple], bits: float, square=None):
    """Product of base ** exponent over the pairs, by one squaring chain.

    Left to right over the exponent bits: square the running product,
    then multiply in the product of the bases whose exponent has the
    current bit set.  Only the squarings are large; ``square`` takes
    them, and by default those of ints above FFT_MIN_BITS go through
    the FFT multiply.  The bases may be ints or exact decimals.
    ``bits`` bounds the product's length from above; the top exponent
    bits, which give a product of at most about _CHAIN_MIN_BITS bits,
    are taken with ``**`` instead, whose loop runs in C.
    """
    low_bits = int(bits // _CHAIN_MIN_BITS).bit_length()
    result = 1
    for base, exponent in powers:
        result *= base ** (exponent >> low_bits)
    for bit in reversed(range(low_bits)):
        result = square(result) if square else _multiply(result, result)
        factor = 1
        for base, exponent in powers:
            if exponent >> bit & 1:
                factor *= base
        result *= factor
    return result


def tail_bound(q: int, t: int) -> Fraction:
    """Upper bound 2 / (q**t * (q-1)) on the truncation gap at cutoff t."""
    factor_prime_power(q)
    t = int(t)
    if t < 1:
        raise ValueError(f"t must be at least 1, got {t}")
    _check_size(q, t + 1, f"tail_bound({q}, {t})")
    return Fraction(2, q**t * (q - 1))


def density_unimodular(q: int, k: int, n: int) -> Fraction:
    """Asymptotic share of unimodular matrices among all k x n matrices.

    The product of zeta_inverse(q, j) for j = n-k+1 .. n; zero exactly
    when k = n (the j = 1 factor).
    """
    factor_prime_power(q)
    k, n = int(k), int(n)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k > n:
        raise ValueError(f"need k <= n, got k={k}, n={n}")
    return _keep_product(q, (1,), n - k, n - 1, f"density for q={q}, k={k}, n={n}")


def density_coprime_to(q: int, k: int, n: int, primes: IrreducibleSet) -> Fraction:
    """Asymptotic share of matrices whose minor gcd avoids every member.

    The product over members f and j = n-k+1 .. n of
    (1 - q**(-j*deg f)); the empty set gives 1.
    """
    factor_prime_power(q)
    k, n = int(k), int(n)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k > n:
        raise ValueError(f"need k <= n, got k={k}, n={n}")
    if primes.spec.q != q:
        raise ValueError(
            f"irreducible set lives over GF({primes.spec.q}), not GF({q})"
        )
    degrees = [f.degree for f in primes]
    what = f"density for q={q}, k={k}, n={n} and {len(degrees)} irreducibles"
    return _keep_product(q, degrees, n - k + 1, n, what)


class DivisibleBound(NamedTuple):
    """Exact share and coarse bound for a single-irreducible divisibility event."""

    exact: Fraction
    bound: Fraction


def divisible_bound(q: int, k: int, n: int, f_degree: int) -> DivisibleBound:
    """Share of k x n matrices whose minor gcd the irreducible divides.

    Exact value: 1 minus the product over j = n-k+1 .. n of
    (1 - Q**(-j)) where Q = q**f_degree; the coarse bound 2 / Q**2
    always dominates it.  Only defined for k < n (at k = n almost
    nothing is unimodular and the event is not rare).
    """
    factor_prime_power(q)
    k, n, f_degree = int(k), int(n), int(f_degree)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k >= n:
        raise ValueError(f"need k < n, got k={k}, n={n}")
    if f_degree < 1:
        raise ValueError(f"degree must be at least 1, got {f_degree}")
    # the exponent of keep's denominator is f_degree * (n-k+1 + ... + n),
    # at least 2 * f_degree, so its check covers the bound too
    what = f"divisible share for q={q}, k={k}, n={n}, degree {f_degree}"
    keep = _keep_product(q, (f_degree,), n - k + 1, n, what)
    return DivisibleBound(exact=1 - keep, bound=Fraction(2, q ** (2 * f_degree)))


def as_ratio_string(value: Fraction) -> str:
    """Serialize a rational as "numerator/denominator", always with the slash.

    Terms of any size are written out in full, without touching the
    process-wide limit on int/str conversion.
    """
    return DecimalWriter().ratio(value)


class DecimalWriter:
    """Writes ints and rationals of any size in decimal, for one output.

    Each distinct int is converted once, and the table of powers 2**w
    that the conversion multiplies by is shared by every int it writes,
    so terms that share a denominator pay for the powers once; a power
    of two is read from that table.  ``truncated`` gives the writer a
    truncated product's terms ready-made, from their factored form.
    """

    __slots__ = ("_powers", "_strings")

    def __init__(self):
        self._powers = {}
        self._strings = {}

    def ratio(self, value: Fraction) -> str:
        return f"{self.integer(value.numerator)}/{self.integer(value.denominator)}"

    def integer(self, n: int) -> str:
        """str(n) for an int of any size."""
        if n.bit_length() <= _STR_MAX_BITS:
            return str(n)
        if n < 0:
            return "-" + self.integer(-n)
        if n not in self._strings:
            self._strings[n] = str(_to_decimal(n, self._powers))
        return self._strings[n]

    def truncated(self, q: int, j: int, t: int, value: Fraction, gap: Fraction) -> None:
        """Learn the terms of a truncated product and of its gap.

        value is zeta_inverse_truncated(q, j, t) and gap is value minus
        zeta_inverse(q, j).  Their terms are built in exact decimal
        arithmetic instead of converted from the ints: the numerator N,
        the product of (q**(j*m) - 1) ** c_m, by the squaring chain on
        decimal bases; q**(D+1-j) by a decimal power, and the
        denominator q**D from it; and the gap's numerator
        N - q**D + q**(D+1-j) from those (its denominator is q**D too,
        as it is N mod p, prime to p).  Each is
        kept only if it agrees with its int modulo 2**61 - 1; any other
        is converted when written.
        """
        if value.numerator.bit_length() <= _STR_MAX_BITS:
            return
        counts, exponent = _truncated_counts(q, j, t)
        with _exact_decimals() as Decimal:
            # decimal powers: Decimal(int) takes time quadratic in its length
            numerator = _power_product(
                [(Decimal(q) ** (j * m) - 1, count) for m, count in enumerate(counts, 1)],
                exponent * math.log2(q),
                square=lambda x: x * x,
            )
            low = Decimal(q) ** (exponent + 1 - j)
            denominator = low * Decimal(q) ** (j - 1)
            gap_form = numerator - denominator + low
            for n, decimal_form in (
                (value.numerator, numerator),
                (value.denominator, denominator),
                (gap.numerator, gap_form),
            ):
                if decimal_form % _CHECK_MODULUS == n % _CHECK_MODULUS:
                    self._strings[n] = f"{decimal_form:f}"


@contextmanager
def _exact_decimals():
    """A local decimal context whose integer arithmetic is exact or raises."""
    import decimal

    with decimal.localcontext() as context:
        context.prec = decimal.MAX_PREC
        context.Emax = decimal.MAX_EMAX
        context.Emin = decimal.MIN_EMIN
        context.traps[decimal.Inexact] = True
        yield decimal.Decimal


def _to_decimal(n: int, powers: dict | None = None):
    """n >= 0 as an exact decimal.Decimal, by binary halves.

    n = high * 2**w + low, with both halves converted on their own and
    recombined in exact decimal arithmetic, whose multiplication is
    subquadratic (the method of CPython's ``_pylong``).  The powers
    2**w are kept in ``powers``, which callers may share between calls;
    n = 2**w itself is read from there.
    """
    if powers is None:
        powers = {}

    def power_of_two(w):
        if w not in powers:
            if w <= 128:
                powers[w] = Decimal(1 << w)
            else:
                powers[w] = power_of_two(w >> 1) * power_of_two(w - (w >> 1))
        return powers[w]

    def convert(value, bits):
        if bits <= 128:
            return Decimal(value)
        half = bits >> 1
        high = value >> half
        low = convert(value - (high << half), half)
        return low + convert(high, bits - half) * power_of_two(half)

    with _exact_decimals() as Decimal:
        if n and not n & (n - 1):
            return power_of_two(n.bit_length() - 1)
        return convert(n, n.bit_length())
