"""Univariate polynomials over GF(q), with a canonical integer enumeration.

A polynomial ``sum(c_i * x**i)`` is stored as ``Poly.indices``, the
trimmed tuple of its coefficients' field indices in ascending power
order; the zero polynomial is ``()`` and has degree -1.  Read as base-q
digits, those indices give the enumeration ``poly_from_index``.
Degree-d monic polynomials occupy exactly the index interval
``[q**d, 2 * q**d)``, which the irreducibility and counting routines
below rely on.

All arithmetic runs on the int tuples, schoolbook style.  Over a prime
field the tuples are residues, and ``fqx.gf._PrimeRing`` computes mod p.
Over an extension field every coefficient operation is one read,
``table[a][b]``, of the ``add``/``sub``/``mul``/``inv`` tables of the
field's residue field, ``fqx.gf._ResidueField`` (``_TableRing``): for
q <= ``TABLE_MAX_ORDER`` built lists, above the cap entries computed
from digit tuples when read.  The irreducible lists alone are sieved in
numpy, on arrays of the same indices (``IrreducibleTable``).

``Poly.coeffs`` and ``Poly.lead`` build the field elements when read
(the field's interned ones for q <= ``TABLE_MAX_ORDER``).

Two text formats are supported.  The canonical one is a comma-separated
list of coefficient indices in ascending power order ("1,0,2" is
1 + 2x^2 over GF(3)), with the empty string denoting zero.  A
human-oriented form like "x^2+2*x+1" is also accepted on input.
"""

from __future__ import annotations

import functools
import re
from itertools import zip_longest

import numpy as np

from .errors import BudgetExceededError, FieldMismatchError, ParseError
from .gf import FieldElement, FieldSpec, _PrimeRing, _ptrim, _ring_mod, factor_prime_power

# Ceiling on how many candidate polynomials an irreducibility table will
# enumerate in one request unless the caller raises it explicitly.
DEFAULT_ENUM_BUDGET = 10**6
# Rabin verdicts kept for moduli tested again (a quotient field per reduction)
_RABIN_CACHE_SIZE = 1024
# (irreducible, monic) products one numpy page of the irreducible sieve forms
_SIEVE_PAGE_ROWS = 1 << 12
# Highest power of x the human-oriented text form accepts: a term x^n
# spells n + 1 coefficients in a few characters, so parsing stays in memory
MAX_PRETTY_POWER = 1 << 16


class _TableRing:
    """GF(p^e)[x], e > 1, on trimmed index tuples through the field's tables.

    The tables are rows, ``mul[a][b]``, of the field's residue field
    (``fqx.gf._ResidueField``): built lists up to ``TABLE_MAX_ORDER``,
    above it rows whose entries are computed from digit tuples when read.
    A product of nonzero coefficients is nonzero, so products, scalings
    and quotients of trimmed inputs need no trimming.
    """

    def __init__(self, spec: FieldSpec):
        self.p = spec.p
        t = spec._tables
        self.add_t, self.sub_t, self.mul_t, self.inv_t = t.add, t.sub, t.mul, t.inv

    def inv(self, c):
        return self.inv_t[c]

    def add(self, a, b):
        return self._entrywise(self.add_t, a, b)

    def sub(self, a, b):
        return self._entrywise(self.sub_t, a, b)

    def _entrywise(self, table, a, b):
        return _ptrim(tuple([table[x][y] for x, y in zip_longest(a, b, fillvalue=0)]))

    def scale(self, a, c):
        if not c:
            return ()
        row = self.mul_t[c]
        return tuple([row[x] for x in a])

    def mul(self, a, b):
        if not a or not b:
            return ()
        add, mul = self.add_t, self.mul_t
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                row = mul[x]
                for j, y in enumerate(b, i):
                    out[j] = add[out[j]][row[y]]
        return tuple(out)

    def addmul(self, a, c, b):
        """a + c * b in one pass over a list, trimmed once."""
        if not c or not b:
            return a
        add, mul = self.add_t, self.mul_t
        out = list(a)
        out.extend([0] * (len(c) + len(b) - 1 - len(a)))
        for i, x in enumerate(c):
            if x:
                row = mul[x]
                for j, y in enumerate(b, i):
                    out[j] = add[out[j]][row[y]]
        return _ptrim(tuple(out))

    def divmod(self, a, b):
        """Quotient and remainder of a by nonzero b."""
        steps = len(a) - len(b) + 1
        if steps <= 0:
            return (), a
        sub, mul = self.sub_t, self.mul_t
        rem = list(a)
        lead_inv = mul[self.inv_t[b[-1]]]
        low = b[:-1]
        quot = [0] * steps
        for shift in range(steps - 1, -1, -1):
            c = rem.pop()
            if c:
                c = quot[shift] = lead_inv[c]
                row = mul[c]
                for j, y in enumerate(low, shift):
                    rem[j] = sub[rem[j]][row[y]]
        return tuple(quot), _ptrim(tuple(rem))

    def mod(self, a, b):
        return self.divmod(a, b)[1]


def _load_ring(spec: FieldSpec) -> _TableRing | _PrimeRing:
    if spec._ring is None:
        spec._ring = _ring_mod(spec.p) if spec.e == 1 else _TableRing(spec)
    return spec._ring


_new = object.__new__


def _poly(spec: FieldSpec, indices: tuple) -> "Poly":
    """A polynomial from a trimmed tuple of valid indices; no validation."""
    f = _new(Poly)
    f.spec = spec
    f.indices = indices
    return f


class Poly:
    """A polynomial over GF(q); immutable.

    ``Poly(spec, coeffs)`` takes field elements of ``spec`` (anything
    else raises TypeError or FieldMismatchError) and keeps their indices,
    trimmed, in ``indices``.  Results of arithmetic come from the field's
    index-tuple arithmetic (see the module docstring).  ``coeffs`` and
    ``lead`` read back field elements.
    """

    __slots__ = ("spec", "indices")

    def __init__(self, spec: FieldSpec, coeffs=()):
        out = []
        for c in coeffs:
            if type(c) is not FieldElement or c.spec is not spec:
                if not isinstance(c, FieldElement):
                    raise TypeError(f"coefficients must be field elements, got {c!r}")
                if c.spec != spec:
                    raise FieldMismatchError(
                        f"coefficient from {c.spec!r} in a polynomial over {spec!r}"
                    )
            out.append(c.index)
        self.spec = spec
        self.indices = _ptrim(tuple(out))

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        return tuple(map(self.spec.element, self.indices))

    @property
    def degree(self) -> int:
        return len(self.indices) - 1

    @property
    def is_zero(self) -> bool:
        return not self.indices

    @property
    def lead(self) -> FieldElement:
        if not self.indices:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.spec.element(self.indices[-1])

    @property
    def is_monic(self) -> bool:
        return bool(self.indices) and self.indices[-1] == 1

    def monic(self) -> "Poly":
        """Scale by the inverse of the leading coefficient; zero stays zero."""
        if self.is_zero or self.is_monic:
            return self
        return self * self.lead.inverse()

    def __bool__(self):
        return bool(self.indices)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.indices == other.indices and (
            self.spec is other.spec or self.spec == other.spec
        )

    def __hash__(self):
        return hash((self.spec.p, self.spec.e, self.indices))

    def __repr__(self):
        return f"Poly(GF({self.spec.q}), {poly_to_pretty(self)!r})"

    def __reduce__(self):
        return (poly_from_indices, (self.spec, self.indices))

    def _ring_with(self, other):
        """The ring to combine with ``other`` in; None when it is no Poly."""
        if not isinstance(other, Poly):
            return None
        spec = self.spec
        if other.spec is not spec and other.spec != spec:
            raise FieldMismatchError(
                f"polynomials over {spec!r} and {other.spec!r} cannot be combined"
            )
        return _load_ring(spec)

    def __add__(self, other):
        ring = self._ring_with(other)
        if ring is None:
            return NotImplemented
        return _poly(self.spec, ring.add(self.indices, other.indices))

    def __sub__(self, other):
        ring = self._ring_with(other)
        if ring is None:
            return NotImplemented
        return _poly(self.spec, ring.sub(self.indices, other.indices))

    def __neg__(self):
        spec = self.spec
        return _poly(spec, _load_ring(spec).sub((), self.indices))

    def __mul__(self, other):
        spec = self.spec
        if isinstance(other, FieldElement):
            if other.spec is not spec and other.spec != spec:
                raise FieldMismatchError("scalar from a different field")
            ring = _load_ring(spec)
            return _poly(spec, ring.scale(self.indices, other.index))
        ring = self._ring_with(other)
        if ring is None:
            return NotImplemented
        return _poly(spec, ring.mul(self.indices, other.indices))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        exponent = int(exponent)
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined")
        spec = self.spec
        ring = _load_ring(spec)
        out, base = (1,), self.indices
        while exponent:
            if exponent & 1:
                out = ring.mul(out, base)
            base = ring.mul(base, base)
            exponent >>= 1
        return _poly(spec, out)

    def __divmod__(self, other):
        ring = self._ring_with(other)
        if ring is None:
            return NotImplemented
        if not other.indices:
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem = ring.divmod(self.indices, other.indices)
        return _poly(self.spec, quot), _poly(self.spec, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, point: FieldElement) -> FieldElement:
        """Evaluate at a field element (Horner, in field arithmetic)."""
        acc = self.spec.zero()
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __str__(self):
        return poly_to_pretty(self)


def zero(spec: FieldSpec) -> Poly:
    return _poly(spec, ())


def one(spec: FieldSpec) -> Poly:
    return _poly(spec, (1,))


def gen(spec: FieldSpec) -> Poly:
    """The polynomial x."""
    return _poly(spec, (0, 1))


def constant(spec: FieldSpec, index: int) -> Poly:
    """The constant polynomial whose coefficient has the given field index."""
    return poly_from_indices(spec, (index,))


# ---------------------------------------------------------------------------
# Enumeration: digit vectors <-> integers, polynomials <-> integers.


def digits_to_index(q: int, digits) -> int:
    """Base-q value of a digit vector (least significant digit first)."""
    q = int(q)
    if q < 2:
        raise ValueError(f"base must be at least 2, got {q}")
    value = 0
    for i, d in enumerate(reversed(tuple(digits))):
        d = int(d)
        if d < 0 or d >= q:
            raise ValueError(f"digit {d} out of range [0, {q})")
        value = value * q + d
    return value


def index_to_digits(q: int, index: int) -> tuple[int, ...]:
    """Inverse of :func:`digits_to_index`; no trailing zeros."""
    q = int(q)
    if q < 2:
        raise ValueError(f"base must be at least 2, got {q}")
    index = int(index)
    if index < 0:
        raise ValueError(f"index must be nonnegative, got {index}")
    out = []
    while index:
        index, d = divmod(index, q)
        out.append(d)
    return tuple(out)


def poly_from_index(spec: FieldSpec, index: int) -> Poly:
    """The polynomial whose coefficient indices are the base-q digits of index."""
    return _poly(spec, index_to_digits(spec.q, index))


def poly_to_index(f: Poly) -> int:
    return digits_to_index(f.spec.q, f.indices)


def poly_from_indices(spec: FieldSpec, indices) -> Poly:
    """Build a polynomial from per-coefficient field indices (ascending powers)."""
    out = [int(i) for i in indices]
    for i in out:
        if i < 0 or i >= spec.q:
            raise ValueError(f"element index {i} out of range [0, {spec.q})")
    return _poly(spec, _ptrim(tuple(out)))


def monic_of_degree(spec: FieldSpec, d: int):
    """Iterate the monic degree-d polynomials in index order."""
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    base = spec.q**d
    for index in range(base, 2 * base):
        yield poly_from_index(spec, index)


# ---------------------------------------------------------------------------
# Text formats.


def poly_to_string(f: Poly) -> str:
    """Canonical text form: coefficient indices, ascending, comma separated.

    The zero polynomial renders as the empty string.
    """
    return ",".join(map(str, f.indices))


_PRETTY_TERM = re.compile(
    r"^(?:(?P<coeff>\d+)\s*\*?\s*)?(?P<var>x)(?:\^(?P<power>\d+))?$|^(?P<const>\d+)$"
)


def poly_to_pretty(f: Poly) -> str:
    """Human-oriented rendering like ``x^2+2*x+1``; zero renders as ``0``."""
    if f.is_zero:
        return "0"
    terms = []
    for power in range(f.degree, -1, -1):
        c = f.indices[power]
        if c == 0:
            continue
        if power == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            tail = "x" if power == 1 else f"x^{power}"
            terms.append(head + tail)
    return "+".join(terms)


def _coefficient_index(spec: FieldSpec, digits: str, pos: int) -> int:
    """The coefficient index that ``digits`` spell, below q, or a ParseError at ``pos``.

    The digit count is compared with that of q - 1 first: ``int`` refuses
    strings of more than 4300 digits, and converting a long one is slow.
    """
    digits = digits.lstrip("0") or "0"
    if len(digits) <= len(str(spec.q - 1)) and int(digits) < spec.q:
        return int(digits)
    shown = digits if len(digits) <= 40 else f"of {len(digits)} digits"
    raise ParseError(f"coefficient index {shown} out of range [0, {spec.q})", pos)


def _parse_pretty(spec: FieldSpec, text: str) -> Poly:
    acc = zero(spec)
    pos = 0
    for chunk in text.split("+"):
        term = chunk.strip()
        if not term:
            raise ParseError("empty term", pos)
        m = _PRETTY_TERM.match(term)
        if m is None:
            raise ParseError(f"cannot parse term {term!r}", pos)
        if m.group("const") is not None:
            cidx, power = _coefficient_index(spec, m.group("const"), pos), 0
        else:
            cidx = _coefficient_index(spec, m.group("coeff") or "1", pos)
            power = m.group("power") or "1"
            # the digit count first: converting a long digit string is slow too
            if len(power) > len(str(MAX_PRETTY_POWER)) or int(power) > MAX_PRETTY_POWER:
                raise ParseError(f"power of x exceeds the maximum {MAX_PRETTY_POWER}", pos)
            power = int(power)
        coeffs = [0] * (power + 1)
        coeffs[power] = cidx
        acc = acc + poly_from_indices(spec, coeffs)
        pos += len(chunk) + 1
    return acc


def poly_from_string(spec: FieldSpec, text: str) -> Poly:
    """Parse either text form.

    Strings containing ``x`` use the human-oriented grammar; anything
    else is read as comma-separated coefficient indices, with the empty
    string meaning zero.  Subtraction is not part of either grammar
    (coefficients are indices, which are never negative).
    """
    if "-" in text:
        raise ParseError("'-' is not allowed; coefficients are field indices",
                         text.index("-"))
    if "x" in text:
        return _parse_pretty(spec, text.strip())
    if text.strip() == "":
        return zero(spec)
    indices = []
    pos = 0
    for token in text.split(","):
        stripped = token.strip()
        if not stripped.isdigit():
            raise ParseError(f"bad coefficient index {stripped!r}", pos)
        indices.append(_coefficient_index(spec, stripped, pos))
        pos += len(token) + 1
    return poly_from_indices(spec, indices)


# ---------------------------------------------------------------------------
# Divisibility, gcd, irreducibility, counting.


def divides(a: Poly, b: Poly) -> bool:
    """True iff a divides b.  Zero divides only zero."""
    if not isinstance(a, Poly) or not isinstance(b, Poly):
        raise TypeError("divides expects two polynomials")
    ring = a._ring_with(b)
    if a.is_zero:
        return b.is_zero
    return not ring.mod(b.indices, a.indices)


def _gcd(ring: _TableRing | _PrimeRing, a: tuple, b: tuple) -> tuple:
    while b:
        a, b = b, ring.mod(a, b)
    if not a or a[-1] == 1:
        return a
    return ring.scale(a, ring.inv(a[-1]))


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    return _poly(a.spec, _gcd(a._ring_with(b), a.indices, b.indices))


def xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g, g monic."""
    ring = a._ring_with(b)
    r0, r1 = a.indices, b.indices
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        quot, rem = ring.divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, ring.sub(s0, ring.mul(quot, s1))
        t0, t1 = t1, ring.sub(t0, ring.mul(quot, t1))
    if r0 and r0[-1] != 1:
        scale = ring.inv(r0[-1])
        r0, s0, t0 = (ring.scale(f, scale) for f in (r0, s0, t0))
    return tuple(_poly(a.spec, f) for f in (r0, s0, t0))


def is_irreducible(f: Poly) -> bool:
    """Rabin's irreducibility test (Rabin, SIAM J. Comput. 9, 1980).

    Only monic polynomials of degree d >= 1 qualify.  Such an f is
    irreducible over GF(q) iff x**(q**d) = x (mod f) and
    gcd(x**(q**(d/r)) - x, f) = 1 for every prime r dividing d.  The
    powers x**(q**i) mod f come from i repeated q-th powers, so the cost
    is polynomial in d and log q.  The last ``_RABIN_CACHE_SIZE``
    verdicts are kept, so a modulus tested over and over is tested once.
    """
    if f.degree < 1 or not f.is_monic:
        return False
    return _rabin(f.spec, f.indices)


@functools.lru_cache(maxsize=_RABIN_CACHE_SIZE)
def _rabin(spec: FieldSpec, f: tuple) -> bool:
    """Rabin's test for the monic f of degree >= 1, as coefficient indices."""
    d = len(f) - 1
    ring = _load_ring(spec)
    x = ring.mod((0, 1), f)
    maximal = {d // r for r in _prime_divisors(d)}
    h = x
    for i in range(1, d + 1):
        h = _powmod(ring, h, spec.q, f)
        if i in maximal and len(_gcd(ring, ring.sub(h, x), f)) != 1:
            return False
    return h == x


def _powmod(ring: _TableRing | _PrimeRing, base: tuple, exponent: int, modulus: tuple) -> tuple:
    """base**exponent mod modulus, for base reduced mod modulus and exponent >= 1."""
    out = base
    for bit in bin(exponent)[3:]:
        out = ring.mod(ring.mul(out, out), modulus)
        if bit == "1":
            out = ring.mod(ring.mul(out, base), modulus)
    return out


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def count_irreducibles(spec_or_q, m: int) -> int:
    """Number of monic irreducible polynomials of degree m over GF(q).

    Closed form: (1/m) * sum over d | m of mobius(d) * q**(m/d).
    Accepts either a FieldSpec or a plain prime-power order.
    """
    if isinstance(spec_or_q, FieldSpec):
        q = spec_or_q.q
    else:
        q = int(spec_or_q)
        factor_prime_power(q)
    m = int(m)
    if m < 1:
        raise ValueError(f"degree must be at least 1, got {m}")
    total = sum(_mobius(d) * q ** (m // d) for d in range(1, m + 1) if m % d == 0)
    count, rem = divmod(total, m)
    if rem:
        raise AssertionError(f"inexact irreducible count for q={q}, m={m}")
    return count


class IrreducibleTable:
    """Counts and (lazily materialized) lists of monic irreducibles.

    The degree-m list is sieved in index order: every product g * h of a
    listed irreducible g of degree d <= m/2 and a monic h of degree m - d
    is marked in a ``q**m`` boolean array, and the unmarked monic
    polynomials are the irreducibles.  The products are formed in numpy
    on coefficient-index arrays, ``_SIEVE_PAGE_ROWS`` at a time.  Each
    list is cross-checked against the closed-form count on
    materialization.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self._lists: dict[int, tuple[Poly, ...]] = {}

    def count(self, m: int) -> int:
        return count_irreducibles(self.spec, m)

    def irreducibles(self, m: int, budget: int = DEFAULT_ENUM_BUDGET) -> tuple[Poly, ...]:
        m = int(m)
        if m < 1:
            raise ValueError(f"degree must be at least 1, got {m}")
        if m in self._lists:
            return self._lists[m]
        cost = sum(
            self.spec.q**d for d in range(1, m + 1) if d not in self._lists
        )
        if cost > budget:
            raise BudgetExceededError(
                f"enumerating irreducibles of degree {m} over GF({self.spec.q}) "
                f"needs {cost} candidates, budget is {budget}"
            )
        for d in range(1, m + 1):
            self._materialize(d)
        return self._lists[m]

    def _materialize(self, m: int):
        if m in self._lists:
            return
        spec, q = self.spec, self.spec.q
        add, mul, p = _array_ops(spec)
        # entry i stands for the monic q**m + i, whose low m digits are i's
        reducible = np.zeros(q**m, bool)
        powers = q ** np.arange(m)
        for d in range(1, m // 2 + 1):
            lows = np.array([g.indices[:-1] for g in self._lists[d]])
            monics = q ** (m - d)
            pairs = len(lows) * monics
            for start in range(0, pairs, _SIEVE_PAGE_ROWS):
                pair = np.arange(start, min(start + _SIEVE_PAGE_ROWS, pairs))
                g = lows[pair // monics]
                h = _digit_rows(pair % monics, q, m - d)
                # the low m digits of (g + x^d)(h + x^(m-d)): x^d h + x^(m-d) g + g h
                f = np.zeros((len(pair), m), np.int64)
                f[:, d:] = h
                f[:, m - d:] = add(f[:, m - d:], g)
                for i in range(d):
                    f[:, i:i + m - d] = add(f[:, i:i + m - d], mul(g[:, i:i + 1], h))
                if p:
                    f %= p
                reducible[f @ powers] = True
        found = np.flatnonzero(~reducible)
        if len(found) != self.count(m):
            raise AssertionError(
                f"irreducible enumeration disagrees with the closed-form "
                f"count at degree {m} over GF({self.spec.q})"
            )
        self._lists[m] = tuple(
            _poly(spec, (*low, 1)) for low in _digit_rows(found, q, m).tolist()
        )


def _digit_rows(values, q: int, width: int):
    """Row i holds the low ``width`` base-q digits of values[i], least significant first."""
    return values[:, None] // q ** np.arange(width) % q


def _array_ops(spec: FieldSpec):
    """(add, mul, p) for int64 arrays of coefficient indices, broadcasting.

    Over a prime field add and mul are integer + and *, and the sieve
    reduces a product's digits mod p once they are summed (p < 2**20,
    so the sums fit in int64).  Otherwise they read ``_TableRing``'s
    tables, and p is 0.
    """
    if spec.e == 1:
        return np.add, np.multiply, spec.p

    def on_table(table):
        if isinstance(table, list):
            table = np.array(table)
            return lambda a, b: table[a, b]
        read = np.frompyfunc(lambda a, b: table[a][b], 2, 1)  # above TABLE_MAX_ORDER
        return lambda a, b: read(a, b).astype(np.int64)

    ring = _load_ring(spec)
    return on_table(ring.add_t), on_table(ring.mul_t), 0


def irreducibles_up_to(
    spec: FieldSpec, max_degree: int, budget: int = DEFAULT_ENUM_BUDGET
) -> IrreducibleTable:
    """Materialize all monic irreducibles of degree 1..max_degree.

    Raises BudgetExceededError before doing any work if the total number
    of candidate polynomials exceeds the budget.
    """
    if max_degree < 1:
        raise ValueError(f"max_degree must be at least 1, got {max_degree}")
    table = IrreducibleTable(spec)
    table.irreducibles(max_degree, budget=budget)
    return table
