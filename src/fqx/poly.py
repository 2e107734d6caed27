"""Univariate polynomials over GF(q), with a canonical integer enumeration.

A polynomial ``sum(c_i * x**i)`` is stored as a trimmed tuple of field
elements in ascending power order; the zero polynomial has degree -1.
Writing each coefficient as its field index gives the enumeration
``poly_from_index``: the polynomial whose base-q digit string is the
index.  Degree-d monic polynomials occupy exactly the index interval
``[q**d, 2 * q**d)``, which the irreducibility and counting routines
below rely on.

Two text formats are supported.  The canonical one is a comma-separated
list of coefficient indices in ascending power order ("1,0,2" is
1 + 2x^2 over GF(3)), with the empty string denoting zero.  A
human-oriented form like "x^2+2*x+1" is also accepted on input.
"""

from __future__ import annotations

import re

from .errors import BudgetExceededError, FieldMismatchError, ParseError
from .gf import FieldElement, FieldSpec, elem_from_index, factor_prime_power

# Ceiling on how many candidate polynomials an irreducibility table will
# enumerate in one request unless the caller raises it explicitly.
DEFAULT_ENUM_BUDGET = 10**6


class Poly:
    """A polynomial over GF(q); immutable."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs=()):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, FieldElement):
                raise TypeError(f"coefficients must be field elements, got {c!r}")
            if c.spec != spec:
                raise FieldMismatchError(
                    f"coefficient from {c.spec!r} in a polynomial over {spec!r}"
                )
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.spec = spec
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> FieldElement:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.spec.one()

    def monic(self) -> "Poly":
        """Scale by the inverse of the leading coefficient; zero stays zero."""
        if self.is_zero or self.is_monic:
            return self
        inv = self.coeffs[-1].inverse()
        return Poly(self.spec, (c * inv for c in self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.spec == other.spec and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.spec.p, self.spec.e, self.coeffs))

    def __repr__(self):
        return f"Poly(GF({self.spec.q}), {poly_to_pretty(self)!r})"

    def __reduce__(self):
        return (poly_from_indices, (self.spec, tuple(c.index for c in self.coeffs)))

    def _binop_check(self, other):
        if not isinstance(other, Poly):
            return False
        if self.spec != other.spec:
            raise FieldMismatchError(
                f"polynomials over {self.spec!r} and {other.spec!r} cannot be combined"
            )
        return True

    def __add__(self, other):
        if not self._binop_check(other):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.spec, out)

    def __sub__(self, other):
        if not self._binop_check(other):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        zero = self.spec.zero()
        out = []
        for i in range(n):
            x = self.coeffs[i] if i < len(self.coeffs) else zero
            y = other.coeffs[i] if i < len(other.coeffs) else zero
            out.append(x - y)
        return Poly(self.spec, out)

    def __neg__(self):
        return Poly(self.spec, (-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise FieldMismatchError("scalar from a different field")
            return Poly(self.spec, (c * other for c in self.coeffs))
        if not self._binop_check(other):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly(self.spec)
        zero = self.spec.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + x * y
        return Poly(self.spec, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        exponent = int(exponent)
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined")
        out = one(self.spec)
        base = self
        while exponent:
            if exponent & 1:
                out = out * base
            base = base * base
            exponent >>= 1
        return out

    def __divmod__(self, other):
        if not self._binop_check(other):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        spec = self.spec
        rem = list(self.coeffs)
        db = other.degree
        binv = other.lead.inverse()
        zero = spec.zero()
        qlen = max(len(rem) - db, 0)
        quot = [zero] * qlen
        while len(rem) > db:
            if not rem[-1]:
                rem.pop()
                continue
            shift = len(rem) - 1 - db
            c = rem[-1] * binv
            quot[shift] = c
            for i, y in enumerate(other.coeffs):
                rem[i + shift] = rem[i + shift] - c * y
            rem.pop()
        return Poly(spec, quot), Poly(spec, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, point: FieldElement) -> FieldElement:
        """Evaluate at a field element (Horner)."""
        acc = self.spec.zero()
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __str__(self):
        return poly_to_pretty(self)


def zero(spec: FieldSpec) -> Poly:
    return Poly(spec)


def one(spec: FieldSpec) -> Poly:
    return Poly(spec, (spec.one(),))


def gen(spec: FieldSpec) -> Poly:
    """The polynomial x."""
    return Poly(spec, (spec.zero(), spec.one()))


def constant(spec: FieldSpec, index: int) -> Poly:
    """The constant polynomial whose coefficient has the given field index."""
    return Poly(spec, (elem_from_index(spec, index),))


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
    return Poly(
        spec, (elem_from_index(spec, d) for d in index_to_digits(spec.q, index))
    )


def poly_to_index(f: Poly) -> int:
    return digits_to_index(f.spec.q, (c.index for c in f.coeffs))


def poly_from_indices(spec: FieldSpec, indices) -> Poly:
    """Build a polynomial from per-coefficient field indices (ascending powers)."""
    return Poly(spec, (elem_from_index(spec, i) for i in indices))


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
    return ",".join(str(c.index) for c in f.coeffs)


_PRETTY_TERM = re.compile(
    r"^(?:(?P<coeff>\d+)\s*\*?\s*)?(?P<var>x)(?:\^(?P<power>\d+))?$|^(?P<const>\d+)$"
)


def poly_to_pretty(f: Poly) -> str:
    """Human-oriented rendering like ``x^2+2*x+1``; zero renders as ``0``."""
    if f.is_zero:
        return "0"
    terms = []
    for power in range(f.degree, -1, -1):
        c = f.coeffs[power].index
        if c == 0:
            continue
        if power == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            tail = "x" if power == 1 else f"x^{power}"
            terms.append(head + tail)
    return "+".join(terms)


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
            cidx, power = int(m.group("const")), 0
        else:
            cidx = int(m.group("coeff")) if m.group("coeff") else 1
            power = int(m.group("power")) if m.group("power") else 1
        if cidx >= spec.q:
            raise ParseError(
                f"coefficient index {cidx} out of range [0, {spec.q})", pos
            )
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
        value = int(stripped)
        if value >= spec.q:
            raise ParseError(
                f"coefficient index {value} out of range [0, {spec.q})", pos
            )
        indices.append(value)
        pos += len(token) + 1
    return poly_from_indices(spec, indices)


# ---------------------------------------------------------------------------
# Divisibility, gcd, irreducibility, counting.


def divides(a: Poly, b: Poly) -> bool:
    """True iff a divides b.  Zero divides only zero."""
    if not isinstance(a, Poly) or not isinstance(b, Poly):
        raise TypeError("divides expects two polynomials")
    if a.spec != b.spec:
        raise FieldMismatchError("polynomials over different fields")
    if a.is_zero:
        return b.is_zero
    return (b % a).is_zero


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    if a.spec != b.spec:
        raise FieldMismatchError("polynomials over different fields")
    while b:
        a, b = b, a % b
    return a.monic()


def xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g, g monic."""
    if a.spec != b.spec:
        raise FieldMismatchError("polynomials over different fields")
    spec = a.spec
    r0, r1 = a, b
    s0, s1 = one(spec), zero(spec)
    t0, t1 = zero(spec), one(spec)
    while r1:
        quot, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quot * s1
        t0, t1 = t1, t0 - quot * t1
    if r0.is_zero or r0.is_monic:
        return r0, s0, t0
    scale = r0.lead.inverse()
    return r0 * scale, s0 * scale, t0 * scale


def is_irreducible(f: Poly) -> bool:
    """Trial-division irreducibility test.

    Only monic polynomials of degree >= 1 qualify; the test divides by
    every monic polynomial of degree up to deg(f)/2.  Fine for the
    degrees this package works at, not meant for cryptographic sizes.
    """
    if f.degree < 1 or not f.is_monic:
        return False
    for d in range(1, f.degree // 2 + 1):
        for g in monic_of_degree(f.spec, d):
            if divides(g, f):
                return False
    return True


def _divisor_list(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
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
    total = sum(_mobius(d) * q ** (m // d) for d in _divisor_list(m))
    count, rem = divmod(total, m)
    if rem:
        raise AssertionError(f"inexact irreducible count for q={q}, m={m}")
    return count


class IrreducibleTable:
    """Counts and (lazily materialized) lists of monic irreducibles.

    Lists are produced in index order by trial division against the
    already known irreducibles of at most half the degree, and each list
    is cross-checked against the closed-form count on materialization.
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
        lower = []
        for d in range(1, m // 2 + 1):
            lower.extend(self._lists[d])
        found = []
        for f in monic_of_degree(self.spec, m):
            if all(not divides(g, f) for g in lower):
                found.append(f)
        if len(found) != self.count(m):
            raise AssertionError(
                f"irreducible enumeration disagrees with the closed-form "
                f"count at degree {m} over GF({self.spec.q})"
            )
        self._lists[m] = tuple(found)


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
