"""Arithmetic in the finite field GF(p^e) with a canonical element indexing.

An element is a residue polynomial over GF(p) in the power basis
1, y, ..., y^(e-1), stored as a digit tuple ``(d_0, ..., d_{e-1})`` with
``0 <= d_i < p``.  Its index is the base-p value ``sum(d_i * p**i)``,
which makes index 0 the additive identity, index 1 the multiplicative
identity, and fixes a bijection between ``range(q)`` and the field.
Every element carries both its digits and its index.

For e > 1 the reducing modulus is chosen deterministically: scanning the
monic degree-e polynomials over GF(p) in index order, the first one
that Rabin's test (:func:`fqx.poly.is_irreducible`) accepts wins.  Field
construction is therefore reproducible bit for bit across runs and
platforms.

This module holds the GF(p)[x] arithmetic on residue tuples mod p:
``_pmul``, ``_psub``, ``_pmod`` (remainder only), ``_pgcd`` and
``_pdivmod``.  The prime-field census kernels compute with them for
p >= 5 (GF(3) has a bit-sliced ring in :mod:`fqx.kernels`), and the
digit arithmetic of GF(p^e) reduces and inverts with them;
:class:`fqx.poly.Poly` computes on field indices through the operation
tables instead.

Fields of order at most ``TABLE_MAX_ORDER`` intern their elements: on
first use the spec builds one element per index plus flat q*q
addition, subtraction and multiplication tables and q-entry negation
and inverse tables, so each operation is an index lookup that returns
a shared element.  Larger fields (up to ``MAX_FIELD_ORDER``) compute
with the digit arithmetic below, which is also what fills the tables.
"""

from __future__ import annotations

import functools
from itertools import chain

from .errors import FieldMismatchError

# Field orders stay machine-sized.  Exact densities downstream use big
# rationals, but element tables and enumeration assume q fits here.
MAX_FIELD_ORDER = 1 << 20

# Fields up to this order are tabled: three flat q*q lists of small ints,
# 1.5 MB of list slots at the cap, built in well under 0.1 s.
TABLE_MAX_ORDER = 1 << 8


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test for machine-sized n."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p**e, p prime, or raise ValueError."""
    q = int(q)
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    e = 0
    rest = q
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise ValueError(f"q = {q} is not a prime power")
    return p, e


# ---------------------------------------------------------------------------
# GF(p)[x] on int coefficient tuples in ascending powers, trimmed (no
# trailing zeros; () is zero) on input and output.  The prime-field
# kernels compute with these directly, and the digit arithmetic below
# reduces by the modulus with them.  Zero coefficients are skipped, and
# gcd runs on the remainder-only division.


def _ptrim(cs):
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return cs[:n]


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def _psub(a, b, p):
    out = list(a) + [0] * max(len(b) - len(a), 0)
    for i, y in enumerate(b):
        out[i] = (out[i] - y) % p
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _pmod(a, b, p):
    """Remainder of a by nonzero b; a may carry trailing zeros."""
    r = list(a)
    db = len(b) - 1
    binv = pow(b[-1], p - 2, p)
    while len(r) > db:
        if r[-1]:
            c = (r[-1] * binv) % p
            shift = len(r) - 1 - db
            for i, y in enumerate(b):
                if y:
                    r[i + shift] = (r[i + shift] - c * y) % p
        r.pop()
    while r and not r[-1]:
        r.pop()
    return tuple(r)


def _pgcd(a, b, p):
    """A gcd of a and b, not made monic; () when both are zero."""
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _pdivmod(a, b, p):
    """Quotient and remainder of trimmed a by nonzero b."""
    r = list(a)
    db = len(b) - 1
    binv = pow(b[-1], p - 2, p)
    quot = [0] * max(len(r) - db, 0)
    while len(r) > db:
        if r[-1]:
            c = (r[-1] * binv) % p
            shift = len(r) - 1 - db
            quot[shift] = c
            for i, y in enumerate(b):
                if y:
                    r[i + shift] = (r[i + shift] - c * y) % p
        r.pop()
    while r and not r[-1]:
        r.pop()
    return tuple(quot), tuple(r)


def _digits(value: int, p: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        value, d = divmod(value, p)
        out.append(d)
    return tuple(out)


def _canonical_modulus(p: int, e: int) -> tuple[int, ...]:
    """First monic degree-e polynomial over GF(p), by index, that is irreducible.

    Irreducibility is Rabin's test, :func:`fqx.poly.is_irreducible`,
    run over GF(p); GF(p) needs no modulus, so this does not recurse.
    """
    from .poly import is_irreducible, monic_of_degree  # poly builds on gf

    for f in monic_of_degree(make_field(p), e):
        if is_irreducible(f):
            return f.indices
    raise AssertionError(f"no irreducible of degree {e} over GF({p})")


# ---------------------------------------------------------------------------
# Digit arithmetic: the reference that fills the operation tables and
# computes directly in fields above TABLE_MAX_ORDER.  Elements are digit
# tuples of length e.


def _digits_value(digits, p: int) -> int:
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value


def _digit_add(p, a, b):
    return tuple((x + y) % p for x, y in zip(a, b))


def _digit_sub(p, a, b):
    return tuple((x - y) % p for x, y in zip(a, b))


def _digit_neg(p, a):
    return tuple((-x) % p for x in a)


def _digit_mul(spec: "FieldSpec", a, b):
    p = spec.p
    if spec.e == 1:
        return ((a[0] * b[0]) % p,)
    rem = _pmod(_pmul(_ptrim(a), _ptrim(b), p), spec.modulus, p)
    return rem + (0,) * (spec.e - len(rem))


def _digit_inverse(spec: "FieldSpec", a):
    p = spec.p
    if spec.e == 1:
        return (pow(a[0], p - 2, p),)
    # extended Euclid in GF(p)[y] against the modulus
    r0, r1 = spec.modulus, _ptrim(a)
    s0, s1 = (), (1,)
    while r1:
        quot, rem = _pdivmod(r0, r1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, _psub(s0, _pmul(quot, s1, p), p)
    # r0 is a nonzero constant gcd and s0 * a == r0 (mod modulus), with
    # deg s0 < e
    cinv = pow(r0[0], p - 2, p)
    inv = tuple((x * cinv) % p for x in s0)
    return inv + (0,) * (spec.e - len(inv))


def _digitwise_table(p: int, width: int, subtract: bool = False) -> list[int]:
    """Flat table of digit-wise addition (or subtraction) mod p on width-digit numbers.

    Entry (a, b) sits at a * p**width + b; width >= 1.  One-digit addition
    row a is ``range(p)`` rotated left by a, and subtraction row a is
    addition row a + 1 reversed.  The table for w digits puts a new
    lowest digit in front of the table for w - 1.
    """
    up = list(range(p))
    ops = [up[a:] + up[:a] for a in range(p)]
    if subtract:
        ops = [row[::-1] for row in ops[1:] + ops[:1]]
    rows = ops
    for _ in range(width - 1):
        rows = [[d + p * s for s in row for d in ds] for row in rows for ds in ops]
    return list(chain.from_iterable(rows))


def _log_tables(order: int, mul) -> tuple[list[int], list[int]]:
    """Flat multiplication table and inverse table of a finite field.

    ``mul`` multiplies two elements by index (0 is zero, 1 is one); about
    ``order`` calls find the powers of the first primitive element g, and
    a * b = g**(log a + log b).  ``inv[0]`` is a placeholder.
    """
    for g in range(1, order):
        powers, x = [1], g
        while x != 1:
            powers.append(x)
            x = mul(x, g)
        if len(powers) == order - 1:
            break
    else:
        raise AssertionError(f"a field of order {order} has no primitive element")
    log = [0] * order
    for i, v in enumerate(powers):
        log[v] = i
    exp = powers + powers
    logs = log[1:]
    table = [0] * order
    for la in logs:
        table.append(0)
        table.extend(map(exp[la : la + order - 1].__getitem__, logs))
    return table, [0] + [exp[order - 1 - la] for la in logs]


class _FieldTables:
    """Interned elements and operation tables of one field, by index.

    ``add``, ``sub`` and ``mul`` are flat: the entry for (a, b) sits at
    ``a * q + b``.  ``inv[0]`` is a placeholder; zero is never inverted.
    """

    __slots__ = ("elements", "add", "sub", "mul", "neg", "inv")

    def __init__(self, spec: "FieldSpec"):
        p, e, q = spec.p, spec.e, spec.q
        self.elements = tuple(_element(spec, _digits(i, p, e), i) for i in range(q))
        self.add = _digitwise_table(p, e)
        self.neg = [_digits_value(_digit_neg(p, x.digits), p) for x in self.elements]
        self.sub = _digitwise_table(p, e, subtract=True)

        def mul(a, b):
            product = _digit_mul(spec, _digits(a, p, e), _digits(b, p, e))
            return _digits_value(product, p)

        self.mul, self.inv = _log_tables(q, mul)


# ---------------------------------------------------------------------------


class FieldSpec:
    """An immutable description of GF(p^e).

    Attributes: ``p`` (characteristic), ``e`` (extension degree),
    ``q = p**e`` (order) and ``modulus`` (monic degree-e digit tuple over
    GF(p), or None when e == 1).  Instances come from :func:`make_field`
    and are cached, so equal specs are the same object.
    """

    __slots__ = ("p", "e", "q", "modulus", "_tables", "_ring")

    def __init__(self, p: int, e: int):
        p = int(p)
        e = int(e)
        if not is_prime(p):
            raise ValueError("p not prime")
        if e < 1:
            raise ValueError(f"e must be at least 1, got {e}")
        q = p**e
        if q > MAX_FIELD_ORDER:
            raise ValueError(
                f"field order {p}**{e} = {q} exceeds the supported "
                f"maximum {MAX_FIELD_ORDER}"
            )
        self.p = p
        self.e = e
        self.q = q
        self.modulus = _canonical_modulus(p, e) if e > 1 else None
        self._tables = None
        # fqx.poly's arithmetic on coefficient-index tuples, set on first use
        self._ring = None

    def _load_tables(self) -> "_FieldTables | None":
        """The operation tables, built on first call; None above the cap."""
        if self._tables is None and self.q <= TABLE_MAX_ORDER:
            self._tables = _FieldTables(self)
        return self._tables

    def element(self, index: int) -> "FieldElement":
        return elem_from_index(self, index)

    def zero(self) -> "FieldElement":
        return elem_from_index(self, 0)

    def one(self) -> "FieldElement":
        return elem_from_index(self, 1)

    def elements(self):
        """Iterate over the whole field in index order."""
        for i in range(self.q):
            yield elem_from_index(self, i)

    def __eq__(self, other):
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return self.p == other.p and self.e == other.e

    def __hash__(self):
        return hash((FieldSpec, self.p, self.e))

    def __repr__(self):
        return f"GF({self.q})"

    def __reduce__(self):
        return (make_field, (self.p, self.e))


@functools.lru_cache(maxsize=None)
def _make_field_cached(p: int, e: int) -> FieldSpec:
    return FieldSpec(p, e)


def make_field(p: int, e: int = 1) -> FieldSpec:
    """Construct (or fetch the cached) GF(p^e); equal orders share one spec."""
    return _make_field_cached(int(p), int(e))


def field_from_order(q: int) -> FieldSpec:
    """GF(q) for a prime power q."""
    p, e = factor_prime_power(q)
    return make_field(p, e)


def _check_same_spec(a: "FieldElement", b: "FieldElement"):
    if a.spec is not b.spec and a.spec != b.spec:
        raise FieldMismatchError(
            f"elements of {a.spec!r} and {b.spec!r} cannot be combined"
        )


class FieldElement:
    """A single element of GF(p^e): its digit tuple and its index.

    ``FieldElement(spec, digits)`` validates the digits and builds a new
    object.  In fields of order at most TABLE_MAX_ORDER, arithmetic,
    ``spec.element`` and :func:`elem_from_index` return the field's
    interned elements instead, found by table lookup; in larger fields
    they build new elements by digit arithmetic.  Equality compares the
    spec and the index, so both kinds of element mix freely.
    """

    __slots__ = ("spec", "digits", "index")

    def __init__(self, spec: FieldSpec, digits):
        digits = tuple(int(d) for d in digits)
        if len(digits) != spec.e:
            raise ValueError(
                f"expected {spec.e} digits for {spec!r}, got {len(digits)}"
            )
        p = spec.p
        for d in digits:
            if d < 0 or d >= p:
                raise ValueError(f"digit {d} out of range [0, {p})")
        self.spec = spec
        self.digits = digits
        self.index = _digits_value(digits, p)

    def __bool__(self):
        return self.index != 0

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.index == other.index and (
            self.spec is other.spec or self.spec == other.spec
        )

    def __hash__(self):
        return hash((self.spec.p, self.spec.e, self.digits))

    def __repr__(self):
        return f"F{self.spec.q}({self.index})"

    def __reduce__(self):
        return (elem_from_index, (self.spec, self.index))

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        spec = self.spec
        if other.spec is not spec:
            _check_same_spec(self, other)
        t = spec._tables or spec._load_tables()
        if t is None:
            return _from_digits(spec, _digit_add(spec.p, self.digits, other.digits))
        return t.elements[t.add[self.index * spec.q + other.index]]

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        spec = self.spec
        if other.spec is not spec:
            _check_same_spec(self, other)
        t = spec._tables or spec._load_tables()
        if t is None:
            return _from_digits(spec, _digit_sub(spec.p, self.digits, other.digits))
        return t.elements[t.sub[self.index * spec.q + other.index]]

    def __neg__(self):
        spec = self.spec
        t = spec._tables or spec._load_tables()
        if t is None:
            return _from_digits(spec, _digit_neg(spec.p, self.digits))
        return t.elements[t.neg[self.index]]

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        spec = self.spec
        if other.spec is not spec:
            _check_same_spec(self, other)
        t = spec._tables or spec._load_tables()
        if t is None:
            return _from_digits(spec, _digit_mul(spec, self.digits, other.digits))
        return t.elements[t.mul[self.index * spec.q + other.index]]

    def inverse(self) -> "FieldElement":
        if not self.index:
            raise ZeroDivisionError("cannot invert the zero element")
        spec = self.spec
        t = spec._tables or spec._load_tables()
        if t is None:
            return _from_digits(spec, _digit_inverse(spec, self.digits))
        return t.elements[t.inv[self.index]]

    def __truediv__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, exponent: int):
        exponent = int(exponent)
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        out = self.spec.one()
        while exponent:
            if exponent & 1:
                out = out * base
            base = base * base
            exponent >>= 1
        return out


def _element(spec: FieldSpec, digits: tuple, index: int) -> FieldElement:
    """An element from digits and index known to agree; no validation."""
    out = object.__new__(FieldElement)
    out.spec = spec
    out.digits = digits
    out.index = index
    return out


def _from_digits(spec: FieldSpec, digits: tuple) -> FieldElement:
    return _element(spec, digits, _digits_value(digits, spec.p))


def elem_from_index(spec: FieldSpec, index: int) -> FieldElement:
    """The element whose base-p digit expansion is ``index``."""
    index = int(index)
    if index < 0 or index >= spec.q:
        raise ValueError(f"element index {index} out of range [0, {spec.q})")
    t = spec._tables or spec._load_tables()
    if t is None:
        return _element(spec, _digits(index, spec.p, spec.e), index)
    return t.elements[index]


def elem_to_index(a: FieldElement) -> int:
    return a.index
