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

This module holds the one GF(p)[x] ring on residue tuples mod p,
``_PrimeRing``, one per prime (``_ring_mod``), and the one residue-field
core, ``_ResidueField``.  GF(p^e) is GF(p)[y]/(m) (Lidl and
Niederreiter, *Finite Fields*, Thm. 1.61) and
:class:`fqx.matrix.QuotientField` is GF(q)[x]/(f): both are the core
over a ring, indexed alike.  Fields of order at most ``TABLE_MAX_ORDER``
intern their elements, and each operation reads one of the core's
``table[a][b]`` lists and returns a shared element.  Larger fields (up
to ``MAX_FIELD_ORDER``) build new elements from digit tuples: the
core's product and inverse, the ring's digit-wise sums and differences.
"""

from __future__ import annotations

import functools
from itertools import chain, zip_longest

from .errors import FieldMismatchError

# Field orders stay machine-sized.  Exact densities downstream use big
# rationals, but element tables and enumeration assume q fits here.
MAX_FIELD_ORDER = 1 << 20

# Fields up to this order are tabled: three q x q tables of rows of small ints,
# 1.5 MB of list slots at the cap, built in well under 0.1 s.
TABLE_MAX_ORDER = 1 << 8


# Miller-Rabin to the first 13 prime bases decides primality exactly below
# this bound (Sorenson and Webster, Math. Comp. 86 (2017), 985-1003).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test on the first 13 prime bases.

    Exact below ``_PRIME_TEST_BOUND`` (about 3.3e24); above it a composite
    that a base exposes is reported, and any other n raises ValueError.
    """
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PRIME_TEST_BOUND:
        raise ValueError(
            f"cannot decide whether {n} is prime: the test is exact only below "
            f"{_PRIME_TEST_BOUND}"
        )
    return True


def _integer_root(n: int, e: int) -> int:
    """floor(n ** (1/e)) for n >= 1, by Newton's iteration from above."""
    r = 1 << -(-n.bit_length() // e)
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


@functools.lru_cache(maxsize=256)
def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p**e, p prime, or raise ValueError.

    The largest e <= log2 q with an integer e-th root p is found first, so
    p is no perfect power, and q is a prime power exactly when p is prime
    (:func:`is_prime`, so p must lie below its bound).  Results are
    memoized: every closed form and count factors its q on each call.
    """
    q = int(q)
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    p, e = q, 1
    for d in range(q.bit_length() - 1, 1, -1):
        root = _integer_root(q, d)
        if root**d == q:
            p, e = root, d
            break
    if not is_prime(p):
        raise ValueError(f"q = {q} is not a prime power")
    return p, e


# ---------------------------------------------------------------------------
# GF(p)[x] on int coefficient tuples in ascending powers, trimmed (no
# trailing zeros; () is zero) on input and output.


def _ptrim(cs):
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return cs[:n]


class _PrimeRing:
    """GF(p)[x] on trimmed coefficient tuples, computed mod p.

    Every prime field's polynomials compute here: a GF(p) element's index
    is its residue, so coefficient tuples are :class:`fqx.poly.Poly`'s
    index tuples, and the interface is that of ``fqx.poly._TableRing``.
    A product of nonzero coefficients is nonzero, so products, scalings
    and quotients of trimmed inputs need no trimming.
    """

    __slots__ = ("p", "inv")

    def __init__(self, p: int):
        self.p = p
        # c -> 1/c mod p, kept for as many c as a tabled field has
        self.inv = functools.lru_cache(maxsize=TABLE_MAX_ORDER)(lambda c: pow(c, -1, p))

    def add(self, a, b):
        p = self.p
        return _ptrim(tuple([(x + y) % p for x, y in zip_longest(a, b, fillvalue=0)]))

    def sub(self, a, b):
        p = self.p
        return _ptrim(tuple([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)]))

    def scale(self, a, c):
        if not c:
            return ()
        p = self.p
        return tuple([c * x % p for x in a])

    def mul(self, a, b):
        if not a or not b:
            return ()
        p = self.p
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] = (out[j] + x * y) % p
        return tuple(out)

    def addmul(self, a, c, b):
        """a + c * b in one pass over a list, trimmed once."""
        if not c or not b:
            return a
        p = self.p
        out = list(a)
        out.extend([0] * (len(c) + len(b) - 1 - len(a)))
        for i, x in enumerate(c):
            if x:
                for j, y in enumerate(b, i):
                    out[j] = (out[j] + x * y) % p
        return _ptrim(tuple(out))

    def divmod(self, a, b):
        """Quotient and remainder of a by nonzero b."""
        quot = [0] * max(len(a) - len(b) + 1, 0)
        rem = self._reduce(a, b, quot)
        return tuple(quot), rem

    def mod(self, a, b):
        return self._reduce(a, b, None)

    def _reduce(self, a, b, quot):
        """Remainder of a by nonzero b; the quotient goes into ``quot`` unless None."""
        p = self.p
        rem = list(a)
        lead_inv = self.inv(b[-1])
        low = b[:-1]
        for shift in range(len(a) - len(b), -1, -1):
            c = rem.pop()
            if c:
                c = c * lead_inv % p
                if quot is not None:
                    quot[shift] = c
                for j, y in enumerate(low, shift):
                    rem[j] = (rem[j] - c * y) % p
        return _ptrim(tuple(rem))


@functools.lru_cache(maxsize=None)
def _ring_mod(p: int) -> _PrimeRing:
    """GF(p)[x]'s ring: one per prime, built on first use."""
    return _PrimeRing(p)


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
# Residue fields: GF(p^e) is GF(p)[y]/(m) and a fqx.matrix.QuotientField is
# GF(q)[x]/(f), with the same index order.  Residues are digit tuples.


def _digits_value(digits, p: int) -> int:
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value


def _digitwise_table(p: int, order: int, subtract: bool = False) -> list[list[int]]:
    """Rows of digit-wise addition (or subtraction) mod p on the indices below ``order``.

    ``order`` is a power of p; entry b of row a is a + b (a - b) digit
    by digit.  One-digit addition row a is ``range(p)`` rotated left by
    a, and subtraction row a is addition row a + 1 reversed.  Each
    further digit goes on top: for indices below P * p, row a + P * s
    is row a of the table below P, shifted up by P * (s op t) for each
    top digit t of b in turn.  The entries are the ints of one
    ``range(order)`` list, so each value is one object.
    """
    ints = list(range(order))
    ops = [ints[a:p] + ints[:a] for a in range(p)]
    if subtract:
        ops = [row[::-1] for row in ops[1:] + ops[:1]]
    rows, size = ops, p
    while size < order:
        blocks = [ints[size * c : size * (c + 1)].__getitem__ for c in range(p)]
        shifted = [[list(map(block, row)) for row in rows] for block in blocks]
        rows = [list(chain.from_iterable([shifted[c][a] for c in op])) for op in ops for a in range(size)]
        size *= p
    return rows


def _log_tables(order: int, mul) -> tuple[list[list[int]], list[int]]:
    """Multiplication rows and inverse table of a finite field.

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
    table = [[0] * order]
    for la in logs:
        table.append([0, *map(exp[la : la + order - 1].__getitem__, logs)])
    return table, [0] + [exp[order - 1 - la] for la in logs]


class _Lookup:
    """A read-only table of ``size`` entries whose entry i is ``entry(i)``.

    Reads are not range-checked; iteration stops at ``size``.
    """

    __slots__ = ("entry", "size")

    def __init__(self, entry, size: int):
        self.entry, self.size = entry, size

    def __getitem__(self, i):
        return self.entry(i)

    def __len__(self):
        return self.size

    def __iter__(self):
        return map(self.entry, range(self.size))


class _ResidueField:
    """GF(base)[y]/(modulus) on residue indices, for a monic irreducible modulus.

    ``ring`` computes in GF(base)[y] on coefficient-index tuples
    (``_ring_mod(p)``, or ``fqx.poly._load_ring`` of GF(q)), and
    ``modulus_indices`` is the modulus's coefficient-index tuple, of
    degree ``width``.  A residue is a tuple of at most ``width``
    coefficient indices, and its index is their base-``base`` value: the
    base-p value of its digits over GF(p), p = ``ring.p``.

    ``product`` and ``inverse`` compute on those tuples.  The tables
    ``add[a][b]``, ``sub[a][b]``, ``mul[a][b]`` and ``inv[a]`` (``inv[0]``
    a placeholder) are built on first read: up to order ``cap`` lists,
    ``add`` and ``sub`` digit by digit mod p and ``mul`` and ``inv`` from
    the logarithms of a primitive element; above it, rows whose entries
    are computed on the residues' digits when read.
    """

    def __init__(self, ring, base: int, modulus: tuple, cap: int):
        self.ring, self.base, self.modulus_indices = ring, base, modulus
        self.width = len(modulus) - 1
        self.order = base**self.width
        self.tabled = self.order <= cap
        self._digits = functools.partial(_digits, p=base, width=self.width)

    def product(self, a, b):
        """a * b mod the modulus."""
        ring = self.ring
        if self.order == ring.p:  # GF(p) itself
            return (a[0] * b[0] % self.order,)
        return ring.mod(ring.mul(_ptrim(a), _ptrim(b)), self.modulus_indices)

    def inverse(self, a):
        """1 / a mod the modulus, for a nonzero a."""
        ring = self.ring
        if self.width == 1:
            return (ring.inv(a[0]),)
        # extended Euclid in GF(base)[y] against the modulus
        r0, r1 = self.modulus_indices, _ptrim(a)
        s0, s1 = (), (1,)
        while r1:
            quot, rem = ring.divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, ring.sub(s0, ring.mul(quot, s1))
        # r0 is a nonzero constant gcd and s0 * a == r0 (mod modulus)
        return ring.scale(s0, ring.inv(r0[0]))

    def _on_read(self, op) -> _Lookup:
        """Rows whose entry b in row a is the index of ``op`` on their digits."""
        digits, order = self._digits, self.order
        return _Lookup(lambda a: _Lookup(
            lambda b, da=digits(a): _digits_value(op(da, digits(b)), self.base), order), order)

    @functools.cached_property
    def add(self):
        if not self.tabled:
            return self._on_read(self.ring.add)
        return _digitwise_table(self.ring.p, self.order)

    @functools.cached_property
    def sub(self):
        if not self.tabled:
            return self._on_read(self.ring.sub)
        return _digitwise_table(self.ring.p, self.order, subtract=True)

    @functools.cached_property
    def mul(self):
        return self._logs[0] if self.tabled else self._on_read(self.product)

    @functools.cached_property
    def inv(self):
        if self.tabled:
            return self._logs[1]
        return _Lookup(lambda a: a and _digits_value(self.inverse(self._digits(a)), self.base),
                       self.order)  # inv[0] is the placeholder 0, as in the tables

    @functools.cached_property
    def _logs(self):
        digits = self._digits
        return _log_tables(self.order, lambda a, b: _digits_value(
            self.product(digits(a), digits(b)), self.base))


# ---------------------------------------------------------------------------


class FieldSpec:
    """An immutable description of GF(p^e).

    Attributes: ``p`` (characteristic), ``e`` (extension degree),
    ``q = p**e`` (order) and ``modulus`` (monic degree-e digit tuple over
    GF(p), or None when e == 1).  Instances come from :func:`make_field`
    and are cached, so equal specs are the same object.
    """

    __slots__ = ("p", "e", "q", "modulus", "_tables", "_elements", "_ring")

    def __init__(self, p: int, e: int):
        p = int(p)
        e = int(e)
        if e < 1:
            raise ValueError(f"e must be at least 1, got {e}")
        # p and 2**e within the maximum, before p**e or is_prime can take long
        if p > MAX_FIELD_ORDER or e >= MAX_FIELD_ORDER.bit_length() or p**e > MAX_FIELD_ORDER:
            raise ValueError(f"field order p**e exceeds the supported maximum {MAX_FIELD_ORDER}")
        if not is_prime(p):
            raise ValueError("p not prime")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = _canonical_modulus(p, e) if e > 1 else None
        # GF(p)[y]/(modulus), or GF(p)[y]/(y) when e == 1; tables built on first read
        self._tables = _ResidueField(_ring_mod(p), p, self.modulus or (0, 1), TABLE_MAX_ORDER)
        self._elements = None  # interned up to TABLE_MAX_ORDER
        if self.q <= TABLE_MAX_ORDER:
            self._elements = tuple(_element(self, _digits(i, p, e), i) for i in range(self.q))
        # GF(q)[x] on coefficient-index tuples (fqx.poly._load_ring): the
        # prime's ring when e == 1, else a _TableRing; set on first use
        self._ring = None

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
    if int(q) > MAX_FIELD_ORDER:  # before factoring, which takes sqrt(q) steps
        raise ValueError(f"field order q exceeds the supported maximum {MAX_FIELD_ORDER}")
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
        elements = spec._elements
        if elements is None:
            return _from_digits(spec, spec._tables.ring.add(self.digits, other.digits))
        return elements[spec._tables.add[self.index][other.index]]

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        spec = self.spec
        if other.spec is not spec:
            _check_same_spec(self, other)
        elements = spec._elements
        if elements is None:
            return _from_digits(spec, spec._tables.ring.sub(self.digits, other.digits))
        return elements[spec._tables.sub[self.index][other.index]]

    def __neg__(self):
        return self.spec.zero() - self

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        spec = self.spec
        if other.spec is not spec:
            _check_same_spec(self, other)
        elements = spec._elements
        if elements is None:
            return _from_digits(spec, spec._tables.product(self.digits, other.digits))
        return elements[spec._tables.mul[self.index][other.index]]

    def inverse(self) -> "FieldElement":
        if not self.index:
            raise ZeroDivisionError("cannot invert the zero element")
        spec = self.spec
        elements = spec._elements
        if elements is None:
            return _from_digits(spec, spec._tables.inverse(self.digits))
        return elements[spec._tables.inv[self.index]]

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
    """An element from at most e digits, padded to e."""
    digits += (0,) * (spec.e - len(digits))
    return _element(spec, digits, _digits_value(digits, spec.p))


def elem_from_index(spec: FieldSpec, index: int) -> FieldElement:
    """The element whose base-p digit expansion is ``index``."""
    index = int(index)
    if index < 0 or index >= spec.q:
        raise ValueError(f"element index {index} out of range [0, {spec.q})")
    elements = spec._elements
    if elements is None:
        return _element(spec, _digits(index, spec.p, spec.e), index)
    return elements[index]


def elem_to_index(a: FieldElement) -> int:
    return a.index
