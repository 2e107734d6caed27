"""Index-level predicate kernels for censuses and sampling.

Exhaustive censuses and Monte Carlo runs iterate over tuples of entry
indices (row-major); routing every tuple through PolyMatrix would
dominate the runtime.  A compiled :class:`Kernel` answers the predicate
in two steps:

- ``decode(v)`` maps one entry index to the representation its route
  computes with, in O(log_q v) steps and with no table whose size
  depends on the largest index.  GF(2) needs no decoding (an index *is*
  the bitmask of its coefficients; ``decode`` is None); GF(3) decodes to
  two bitmasks, ``(ones, twos)``, of the coefficients equal to 1 and to
  2; prime fields with p >= 5 keep the base-p digit tuple, a trimmed
  coefficient tuple for the GF(p)[x] routines of :mod:`fqx.gf`
  (``_pmul``, ``_psub``, ``_pgcd``); residue routes map an index to the
  index of its residue in a :class:`fqx.matrix.QuotientField` of order
  Q, by Horner's rule over the base-q digits through a Q x q step table
  ``r <- x*r + digit`` up to Q = 512 and by reducing the digit tuple
  above it; the matrix fallback builds the polynomial object.
- ``test(values) -> bool`` answers the predicate on the k*n decoded
  entries of one matrix, row-major.

Callers choose how to cache decoded values.  A census touches every
index, so it decodes ``range(N + 1)`` once, merges indices whose decoded
values are equal (keeping a count of each), and tests one matrix per
multiset of n columns, weighted by its orderings and counts: every
predicate here is unchanged when the columns are permuted.  At n = 1
each matrix is its own multiset, and the census streams the indices.
Sampling decodes only the distinct indices it draws, in a memo bounded
by two pages of draws.  Memory is therefore O(N) for a census with
n >= 2, O(1) for n = 1 and O(page) for sampling, and the per-space
set-up (step tables, and the tables of the quotient fields that the
kernel builds for itself) depends on q, the payload and, for the local
unimodular criterion, the degree of the largest index, capped by
``_LOCAL_TABLE_WORK``.

Every specialized route is cross-checked against the matrix-route
predicate in the test suite; anything not specialized falls back to
that route.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import Callable, NamedTuple

from .gf import FieldSpec, _digitwise_table, _pgcd, _pmul, _psub
from .matrix import (
    _TABLE_ORDER_CAP,
    IrreducibleSet,
    PolyMatrix,
    QuotientField,
    _rank,
    is_coprime_to,
    is_unimodular,
    minors_gcd,
)
from .poly import (
    Poly,
    count_irreducibles,
    divides,
    gen,
    index_to_digits,
    irreducibles_up_to,
    poly_from_index,
)


class Kernel(NamedTuple):
    """A compiled predicate: ``test(tuple(map(decode, indices)))``.

    ``route`` names the kernel family ("bits", "prime", "ranktable" or
    "fallback"); ``decode`` is None when an index is its own
    representation.
    """

    route: str
    decode: Callable[[int], object] | None
    test: Callable[..., bool]


def compile_kernel(
    spec: FieldSpec, k: int, n: int, kind: str, payload, max_index: int | None = None
) -> Kernel:
    """Split the predicate on k x n matrices into ``decode`` and ``test``.

    ``kind`` is one of "unimodular", "coprime" (payload: IrreducibleSet)
    or "divisible" (payload: a monic irreducible Poly).  ``max_index``,
    when given, is the largest entry index the kernel will see: it lets
    a unimodular kernel that neither the bits nor the prime route serves
    test full rank modulo every monic irreducible of degree at most
    max(kD, 1), D the degree of entry ``max_index``, when the tables for
    all of those moduli fit ``_LOCAL_TABLE_WORK`` (route "ranktable").
    Otherwise, and always when ``max_index`` is None, the unimodular
    predicate takes the bits, prime or matrix route.
    """
    if kind == "unimodular":
        return _compile_unimodular(spec, k, n, max_index)
    if kind == "coprime":
        return _compile_coprime(spec, k, n, payload)
    if kind == "divisible":
        return _compile_divisible(spec, k, n, payload)
    raise ValueError(f"unknown predicate kind {kind!r}")


def compile_index_predicate(
    spec: FieldSpec, k: int, n: int, max_index: int, kind: str, payload
):
    """Build ``tester(indices) -> bool`` for tuples of k*n entry indices.

    The tester is :func:`compile_kernel`'s ``test`` composed with its
    ``decode``, memoized per tester.  ``max_index`` (the largest entry
    index that will be passed in) picks the route; compiling costs no
    time or memory that grows with it past the ``_LOCAL_TABLE_WORK`` cap,
    and the memo holds one entry per distinct index seen.
    """
    decode, test = compile_kernel(spec, k, n, kind, payload, max_index)[1:]
    if decode is None:
        return test
    memo = {}

    def tester(indices):
        try:
            values = [memo[v] for v in indices]
        except KeyError:
            for v in indices:
                if v not in memo:
                    memo[v] = decode(v)
            values = [memo[v] for v in indices]
        return test(values)

    return tester


# ---------------------------------------------------------------------------
# GF(2): a polynomial index *is* the bitmask of its coefficients.


def _gcd_bits(a: int, b: int) -> int:
    while b:
        la, lb = a.bit_length(), b.bit_length()
        while la >= lb and a:
            a ^= b << (la - lb)
            la = a.bit_length()
        a, b = b, a
    return a


def _mul_bits(a: int, b: int) -> int:
    out = 0
    while b:
        low = b & -b
        out ^= a << (low.bit_length() - 1)
        b ^= low
    return out


def _unimodular_bits_one_row(n: int):
    def test(indices):
        g = indices[0]
        for v in indices[1:]:
            g = _gcd_bits(g, v)
            if g == 1:
                return True
        return g == 1

    return test


def _unimodular_bits_two_rows(n: int):
    pairs = tuple(combinations(range(n), 2))

    def test(indices):
        top, bottom = indices[:n], indices[n:]
        g = 0
        for i, j in pairs:
            det = _mul_bits(top[i], bottom[j]) ^ _mul_bits(top[j], bottom[i])
            g = _gcd_bits(g, det)
            if g == 1:
                return True
        return g == 1

    return test


# ---------------------------------------------------------------------------
# GF(3), bit-sliced: a polynomial is the pair (ones, twos) of bitmasks of
# its coefficients equal to 1 and to 2 (Boothby and Bradshaw,
# arXiv:0901.1413).  Negation swaps the planes.

_TRIT_CHUNK = 5
_CHUNK_BASE = 3**_TRIT_CHUNK


def _chunk_planes(width: int) -> tuple:
    """The planes of every value below 3**width, by index."""
    planes = [(0, 0)]
    for i in range(width):
        planes = [
            (ones | (d == 1) << i, twos | (d == 2) << i)
            for d in range(3)
            for ones, twos in planes
        ]
    return tuple(planes)


_CHUNK_PLANES = _chunk_planes(_TRIT_CHUNK)


def _decode_trits(v: int) -> tuple[int, int]:
    ones = twos = shift = 0
    while v:
        v, r = divmod(v, _CHUNK_BASE)
        o, t = _CHUNK_PLANES[r]
        ones |= o << shift
        twos |= t << shift
        shift += _TRIT_CHUNK
    return ones, twos


def _sub_trits(a, b):
    a1, a2 = a
    b2, b1 = b
    t = (a1 | b2) ^ (a2 | b1)
    return (a2 | b2) ^ t, (a1 | b1) ^ t


def _mul_trits(a, b):
    a1, a2 = a
    b1, b2 = b
    c1 = c2 = 0
    while b1:  # add a << s for each coefficient 1 of b
        low = b1 & -b1
        s = low.bit_length() - 1
        x1 = a1 << s
        x2 = a2 << s
        t = (c1 | x2) ^ (c2 | x1)
        c1, c2 = (c2 | x2) ^ t, (c1 | x1) ^ t
        b1 ^= low
    while b2:  # subtract it for each coefficient 2
        low = b2 & -b2
        s = low.bit_length() - 1
        x1 = a2 << s
        x2 = a1 << s
        t = (c1 | x2) ^ (c2 | x1)
        c1, c2 = (c2 | x2) ^ t, (c1 | x1) ^ t
        b2 ^= low
    return c1, c2


def _gcd_trits(a, b):
    """A gcd of a and b, not made monic; (0, 0) when both are zero."""
    a1, a2 = a
    b1, b2 = b
    while b1 | b2:
        lb = (b1 | b2).bit_length()
        if b2 >> (lb - 1):
            b1, b2 = b2, b1  # negate b to make it monic
        la = (a1 | a2).bit_length()
        while la >= lb:
            s = la - lb
            if a1 >> (la - 1):  # leading 1: subtract b << s
                x2, x1 = b1 << s, b2 << s
            else:  # leading 2: add b << s
                x1, x2 = b1 << s, b2 << s
            t = (a1 | x2) ^ (a2 | x1)
            a1, a2 = (a2 | x2) ^ t, (a1 | x1) ^ t
            la = (a1 | a2).bit_length()
        a1, a2, b1, b2 = b1, b2, a1, a2
    return a1, a2


def _mask_trits(g) -> int:
    """The bitmask of the nonzero coefficients."""
    return g[0] | g[1]


# ---------------------------------------------------------------------------
# Prime fields: the unimodular testers over one ring of GF(p)[x], given as
# its (mul, sub, gcd, zero, size), where size(g) == 1 exactly when g is a
# unit.  GF(3) computes bit-sliced (size: the coefficient mask); p >= 5 on
# trimmed coefficient tuples mod p with gf's GF(p)[x] routines (size: len).


def _unimodular_one_row(gcd, size):
    def test(values):
        g = values[0]
        for f in values[1:]:
            g = gcd(g, f)
            if size(g) == 1:
                return True
        return size(g) == 1

    return test


def _unimodular_two_rows(n, mul, sub, gcd, zero, size):
    pairs = tuple(combinations(range(n), 2))

    def test(values):
        top, bottom = values[:n], values[n:]
        g = zero
        for i, j in pairs:
            g = gcd(g, sub(mul(top[i], bottom[j]), mul(top[j], bottom[i])))
            if size(g) == 1:
                return True
        return size(g) == 1

    return test


def _prime_ring(p):
    """(decode, mul, sub, gcd, zero, size) of GF(p)[x] for the kernels."""
    if p == 3:
        return _decode_trits, _mul_trits, _sub_trits, _gcd_trits, (0, 0), _mask_trits

    def mul(a, b):
        return _pmul(a, b, p)

    def sub(a, b):
        return _psub(a, b, p)

    def gcd(a, b):
        return _pgcd(a, b, p)

    return partial(index_to_digits, p), mul, sub, gcd, (), len


def _compile_unimodular(spec, k, n, max_index):
    if spec.q == 2:
        if k == 1:
            return Kernel("bits", None, _unimodular_bits_one_row(n))
        if k == 2:
            return Kernel("bits", None, _unimodular_bits_two_rows(n))
    if spec.e == 1 and k <= 2:
        decode, mul, sub, gcd, zero, size = _prime_ring(spec.p)
        if k == 1:
            return Kernel("prime", decode, _unimodular_one_row(gcd, size))
        return Kernel("prime", decode, _unimodular_two_rows(n, mul, sub, gcd, zero, size))
    moduli = None if max_index is None else _local_moduli(spec, k, max_index)
    if moduli is None:
        return _matrix_route(spec, k, n, "unimodular", None)
    return _full_rank_mod_all(spec, k, n, moduli)


# ---------------------------------------------------------------------------
# The local criterion: entries of degree <= D give maximal minors of degree
# <= kD, so a k x n matrix is unimodular exactly when it keeps rank k modulo
# every monic irreducible of degree <= max(kD, 1).  (Rank below k kills every
# minor; otherwise the minor gcd g is nonzero of degree <= kD, and it is a
# non-unit exactly when some irreducible of degree <= kD divides it.)

# Largest total table work, sum over the moduli of Q * (Q + q) for quotient
# fields of order Q, that the local criterion may spend; past it the
# unimodular predicate keeps the matrix route.
_LOCAL_TABLE_WORK = 1 << 13


def _local_moduli(spec, k, max_index):
    """The moduli of the local criterion, in index order, or None past the gate."""
    q = spec.q
    degree = max(len(index_to_digits(q, max_index)) - 1, 0)
    bound = max(k * degree, 1)
    work = 0
    for d in range(1, bound + 1):
        order = q**d
        work += count_irreducibles(q, d) * order * (order + q)
        if work > _LOCAL_TABLE_WORK:
            return None
    table = irreducibles_up_to(spec, bound)
    return [f for d in range(1, bound + 1) for f in table.irreducibles(d)]


# ---------------------------------------------------------------------------
# Full rank modulo one irreducible, via residue and field tables.


def _residue_decoder(field: QuotientField):
    """Index -> index of its residue mod the field modulus, by Horner's rule.

    ``step[r][d]`` is the residue index of x*r + d, so the base-q digits
    of an index, most significant first, walk the residues of its
    prefixes: Q*q table entries for indices of any size.  x*r is a row
    of the field's ``mul`` table; adding the constant d changes only the
    lowest base-q digit of x*r, through GF(q)'s digit-wise addition.
    Past ``_TABLE_ORDER_CAP`` the field reduces the digits directly.
    """
    spec = field.spec
    p, q = spec.p, spec.q
    if field.order > _TABLE_ORDER_CAP:
        return lambda v: field._reduce(index_to_digits(q, v))
    add = _digitwise_table(p, spec.e)
    step = []
    for shifted in field.mul[field.element(gen(spec)).index]:
        high, low = divmod(shifted, q)
        step.append(tuple(map((high * q).__add__, add[low * q : (low + 1) * q])))

    def decode(v):
        r = 0
        for d in reversed(index_to_digits(q, v)):
            r = step[r][d]
        return r

    return decode


def _full_rank_mod(spec, k, n, modulus: Poly) -> Kernel:
    """Does the matrix keep rank k modulo ``modulus``?"""
    field = QuotientField(modulus)
    decode = _residue_decoder(field)
    if k == 1:
        return Kernel("ranktable", decode, any)
    route = "ranktable" if field.order <= _TABLE_ORDER_CAP else "fallback"
    mul = field.mul

    if k == 2:
        pairs = tuple(combinations(range(n), 2))

        def test(values):
            top, bottom = values[:n], values[n:]
            for i, j in pairs:
                if mul[top[i]][bottom[j]] != mul[top[j]][bottom[i]]:
                    return True
            return False

        return Kernel(route, decode, test)

    sub, inv = field.sub, field.inv

    def test(values):
        return _rank([values[r * n : (r + 1) * n] for r in range(k)], mul, sub, inv) == k

    return Kernel(route, decode, test)


def _compile_coprime(spec, k, n, primes: IrreducibleSet):
    if len(primes) == 0:
        # coprime to nothing still requires a nonzero minor gcd
        return _matrix_route(spec, k, n, "coprime", primes)
    return _full_rank_mod_all(spec, k, n, list(primes))


def _full_rank_mod_all(spec, k, n, moduli) -> Kernel:
    """Does the matrix keep rank k modulo each modulus?  Tested in order."""
    parts = [_full_rank_mod(spec, k, n, f) for f in moduli]
    if len(parts) == 1:
        return parts[0]
    route = "ranktable" if all(part.route == "ranktable" for part in parts) else "fallback"
    decoders = [part.decode for part in parts]
    tests = list(enumerate(part.test for part in parts))

    def decode(v):
        return tuple(d(v) for d in decoders)

    def test(values):
        for j, sub in tests:
            if not sub([v[j] for v in values]):
                return False
        return True

    return Kernel(route, decode, test)


def _compile_divisible(spec, k, n, modulus: Poly):
    route, decode, full_rank = _full_rank_mod(spec, k, n, modulus)
    return Kernel(route, decode, lambda values: not full_rank(values))


# ---------------------------------------------------------------------------
# Fallback: build the matrix and ask the reference predicates.


def matrix_predicate(a: PolyMatrix, kind: str, payload) -> bool:
    """Reference evaluation of a predicate on a single matrix."""
    if kind == "unimodular":
        return is_unimodular(a)
    if kind == "coprime":
        return is_coprime_to(a, payload)
    if kind == "divisible":
        return divides(payload, minors_gcd(a))
    raise ValueError(f"unknown predicate kind {kind!r}")


def _matrix_route(spec, k, n, kind, payload):
    def test(polys):
        grid = [polys[r * n : (r + 1) * n] for r in range(k)]
        return matrix_predicate(PolyMatrix(spec, grid), kind, payload)

    return Kernel("fallback", partial(poly_from_index, spec), test)
