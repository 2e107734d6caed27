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
  coefficient tuple for the field's ring mod p (``fqx.gf._PrimeRing``),
  and one pair of unimodular testers serves all three rings.  Residue
  routes map an index to the index of its residue in a
  :class:`fqx.matrix.QuotientField` of order Q, by Horner's rule over
  the base-q digits through a Q x q step table ``r <- x*r + digit`` up
  to Q = 512 and by reducing the digit tuple above it; the matrix
  fallback builds the polynomial object.
- ``test(values) -> bool`` answers the predicate on the k*n decoded
  entries of one matrix, row-major.

A census touches every index, so it decodes ``range(N + 1)`` once,
merges indices whose decoded values are equal (keeping a count of each),
and tests one matrix per multiset of n columns, weighted by its
orderings and counts: every predicate here is unchanged when the
columns are permuted.  At n = 1 each matrix is its own multiset, and the
census streams the indices.  Censuses and Monte Carlo test in pages
through :func:`choose_kernel`: a batch route (below) works on arrays,
and every other space wraps its scalar tester, which decodes the
distinct indices of one call.  Memory is therefore O(N) for a census
with n >= 2 and O(page) otherwise; the per-space set-up (step tables,
and the tables of the quotient fields that the kernel builds for
itself) depends on q, the payload and, for the local unimodular
criterion, the degree of the largest index, capped by
``_LOCAL_TABLE_WORK``.

Monte Carlo tests its draws in lane calls of whole Philox pages, as
many as fit ``fqx.experiment.CENSUS_PAGE_ROWS`` rows (four pages of
1024 draws), and a census a page of up to that many column multisets,
where :func:`compile_lanes` finds a batch route, one matrix per lane
of signed integer numpy arrays whose values stay nonnegative, so that
k x k minors must fit 63 bits.  The bits and trits lanes take the
narrowest width w in {8, 16, 32, 64} with k*D + 2 <= w, D the degree of
the largest index: a minor's k*D + 1 coefficient bits then leave the
sign bit clear, so the divsteps' ``-(x & 1)`` masks and arithmetic
shifts stay exact, and the throughput-bound divsteps move no unused
bytes.  The rank-table lanes are int64:

- bits: GF(2) unimodular, k = 1 for indices up to 2**63 - 1 and k = 2
  up to 2**32 - 1; minors by a shift-and-mask carry-less multiply, gcds
  by divsteps.
- trits: GF(3) unimodular on the (ones, twos) planes, k = 1 up to
  2**63 - 1 and k = 2 up to 3**32 - 1, with the same multiply and
  divsteps.
- ranktable: every quotient field of order <= 512, at any q (the
  coprime and divisible predicates, and the local criterion for every
  other unimodular space, prime fields included, within
  ``_LOCAL_TABLE_WORK``), up to 2**63 - 1; residues by Horner's rule
  through the step tables as arrays, full rank by a nonzero entry
  (k = 1), unequal products (k = 2) or a nonzero k x k minor, for
  k >= 3 up to ``_MINOR_PLAN_CAP`` table reads a matrix (3 x 13, 4 x 9).
  Over GF(p), p >= 5, with k <= 2 the scalar prime route builds no
  tables, so :func:`choose_kernel` takes these lanes only for at least
  the tables' work in matrices (``LaneKernel.setup``).

Other spaces (the matrix fallback: unimodular spaces past the local
criterion's gate, coprimality to no member and quotient fields above
order 512; k >= 3 past the minors' cap; or GF(2) and GF(3) minors past
a lane) take the wrapped scalar testers, which are also the batch
routes' oracle in the tests.

Every specialized route is cross-checked against the matrix-route
predicate in the test suite; anything not specialized falls back to
that route.
"""

from __future__ import annotations

import math
import operator
from functools import partial
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from .gf import FieldSpec, _digitwise_table, _ring_mod
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
    _gcd,
    _load_ring,
    count_irreducibles,
    divides,
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
# unit.  GF(2) computes on bitmasks (size: the bit length), GF(3)
# bit-sliced (size: the coefficient mask), and p >= 5 on trimmed
# coefficient tuples through the field's ring mod p (size: len).


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
    if p == 2:
        return None, _mul_bits, operator.xor, _gcd_bits, 0, int.bit_length
    if p == 3:
        return _decode_trits, _mul_trits, _sub_trits, _gcd_trits, (0, 0), _mask_trits
    ring = _ring_mod(p)
    return partial(index_to_digits, p), ring.mul, ring.sub, partial(_gcd, ring), (), len


def _compile_unimodular(spec, k, n, max_index):
    if spec.e == 1 and k <= 2:
        decode, mul, sub, gcd, zero, size = _prime_ring(spec.p)
        route = "bits" if spec.p == 2 else "prime"
        if k == 1:
            return Kernel(route, decode, _unimodular_one_row(gcd, size))
        return Kernel(route, decode, _unimodular_two_rows(n, mul, sub, gcd, zero, size))
    gate = None if max_index is None else _local_gate(spec, k, max_index)
    if gate is None:
        return _matrix_route(spec, k, n, "unimodular", None)
    return _full_rank_mod_all(spec, k, n, _local_moduli(spec, gate[0]))


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


def _local_gate(spec, k, max_index):
    """(bound, work) of the local criterion, or None past the gate.

    The moduli are the monic irreducibles of degree <= bound = max(kD, 1),
    D the degree of entry ``max_index``, and ``work`` is their table work,
    sum Q * (Q + q), counted without listing them.
    """
    q = spec.q
    degree = max(len(index_to_digits(q, max_index)) - 1, 0)
    bound = max(k * degree, 1)
    work = 0
    for d in range(1, bound + 1):
        order = q**d
        work += count_irreducibles(spec, d) * order * (order + q)
        if work > _LOCAL_TABLE_WORK:
            return None
    return bound, work


def _local_moduli(spec, bound):
    """The moduli of the local criterion up to degree ``bound``, in index order."""
    table = irreducibles_up_to(spec, bound)
    return [f for d in range(1, bound + 1) for f in table.irreducibles(d)]


# ---------------------------------------------------------------------------
# Full rank modulo one irreducible, via residue and field tables.


def _step_table(field: QuotientField) -> list[int]:
    """Horner's step, flat: entry r*q + d is the residue index of x*r + d.

    The base-q digits of an index, most significant first, walk the
    residues of its prefixes: Q*q table entries for indices of any size.
    x*r + d is the polynomial of index r*q + d (r's digits shifted up
    one place), so the table lists the residues of the indices below
    Q*q.  Index c*Q + i, for i < Q, has the residue i + c*w, w the
    residue of x**degree (the one reduction), summed digit by digit
    through GF(q)'s addition: a row of Q sums for each c.  No ``mul``
    table is built.
    """
    spec = field.spec
    q, degree = spec.q, field.degree
    ring = _load_ring(spec)
    tables = spec._tables  # GF(q)'s addition rows are lists up to TABLE_MAX_ORDER
    add = tables.add if tables.tabled else _digitwise_table(spec.p, q)
    w = ring.mod((0,) * degree + (1,), field.modulus.indices)
    step = []
    for c in range(q):
        digits = ring.scale(w, c)
        row = [0]
        for b in reversed(digits + (0,) * (degree - len(digits))):
            plus = add[b]
            row = [s * q + t for s in row for t in plus]
        step += row
    return step


def _residue_decoder(field: QuotientField):
    """Index -> index of its residue mod the field modulus, by Horner's rule.

    The walk goes through :func:`_step_table`; past ``_TABLE_ORDER_CAP``
    the field reduces the digits directly.
    """
    q = field.spec.q
    if field.order > _TABLE_ORDER_CAP:
        return lambda v: field._reduce(index_to_digits(q, v))
    step = _step_table(field)

    def decode(v):
        r = 0
        for d in reversed(index_to_digits(q, v)):
            r = step[r * q + d]
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


# ---------------------------------------------------------------------------
# Page-batched testers for Monte Carlo and censuses: one matrix per lane
# of signed integer numpy arrays whose values stay nonnegative: int64 for
# the rank tables, :func:`_lane_dtype`'s width for GF(2) and GF(3).  A
# GF(2) polynomial is its bitmask; a GF(3) one is a (ones, twos) pair of
# planes, stacked on a first axis of length 2 (GF(2) values carry a first
# axis of length 1; residues one axis entry per modulus).  Gcds run
# Bernstein-Yang divsteps (TCHES 2019) on f with f(0) = 1: every step is
# the same few array operations in every lane, with no data-dependent loop.

_LANE_BITS = 63


def _lane_dtype(degree):
    """The narrowest signed dtype of width w in {8, 16, 32, 64} with degree + 2 <= w.

    A bitmask of a polynomial of degree at most ``degree`` then leaves
    the sign bit clear, so ``>>`` shifts in zeros, and the divsteps'
    |delta| <= 2 * degree + 3 fits too.
    """
    return next(np.dtype(f"i{size}") for size in (1, 2, 4, 8) if degree + 2 <= 8 * size)


# Largest number of table reads per matrix and modulus, the sum over
# 1 <= m < k of (m + 1) * C(n, m + 1), for which the rank-table lanes expand
# k x k minors (k >= 3).  A page holds (rows, C(n, m + 1)) arrays of the
# minors on rows 0..m, which grow much faster than the scalar elimination's
# O(k*k*n) a matrix: in pages of 1024 rows, GF(2) 4x10 coprime to x (1290
# reads) takes 19 us a row against 60 us scalar, 6x12 (12276) 206 against 77.
_MINOR_PLAN_CAP = 1 << 10


class LaneKernel(NamedTuple):
    """A page-batched predicate: ``test(lanes(draws))``.

    ``lanes`` maps an int64 array of entry indices in [0, max_index], of
    any shape, to the values its route computes with, on a new first
    axis: the bitmask (GF(2)), the (ones, twos) planes (GF(3)) or the
    residue modulo each modulus (rank tables).  The bitmasks and planes
    come in the narrowest signed dtype of 8, 16, 32 or 64 bits that is at
    least k*D + 2 bits wide, D the degree of entry ``max_index``
    (:func:`_lane_dtype`); the residues in int64.  ``test`` takes those
    values for a (count, k*n) page and returns count verdicts.  Indices
    whose values are equal get equal verdicts, so a census can merge
    them.  ``setup`` is the table work of the first call, sum Q*(Q + q)
    over quotient fields of order Q, where the space's scalar tester
    builds no tables (the prime route): :func:`choose_kernel` takes the
    lanes for at least that many matrices.  ``scalar`` marks a scalar
    tester wrapped by :func:`choose_kernel`, whose ``test`` reads the
    decoded values of the last ``lanes`` call only.  The indices are not
    range-checked.
    """

    lanes: Callable
    test: Callable
    setup: int = 0
    scalar: bool = False


def compile_lanes(spec: FieldSpec, k: int, n: int, kind: str, payload, max_index: int):
    """The :class:`LaneKernel` that tests pages of the space, or None.

    GF(2) and GF(3) unimodular spaces with k <= 2 take the bitmask and
    trit lanes; every other space takes the rank-table lanes of its
    moduli: the coprime members, the divisible modulus, or the local
    criterion's (:func:`_local_gate`, listed on the first call of
    ``lanes``), whatever q, and for k >= 3 up to ``_MINOR_PLAN_CAP``.
    """
    if max_index >= 1 << _LANE_BITS:
        return None
    if kind == "unimodular" and spec.q in (2, 3) and k <= 2:
        degree = max(len(index_to_digits(spec.q, max_index)) - 1, 0)
        if k * degree >= _LANE_BITS:
            return None
        ring = _BITS if spec.q == 2 else _TRITS
        return LaneKernel(partial(ring.planes, degree=degree, dtype=_lane_dtype(k * degree)),
                          partial(_batch_unimodular, ring, k, n, degree))
    if k >= 3 and sum(math.comb(n, m + 1) * (m + 1) for m in range(1, k)) > _MINOR_PLAN_CAP:
        return None
    if kind == "unimodular":
        gate = _local_gate(spec, k, max_index)
        if gate is None:
            return None
        degree, work = gate  # every degree up to the bound has an irreducible
        moduli = partial(_local_moduli, spec, degree)
    elif kind in ("coprime", "divisible"):
        members = list(payload) if kind == "coprime" else [payload]
        if not members:
            return None
        degree = max(f.degree for f in members)
        moduli = members.copy
    else:
        raise ValueError(f"unknown predicate kind {kind!r}")
    if spec.q**degree > _TABLE_ORDER_CAP:
        return None
    kernel = _batch_full_rank(spec, k, n, moduli, max_index, kind == "divisible")
    if kind == "unimodular" and spec.e == 1 and k <= 2:  # the scalar prime route's spaces
        kernel = kernel._replace(setup=work)
    return kernel


def choose_kernel(spec: FieldSpec, k: int, n: int, kind: str, payload, max_index: int,
                  matrices: int) -> LaneKernel:
    """The :class:`LaneKernel` that tests ``matrices`` matrices of the space.

    :func:`compile_lanes`'s kernel where it serves the space and
    ``matrices`` reaches its ``setup``; otherwise :func:`compile_kernel`'s
    scalar tester, wrapped by :func:`_scalar_lanes`, which serves every
    space with indices below 2**63.
    """
    kernel = compile_lanes(spec, k, n, kind, payload, max_index)
    if kernel is not None and matrices >= kernel.setup:
        return kernel
    return _scalar_lanes(compile_kernel(spec, k, n, kind, payload, max_index))


def _scalar_lanes(kernel: Kernel) -> LaneKernel:
    """A scalar :class:`Kernel` as a LaneKernel whose lanes number decoded values.

    ``lanes`` decodes the distinct indices of its draws once and gives
    equal decoded values one number, so a census still merges the
    residues that quotient fields past the rank tables give many
    indices.  It keeps the decoded values of this call only, by number,
    and ``test`` maps the scalar tester over a page's rows of them.
    """
    decode, test = kernel.decode, kernel.test
    held = None

    def lanes(draws):
        nonlocal held
        held = None  # the last call's values go before this call's are decoded
        distinct, inverse = np.unique(draws, return_inverse=True)
        values = distinct.tolist()
        if decode is not None:
            values = map(decode, values)
        numbers = {}
        number = np.array([numbers.setdefault(v, len(numbers)) for v in values], dtype=np.int64)
        held = np.fromiter(numbers, dtype=object, count=len(numbers))
        return number[inverse].reshape((1, *draws.shape))

    def test_rows(values):
        rows = held[values[0]].tolist()
        return np.fromiter(map(test, rows), dtype=bool, count=len(rows))

    return LaneKernel(lanes, test_rows, scalar=True)


class _LaneRing(NamedTuple):
    """GF(2)[x] or GF(3)[x] on lanes: planes of shape (P, ...)."""

    planes: Callable  # draws -> planes of each entry, given the entry degree and lane dtype
    mul: Callable  # (a, b, degree of b) -> a * b
    sub: Callable  # (a, b) -> a - b
    divsteps: Callable  # (f, g, steps) -> gcd(f, g) up to a unit, f(0) != 0


def _mul_bits_lanes(a, b, degree):
    out = np.zeros_like(a)
    for s in range(degree + 1):
        out ^= (a << s) & -((b >> s) & 1)
    return out


def _divsteps_bits_lanes(f, g, steps):
    """Run ``steps`` divsteps on (f, g), f odd; f ends as gcd(f, g)."""
    (f,), (g,) = f.copy(), g.copy()
    delta = np.ones_like(f)
    sign = 8 * f.itemsize - 1
    for _ in range(steps):
        odd = -(g & 1)
        swap = odd & (-delta >> sign)
        t = (f ^ g) & swap
        f ^= t
        g ^= t
        delta ^= swap
        delta -= swap - 1
        g ^= f & odd
        g >>= 1
    _check_divsteps(g)
    return f[None]


def _add_trits_lanes(a1, a2, b1, b2):
    t = (a1 | b2) ^ (a2 | b1)
    return (a2 | b2) ^ t, (a1 | b1) ^ t


def _scale_trits_lanes(a1, a2, by1, by2):
    """a * c for the constant c whose masks are ``by1`` (c = 1), ``by2`` (c = 2)."""
    return (a1 & by1) | (a2 & by2), (a2 & by1) | (a1 & by2)


_CHUNK_ONES = np.array([ones for ones, _ in _CHUNK_PLANES], dtype=np.int64)
_CHUNK_TWOS = np.array([twos for _, twos in _CHUNK_PLANES], dtype=np.int64)


def _trit_planes(draws, degree, dtype):
    """The (ones, twos) planes of every index in ``draws``, five trits per step."""
    rest = draws
    ones = np.zeros(draws.shape, dtype)
    twos = np.zeros(draws.shape, dtype)
    ones_of, twos_of = _CHUNK_ONES.astype(dtype), _CHUNK_TWOS.astype(dtype)
    for shift in range(0, degree + 1, _TRIT_CHUNK):
        rest, chunk = np.divmod(rest, _CHUNK_BASE)
        ones |= ones_of[chunk] << shift
        twos |= twos_of[chunk] << shift
    return np.stack((ones, twos))


def _mul_trits_lanes(a, b, degree):
    (a1, a2), (b1, b2) = a, b
    c1 = np.zeros_like(a1)
    c2 = np.zeros_like(a1)
    for s in range(degree + 1):
        x1, x2 = _scale_trits_lanes(a1 << s, a2 << s, -((b1 >> s) & 1), -((b2 >> s) & 1))
        c1, c2 = _add_trits_lanes(c1, c2, x1, x2)
    return np.stack((c1, c2))


def _sub_trits_lanes(a, b):
    return np.stack(_add_trits_lanes(a[0], a[1], b[1], b[0]))


def _divsteps_trits_lanes(f, g, steps):
    """Run ``steps`` divsteps on (f, g), f(0) != 0; f ends as a gcd with f(0) = 1."""
    (f1, f2), (g1, g2) = f.copy(), g.copy()
    t = (f1 ^ f2) & -(f2 & 1)  # normalise f(0) to 1
    f1 ^= t
    f2 ^= t
    delta = np.ones_like(f1)
    sign = 8 * f1.itemsize - 1
    for _ in range(steps):
        by1, by2 = -(g1 & 1), -(g2 & 1)  # g(0) = 1, g(0) = 2
        swap = (by1 | by2) & (-delta >> sign)
        t = (g1 ^ g2) & swap & by2  # a swapped g becomes f: make g(0) = 1
        g1 ^= t
        g2 ^= t
        t = (f1 ^ g1) & swap
        f1 ^= t
        g1 ^= t
        t = (f2 ^ g2) & swap
        f2 ^= t
        g2 ^= t
        by1 |= swap  # the new g is the old f, with g(0) = 1
        by2 &= ~swap
        delta ^= swap
        delta -= swap - 1
        x1, x2 = _scale_trits_lanes(f1, f2, by1, by2)
        g1, g2 = _add_trits_lanes(g1, g2, x2, x1)  # g - g(0) * f
        g1 >>= 1
        g2 >>= 1
    _check_divsteps(g1 | g2)
    return np.stack((f1, f2))


def _check_divsteps(g):
    if g.any():
        raise RuntimeError("divsteps left a nonzero remainder: the step bound is too small")


def _bit_planes(draws, degree, dtype):
    """The bitmask of every index in ``draws``: the index itself, in ``dtype``."""
    return draws.astype(dtype, copy=False)[None]


_BITS = _LaneRing(_bit_planes, _mul_bits_lanes, np.bitwise_xor, _divsteps_bits_lanes)
_TRITS = _LaneRing(_trit_planes, _mul_trits_lanes, _sub_trits_lanes, _divsteps_trits_lanes)


def _pair_columns(n):
    """Column indices (i, j) of the pairs i < j, as two arrays."""
    return tuple(map(np.array, zip(*combinations(range(n), 2))))


def _batch_unimodular(ring, k, n, degree, values):
    columns = np.ascontiguousarray(np.moveaxis(values, -1, 1))  # (planes, k*n, count)
    if k == 2:
        i, j = _pair_columns(n)
        top, bottom = columns[:, :n], columns[:, n:]
        columns = ring.sub(ring.mul(top[:, i], bottom[:, j], degree),
                           ring.mul(top[:, j], bottom[:, i], degree))
    return _unit_gcd_lanes(ring, columns, 2 * k * degree + 2)


def _unit_gcd_lanes(ring, columns, steps):
    """Is the gcd of each lane's m entries, ``columns`` (planes, m, count), a unit?

    The fold starts at the first entry of a lane with a nonzero constant
    term, so that f(0) != 0 throughout; a lane without one has gcd
    divisible by x.  Each fold runs ``steps`` divsteps, on the lanes
    whose gcd is not yet a unit.  Every step reads whole columns: numpy's
    reductions and gathers along a short last axis pay a fixed cost per
    row (see :func:`_any_in_row`).
    """
    m = columns.shape[1]
    odd = np.bitwise_or.reduce(columns & 1, axis=0) != 0
    first = np.full(columns.shape[2], m)  # m: no entry with f(0) != 0
    f = columns[:, m - 1]
    for j in reversed(range(m)):
        first = np.where(odd[j], j, first)
        f = np.where(odd[j], columns[:, j], f)
    held = first < m
    for j in range(m - 1):  # entry j of the others is column j, or j + 1 past the first
        live = np.flatnonzero(held & (np.bitwise_or.reduce(f, axis=0) != 1))
        if not len(live):
            break
        rest = np.where(first[live] <= j, columns[:, j + 1, live], columns[:, j, live])
        f[:, live] = ring.divsteps(f[:, live], rest, steps)
    return held & (np.bitwise_or.reduce(f, axis=0) == 1)


def _batch_full_rank(spec, k, n, moduli, max_index, negate):
    """Lanes of rank k modulo every modulus (its negation if ``negate``).

    The lanes are the residues modulo each modulus, by Horner's rule:
    each field's step table is composed into a (Q, q**c) array that reads
    c base-q digits at a time, with q**c <= 256 where q <= 256 and c no
    more than the digits of ``max_index``.  Full rank is two unequal
    products (k = 2) or else a nonzero k x k minor (:func:`_top_minors_lanes`,
    the entries themselves for k = 1), on the field's flat ``mul`` table
    (k >= 2) and ``sub`` table (k >= 3).  ``moduli()`` lists the moduli:
    it, the fields, their arrays and the minors' plan are built on the
    first call of ``lanes``, once, so a kernel its caller leaves unused
    lists no moduli.
    """
    q = spec.q
    places = len(index_to_digits(q, max_index))
    width = 1
    while width < places and q ** (width + 1) <= 256:
        width += 1
    base = q**width
    chunks = -(-places // width)
    tables = []
    plan = []

    def build():
        if k != 2:
            plan.extend(_laplace_plan(k, n))
        for field in map(QuotientField, moduli()):
            step = walk = np.array(_step_table(field)).reshape(field.order, q)
            for _ in range(width - 1):  # walk[r, high*q + low] = step[walk[r, high], low]
                walk = step[walk].reshape(field.order, -1)
            mul = np.array(field.mul).ravel() if k >= 2 else None
            sub = np.array(field.sub).ravel() if k >= 3 else None
            tables.append((walk.ravel(), field.order, mul, sub))

    def lanes(draws):
        if not tables:
            build()
        rest = draws
        digits = []
        for _ in range(chunks - 1):  # what is left is the top chunk, below base
            rest, low = np.divmod(rest, base)
            digits.append(low)
        residues = []
        for walk, _, _, _ in tables:
            r = walk[rest]  # row 0 of the walk: the residue of the top chunk
            for d in reversed(digits):
                r = walk[r * base + d]
            residues.append(r)
        return np.stack(residues)

    def test(residues):  # residues from ``lanes``, which builds the tables
        held = np.ones(residues.shape[1], dtype=bool)
        if k == 2:
            i, j = _pair_columns(n)
        for r, (_, order, mul, sub) in zip(residues, tables):
            if k == 2:
                top, bottom = r[:, :n] * order, r[:, n:]
                held &= _any_in_row(mul[top[:, i] + bottom[:, j]] != mul[top[:, j] + bottom[:, i]])
            else:
                held &= _any_in_row(_top_minors_lanes(r, n, plan, order, mul, sub))
        return ~held if negate else held

    return LaneKernel(lanes, test)


def _any_in_row(x):
    """``x.any(axis=1)`` for a (count, m) array, read down columns instead.

    numpy's reduction along a short last axis pays a fixed cost per row,
    about ten times the whole reduction down a contiguous first axis.
    """
    return np.ascontiguousarray(x.T).any(axis=0)


def _laplace_plan(k, n):
    """For rows 1..k-1, the Laplace expansion of the minors on rows 0..m.

    Entry m - 1 lists, for each position t, two arrays over the
    (m + 1)-subsets of columns in ``combinations`` order: the column at
    position t, and the number of the m-subset without it.  Each row of
    a page reads the tables once per entry of the first arrays, sum over
    m of (m + 1) * C(n, m + 1) times, which ``_MINOR_PLAN_CAP`` bounds.
    """
    plan = []
    numbers = {(j,): j for j in range(n)}
    for m in range(1, k):
        subsets = list(combinations(range(n), m + 1))
        plan.append([(np.array([s[t] for s in subsets]),
                      np.array([numbers[s[:t] + s[t + 1:]] for s in subsets]))
                     for t in range(m + 1)])
        numbers = {s: i for i, s in enumerate(subsets)}
    return plan


def _top_minors_lanes(r, n, plan, order, mul, sub):
    """The k x k minors of each row of ``r`` (count, k*n), up to one sign.

    From the 1 x 1 minors of row 0 up, the minor on columns c_0 < ... < c_m
    of rows 0..m is the alternating sum over t of a[m, c_t] times the minor
    on the other columns of rows 0..m-1.  ``sub[t]``, row 0 of the flat
    table, is -t.
    """
    minors = r[:, :n]
    for m, terms in enumerate(plan, 1):
        row = r[:, m * n : (m + 1) * n]
        for t, (column, rest) in enumerate(terms):
            term = mul[row[:, column] * order + minors[:, rest]]
            if t == 0:
                total = term
            else:  # odd t subtracts the term, even t adds it
                total = sub[total * order + (term if t % 2 else sub[term])]
        minors = total
    return minors
