"""Index-level predicate kernels for censuses and sampling.

Exhaustive censuses and Monte Carlo runs iterate over tuples of entry
indices (row-major); routing every tuple through PolyMatrix would
dominate the runtime.  A compiled :class:`Kernel` answers the predicate
in two steps:

- ``decode(v)`` maps one entry index to the representation its route
  computes with, in O(log_q v) steps and with no table whose size
  depends on the largest index.  GF(2) needs no decoding (an index *is*
  the bitmask of its coefficients; ``decode`` is None); prime fields
  take the base-p digit tuple; residue routes run Horner's rule over
  the base-q digits through a Q x q step table ``r <- x*r + digit``
  (Q the order of the quotient field, at most 512); larger quotient
  fields and the matrix fallback build the residue or polynomial
  object.
- ``test(values) -> bool`` answers the predicate on the k*n decoded
  entries of one matrix, row-major.

Callers choose how to cache decoded values.  A census touches every
index, so it decodes ``range(N + 1)`` once and tests the Cartesian
product of the results; sampling decodes only the distinct indices it
draws.  Memory is therefore O(N) for a census and O(distinct draws) for
sampling, and the per-space set-up (step, multiplication and inverse
tables of the small quotient fields) depends on q and the payload only.

Every specialized route is cross-checked against the matrix-route
predicate in the test suite; anything not specialized falls back to
that route.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import Callable, NamedTuple

from .gf import FieldSpec
from .matrix import (
    IrreducibleSet,
    PolyMatrix,
    QuotientField,
    divides,
    is_coprime_to,
    is_unimodular,
    minors_gcd,
    rank_over_field,
)
from .poly import Poly, constant, gen, index_to_digits, poly_from_index

# Quotient fields up to this order get dense step, multiplication and
# inverse tables; larger ones fall back to object arithmetic.
_TABLE_ORDER_CAP = 512


class Kernel(NamedTuple):
    """A compiled predicate: ``test(tuple(map(decode, indices)))``.

    ``route`` names the kernel family ("bits", "prime", "ranktable" or
    "fallback"); ``decode`` is None when an index is its own
    representation.
    """

    route: str
    decode: Callable[[int], object] | None
    test: Callable[..., bool]


def compile_kernel(spec: FieldSpec, k: int, n: int, kind: str, payload) -> Kernel:
    """Split the predicate on k x n matrices into ``decode`` and ``test``.

    ``kind`` is one of "unimodular", "coprime" (payload: IrreducibleSet)
    or "divisible" (payload: a monic irreducible Poly).
    """
    if kind == "unimodular":
        return _compile_unimodular(spec, k, n)
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
    ``decode``, memoized per tester: compiling costs no time or memory
    that grows with ``max_index`` (the largest entry index that will be
    passed in), and the memo holds one entry per distinct index seen.
    """
    decode, test = compile_kernel(spec, k, n, kind, payload)[1:]
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
        top = indices[:n]
        bottom = indices[n:]
        g = 0
        for i, j in pairs:
            det = _mul_bits(top[i], bottom[j]) ^ _mul_bits(top[j], bottom[i])
            g = _gcd_bits(g, det)
            if g == 1:
                return True
        return g == 1

    return test


# ---------------------------------------------------------------------------
# Prime q: polynomials as trimmed coefficient tuples mod p.


def _mod_prime(a, b, p):
    # remainder of a by b, coefficient tuples, b nonzero
    r = list(a)
    db = len(b) - 1
    binv = pow(b[-1], p - 2, p)
    while len(r) - 1 >= db and r:
        if not r[-1]:
            r.pop()
            continue
        c = (r[-1] * binv) % p
        shift = len(r) - 1 - db
        for i, y in enumerate(b):
            if y:
                r[i + shift] = (r[i + shift] - c * y) % p
        r.pop()
    while r and not r[-1]:
        r.pop()
    return tuple(r)


def _gcd_prime(a, b, p):
    while b:
        a, b = b, _mod_prime(a, b, p)
    return a


def _mul_prime(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def _sub_prime(a, b, p):
    out = list(a) + [0] * max(len(b) - len(a), 0)
    for i, y in enumerate(b):
        out[i] = (out[i] - y) % p
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _unimodular_prime_one_row(p: int):
    def test(reps):
        g = reps[0]
        for f in reps[1:]:
            g = _gcd_prime(g, f, p)
            if len(g) == 1:
                return True
        return len(g) == 1

    return test


def _unimodular_prime_two_rows(p: int, n: int):
    pairs = tuple(combinations(range(n), 2))

    def test(reps):
        top = reps[:n]
        bottom = reps[n:]
        g = ()
        for i, j in pairs:
            det = _sub_prime(
                _mul_prime(top[i], bottom[j], p), _mul_prime(top[j], bottom[i], p), p
            )
            g = _gcd_prime(g, det, p)
            if len(g) == 1:
                return True
        return len(g) == 1

    return test


def _compile_unimodular(spec, k, n):
    if spec.q == 2:
        if k == 1:
            return Kernel("bits", None, _unimodular_bits_one_row(n))
        if k == 2:
            return Kernel("bits", None, _unimodular_bits_two_rows(n))
    if spec.e == 1:
        digits = partial(index_to_digits, spec.p)
        if k == 1:
            return Kernel("prime", digits, _unimodular_prime_one_row(spec.p))
        if k == 2:
            return Kernel("prime", digits, _unimodular_prime_two_rows(spec.p, n))
    return _matrix_route(spec, k, n, "unimodular", None)


# ---------------------------------------------------------------------------
# Full rank modulo one irreducible, via residue and field tables.


def _residue_decoder(field: QuotientField):
    """Index -> index of its residue mod the field modulus, by Horner's rule.

    ``step[r][d]`` is the residue index of x*r + d, so the base-q digits
    of an index, most significant first, walk the residues of its
    prefixes: Q*q table entries for indices of any size.
    """
    spec = field.spec
    q = spec.q
    x = field.element(gen(spec))
    consts = [field.element(constant(spec, d)) for d in range(q)]
    step = []
    for r in field.elements():
        shifted = x * r
        step.append(tuple((shifted + c).index for c in consts))

    def decode(v):
        r = 0
        for d in reversed(index_to_digits(q, v)):
            r = step[r][d]
        return r

    return decode


def _full_rank_mod(spec, k, n, modulus: Poly) -> Kernel:
    """Does the matrix keep rank k modulo ``modulus``?"""
    field = QuotientField(modulus)
    if field.order > _TABLE_ORDER_CAP:
        # large quotient field: residues as field elements, object arithmetic
        def decode(v):
            return field.element(poly_from_index(spec, v))

        if k == 1:
            return Kernel("ranktable", decode, any)

        def test(values):
            rows = [values[r * n : (r + 1) * n] for r in range(k)]
            return rank_over_field(rows) == k

        return Kernel("fallback", decode, test)

    decode = _residue_decoder(field)
    if k == 1:
        return Kernel("ranktable", decode, any)

    elems = list(field.elements())
    mul = [[(x * y).index for y in elems] for x in elems]
    if k == 2:
        pairs = tuple(combinations(range(n), 2))

        def test(values):
            top = values[:n]
            bottom = values[n:]
            for i, j in pairs:
                if mul[top[i]][bottom[j]] != mul[top[j]][bottom[i]]:
                    return True
            return False

        return Kernel("ranktable", decode, test)

    sub = [[(x - y).index for y in elems] for x in elems]
    inv = [0] + [(elems[i].inverse()).index for i in range(1, field.order)]

    def test(values):
        rows = [values[r * n : (r + 1) * n] for r in range(k)]
        rank = 0
        for col in range(n):
            pivot = None
            for r in range(rank, k):
                if rows[r][col]:
                    pivot = r
                    break
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            pinv = inv[rows[rank][col]]
            top_row = rows[rank]
            for r in range(rank + 1, k):
                if rows[r][col]:
                    factor = mul[rows[r][col]][pinv]
                    frow = mul[factor]
                    rows[r] = [sub[x][frow[y]] for x, y in zip(rows[r], top_row)]
            rank += 1
            if rank == k:
                return True
        return False

    return Kernel("ranktable", decode, test)


def _compile_coprime(spec, k, n, primes: IrreducibleSet):
    if len(primes) == 0:
        # coprime to nothing still requires a nonzero minor gcd
        return _matrix_route(spec, k, n, "coprime", primes)
    parts = [_full_rank_mod(spec, k, n, f) for f in primes]
    if len(parts) == 1:
        return parts[0]
    routes = {part.route for part in parts}
    route = "ranktable" if routes == {"ranktable"} else "fallback"
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

    def test(values):
        return not full_rank(values)

    return Kernel(route, decode, test)


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
