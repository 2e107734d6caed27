"""Independent reference computations for freezing expected test values.

Each helper recomputes a quantity along a route disjoint from the one
the package uses for it, so a shared bug would have to be duplicated on
both sides to slip through.
"""

from fractions import Fraction
from itertools import product

from fqx import Poly, PolyMatrix, monic_of_degree, poly_to_index, zero


def gcd_bitmask(a: int, b: int) -> int:
    """gcd in GF(2)[x] with polynomials as coefficient bitmasks.

    Pure shift/xor long division; shares no code with fqx.poly or the
    census kernels.
    """
    while b:
        while a.bit_length() >= b.bit_length() and a:
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def mul_bitmask(a: int, b: int) -> int:
    out = 0
    shift = 0
    while b:
        if b & 1:
            out ^= a << shift
        b >>= 1
        shift += 1
    return out


def sieve_reducible_indices(spec, max_degree: int) -> set:
    """Indices of all monic reducible polynomials of degree <= max_degree.

    Marks every product of two monic polynomials of positive degree; a
    monic polynomial is irreducible iff it never gets marked.  The
    library sieves too, but forms irreducible x monic products on numpy
    index tables; this oracle forms every monic x monic product through
    ``Poly.__mul__`` into a set, and counts by complement without the
    Moebius closed form.
    """
    marked = set()
    for da in range(1, max_degree):
        for db in range(da, max_degree - da + 1):
            for fa in monic_of_degree(spec, da):
                for fb in monic_of_degree(spec, db):
                    marked.add(poly_to_index(fa * fb))
    return marked


def sieve_irreducible_counts(spec, max_degree: int) -> dict:
    marked = sieve_reducible_indices(spec, max_degree)
    counts = {}
    for m in range(1, max_degree + 1):
        base = spec.q**m
        counts[m] = sum(1 for i in range(base, 2 * base) if i not in marked)
    return counts


def laplace_determinant(grid, spec) -> Poly:
    """Determinant by first-column Laplace expansion (naive, exact)."""
    size = len(grid)
    if size == 1:
        return grid[0][0]
    total = zero(spec)
    for i in range(size):
        if grid[i][0].is_zero:
            continue
        minor = [row[1:] for r, row in enumerate(grid) if r != i]
        term = grid[i][0] * laplace_determinant(minor, spec)
        total = total - term if i % 2 else total + term
    return total


def matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    assert a.n == b.k
    rows = []
    for i in range(a.k):
        row = []
        for j in range(b.n):
            acc = zero(a.spec)
            for t in range(a.n):
                acc = acc + a.entries[i][t] * b.entries[t][j]
            row.append(acc)
        rows.append(row)
    return PolyMatrix(a.spec, rows)


def series_pow_one_minus_inverse(m: int, exponent: int, order: int) -> list:
    """Coefficients of (1 - T**m) ** (-exponent) up to T**order."""
    base = [1 if l % m == 0 else 0 for l in range(order + 1)]
    out = [1] + [0] * order
    e = exponent
    acc = base
    while e:
        if e & 1:
            out = series_mul(out, acc, order)
        acc = series_mul(acc, acc, order)
        e >>= 1
    return out


def series_mul(a: list, b: list, order: int) -> list:
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if i + j > order:
                    break
                out[i + j] += x * y
    return out


def truncated_euler_series(degree_multiset, order: int) -> list:
    """Coefficients of prod over f of (1 - T**deg(f)) ** (-1), to T**order.

    ``degree_multiset`` maps degree -> how many irreducibles have it.
    """
    out = [1] + [0] * order
    for degree, count in sorted(degree_multiset.items()):
        out = series_mul(
            out, series_pow_one_minus_inverse(degree, count, order), order
        )
    return out


def zeta_truncated_by_direct_product(spec, j: int, table, t: int) -> Fraction:
    """The truncated Euler product evaluated member by member.

    Multiplies (1 - q**(-j*deg f)) over every enumerated irreducible f
    of degree <= t, one Fraction at a time; no counting shortcut, no
    big-integer batching.
    """
    out = Fraction(1)
    for m in range(1, t + 1):
        for f in table.irreducibles(m):
            out *= 1 - Fraction(1, spec.q ** (j * f.degree))
    return out


def exhaustive_tuples(high: int, width: int):
    return product(range(high), repeat=width)


# ---------------------------------------------------------------------------
# GF(q)[x] coefficient by coefficient: lists of FieldElements in ascending
# powers, trimmed, with every operation a FieldElement call.  Nothing here
# touches fqx.poly, so it checks Poly's index-tuple arithmetic from outside.


def coeff_trim(cs) -> list:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def coeff_add(spec, a, b) -> list:
    n = max(len(a), len(b))
    a = list(a) + [spec.zero()] * (n - len(a))
    b = list(b) + [spec.zero()] * (n - len(b))
    return coeff_trim(x + y for x, y in zip(a, b))


def coeff_neg(spec, a) -> list:
    return [-x for x in a]


def coeff_sub(spec, a, b) -> list:
    return coeff_add(spec, a, coeff_neg(spec, b))


def coeff_mul(spec, a, b) -> list:
    if not a or not b:
        return []
    out = [spec.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return coeff_trim(out)


def coeff_scale(spec, a, c) -> list:
    return coeff_trim(x * c for x in a)


def coeff_divmod(spec, a, b) -> tuple[list, list]:
    """Long division by nonzero b, one leading term at a time."""
    rem = list(a)
    quot = []
    inv = b[-1].inverse()
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        term = [spec.zero()] * shift + [rem[-1] * inv]
        quot = coeff_add(spec, quot, term)
        rem = coeff_sub(spec, rem, coeff_mul(spec, term, b))
    return quot, rem


def coeff_monic(spec, a) -> list:
    return coeff_scale(spec, a, a[-1].inverse()) if a else []


def coeff_xgcd(spec, a, b) -> tuple[list, list, list]:
    """(g, s, t): the extended Euclid recurrence, then g made monic."""
    r0, r1 = list(a), list(b)
    s0, s1, t0, t1 = [spec.one()], [], [], [spec.one()]
    while r1:
        quot, rem = coeff_divmod(spec, r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, coeff_sub(spec, s0, coeff_mul(spec, quot, s1))
        t0, t1 = t1, coeff_sub(spec, t0, coeff_mul(spec, quot, t1))
    if not r0:
        return r0, s0, t0
    inv = r0[-1].inverse()
    return tuple(coeff_scale(spec, f, inv) for f in (r0, s0, t0))


def coeff_pow(spec, a, exponent: int) -> list:
    out = [spec.one()]
    for _ in range(exponent):
        out = coeff_mul(spec, out, a)
    return out


def coeff_eval(spec, a, point):
    acc = spec.zero()
    for i, c in enumerate(a):
        acc = acc + c * point**i
    return acc
