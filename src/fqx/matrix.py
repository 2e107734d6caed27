"""Matrices over GF(q)[x]: minors, unimodularity, Smith form, completion.

A k x n matrix A with k <= n is unimodular when the gcd of its maximal
(k x k) minors is 1, equivalently when it can be extended by n - k rows
to a square matrix whose determinant is a nonzero constant.  This module
provides that test three independent ways (minor gcds, Smith invariant
factors, full rank modulo irreducibles), plus the Smith normal form with
its transform matrices and the explicit row completion extracted from
them.

Text format for matrices: rows joined by ';', entries within a row by
'|', each entry a polynomial in the coefficient-index form of
:mod:`fqx.poly`.  One wrinkle: a standalone zero polynomial renders as
the empty string, but inside a matrix it renders as "0" so that a 1 x 1
zero matrix is distinguishable from the (rejected) empty string.
"""

from __future__ import annotations

from itertools import combinations

from .errors import FieldMismatchError, ParseError
from .gf import FieldSpec, make_field
from .poly import (
    Poly,
    _gcd,
    _load_ring,
    _poly,
    gcd,
    is_irreducible,
    one,
    poly_from_index,
    poly_from_string,
    poly_to_index,
    poly_to_pretty,
    poly_to_string,
    xgcd,
    zero,
)


class PolyMatrix:
    """An immutable k x n matrix of polynomials over one field.

    k = 0 (a matrix with no rows) is permitted so that the completion of
    an already square unimodular matrix has a natural representation;
    n must be at least 1.
    """

    __slots__ = ("spec", "k", "n", "entries")

    def __init__(self, spec: FieldSpec, rows):
        rows = tuple(tuple(row) for row in rows)
        if rows:
            n = len(rows[0])
        else:
            n = 0
        for row in rows:
            if len(row) != n:
                raise ValueError("ragged rows in matrix")
            for entry in row:
                if not isinstance(entry, Poly):
                    raise TypeError(f"matrix entries must be polynomials, got {entry!r}")
                if entry.spec is not spec and entry.spec != spec:
                    raise FieldMismatchError(
                        f"entry over {entry.spec!r} in a matrix over {spec!r}"
                    )
        if rows and n == 0:
            raise ValueError("matrix rows must have at least one column")
        self.spec = spec
        self.k = len(rows)
        self.n = n
        self.entries = rows

    @classmethod
    def from_indices(cls, spec: FieldSpec, index_rows) -> "PolyMatrix":
        return cls(
            spec,
            [[poly_from_index(spec, i) for i in row] for row in index_rows],
        )

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "PolyMatrix":
        o, z = one(spec), zero(spec)
        return cls(spec, [[o if i == j else z for j in range(n)] for i in range(n)])

    def row(self, i: int) -> tuple[Poly, ...]:
        return self.entries[i]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.spec == other.spec and self.entries == other.entries

    def __hash__(self):
        return hash((self.spec.p, self.spec.e, self.entries))

    def __repr__(self):
        return f"PolyMatrix(GF({self.spec.q}), {self.k}x{self.n}, {render_matrix(self)!r})"

    def __reduce__(self):
        return (PolyMatrix, (self.spec, self.entries))


def _index_grid(a: PolyMatrix) -> list[list[tuple]]:
    """The entries' index tuples, as a mutable grid."""
    return [[f.indices for f in row] for row in a.entries]


def _from_index_grid(spec: FieldSpec, grid) -> PolyMatrix:
    return PolyMatrix(spec, [[_poly(spec, f) for f in row] for row in grid])


def stack(top: PolyMatrix, bottom: PolyMatrix) -> PolyMatrix:
    """Vertical concatenation; column counts must agree."""
    if top.spec != bottom.spec:
        raise FieldMismatchError("matrices over different fields")
    if top.k and bottom.k and top.n != bottom.n:
        raise ValueError(f"column mismatch: {top.n} vs {bottom.n}")
    return PolyMatrix(top.spec, top.entries + bottom.entries)


# ---------------------------------------------------------------------------
# Determinants and minors.


def determinant(a: PolyMatrix) -> Poly:
    """Determinant of a square matrix, computed exactly.

    Cofactor expansion up to 3 x 3, fraction-free (Bareiss) elimination
    with exact division above that: on index tuples, cofactors are the
    faster of the two up to k = 3 and Bareiss from k = 4.
    """
    if a.k != a.n:
        raise ValueError(f"determinant needs a square matrix, got {a.k}x{a.n}")
    if a.k == 0:
        return one(a.spec)
    return _poly(a.spec, _det(_load_ring(a.spec), _index_grid(a)))


def _det(ring, grid) -> tuple:
    if len(grid) <= 3:
        return _det_cofactor(ring, grid)
    return _det_bareiss(ring, grid)


def _det_cofactor(ring, grid) -> tuple:
    size = len(grid)
    if size == 1:
        return grid[0][0]
    if size == 2:
        return ring.sub(ring.mul(grid[0][0], grid[1][1]), ring.mul(grid[0][1], grid[1][0]))
    total = ()
    for j, top in enumerate(grid[0]):
        if not top:
            continue
        minor = [row[:j] + row[j + 1 :] for row in grid[1:]]
        term = ring.mul(top, _det_cofactor(ring, minor))
        total = ring.sub(total, term) if j % 2 else ring.add(total, term)
    return total


def _det_bareiss(ring, grid) -> tuple:
    """Fraction-free elimination on a mutable grid of index tuples."""
    size = len(grid)
    prev = (1,)
    negate = False
    for t in range(size - 1):
        if not grid[t][t]:
            for r in range(t + 1, size):
                if grid[r][t]:
                    grid[t], grid[r] = grid[r], grid[t]
                    negate = not negate
                    break
            else:
                return ()
        top = grid[t]
        pivot = top[t]
        for r in range(t + 1, size):
            row = grid[r]
            for c in range(t + 1, size):
                cross = ring.sub(ring.mul(row[c], pivot), ring.mul(row[t], top[c]))
                if t:
                    cross, rem = ring.divmod(cross, prev)
                    if rem:
                        raise AssertionError("inexact division inside fraction-free elimination")
                row[c] = cross
            row[t] = ()
        prev = pivot
    det = grid[size - 1][size - 1]
    return ring.sub((), det) if negate else det


def _minors(a: PolyMatrix):
    """Index tuples of the k x k minors, by column set in lexicographic order."""
    if a.k < 1 or a.k > a.n:
        raise ValueError(f"maximal minors need 1 <= k <= n, got {a.k}x{a.n}")
    ring = _load_ring(a.spec)
    grid = _index_grid(a)
    return (
        _det(ring, [[row[c] for c in cols] for row in grid])
        for cols in combinations(range(a.n), a.k)
    )


def maximal_minors(a: PolyMatrix) -> list[Poly]:
    """All k x k minors of a k x n matrix, by column set in lexicographic order."""
    return [_poly(a.spec, m) for m in _minors(a)]


def minors_gcd(a: PolyMatrix) -> Poly:
    """Monic gcd of all maximal minors (zero when the matrix is rank deficient)."""
    ring = _load_ring(a.spec)
    g = ()
    for m in _minors(a):
        g = _gcd(ring, g, m)
        if len(g) == 1:
            break
    return _poly(a.spec, g)


def is_unimodular(a: PolyMatrix) -> bool:
    """True iff the maximal minors are coprime (gcd exactly 1).

    Requires k <= n; a matrix with more rows than columns can never be
    extended to an invertible square one.
    """
    if a.k > a.n:
        raise ValueError("cannot extend a matrix with more rows than columns")
    if a.k < 1:
        raise ValueError("unimodularity needs at least one row")
    return minors_gcd(a).degree == 0


# ---------------------------------------------------------------------------
# Sets of irreducibles and coprimality predicates.


class IrreducibleSet:
    """A finite set of monic irreducibles, deduplicated and index-sorted.

    ``product`` is the product of the members (1 for the empty set) and
    ``degree`` its degree, which is the sum of the member degrees.
    """

    __slots__ = ("spec", "members", "product", "degree")

    def __init__(self, spec: FieldSpec, members=()):
        seen = {}
        for f in members:
            if not isinstance(f, Poly):
                raise TypeError(f"set members must be polynomials, got {f!r}")
            if f.spec != spec:
                raise FieldMismatchError("member over a different field")
            if not is_irreducible(f):
                raise ValueError(f"{poly_to_pretty(f)} is not monic irreducible")
            seen[poly_to_index(f)] = f
        self.spec = spec
        self.members = tuple(seen[i] for i in sorted(seen))
        prod = one(spec)
        for f in self.members:
            prod = prod * f
        self.product = prod
        self.degree = prod.degree

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __eq__(self, other):
        if not isinstance(other, IrreducibleSet):
            return NotImplemented
        return self.spec == other.spec and self.members == other.members

    def __hash__(self):
        return hash((self.spec.p, self.spec.e, self.members))

    def __repr__(self):
        inner = ";".join(poly_to_string(f) for f in self.members)
        return f"IrreducibleSet(GF({self.spec.q}), {inner!r})"

    def __reduce__(self):
        return (IrreducibleSet, (self.spec, self.members))


def is_coprime_to(a: PolyMatrix, primes: IrreducibleSet) -> bool:
    """True iff minors_gcd(a) is nonzero and shares no factor with any member.

    A rank-deficient matrix (minor gcd zero) is never coprime to
    anything, including the empty set.
    """
    if a.spec != primes.spec:
        raise FieldMismatchError("matrix and irreducible set over different fields")
    if a.k > a.n or a.k < 1:
        raise ValueError("coprimality test needs 1 <= k <= n")
    g = minors_gcd(a)
    if g.is_zero:
        return False
    return all(gcd(g, f).degree == 0 for f in primes)


# ---------------------------------------------------------------------------
# Quotient fields GF(q)[x]/(f) and ranks over them.


class QuotientField:
    """GF(q^d) realized as residues modulo a monic irreducible of degree d.

    Elements are indexed by the enumeration index of their residue, so
    ``range(order)`` is a bijection with the field.
    """

    __slots__ = ("spec", "modulus", "degree", "order")

    def __init__(self, modulus: Poly):
        if not is_irreducible(modulus):
            raise ValueError("quotient modulus must be monic irreducible")
        self.spec = modulus.spec
        self.modulus = modulus
        self.degree = modulus.degree
        self.order = modulus.spec.q**modulus.degree

    def element(self, rep: Poly) -> "QuotientElement":
        if rep.spec != self.spec:
            raise FieldMismatchError("representative over a different field")
        return QuotientElement(self, rep % self.modulus)

    def from_index(self, index: int) -> "QuotientElement":
        index = int(index)
        if index < 0 or index >= self.order:
            raise ValueError(f"index {index} out of range [0, {self.order})")
        return QuotientElement(self, poly_from_index(self.spec, index))

    def zero(self) -> "QuotientElement":
        return QuotientElement(self, zero(self.spec))

    def one(self) -> "QuotientElement":
        return QuotientElement(self, one(self.spec))

    def elements(self):
        for i in range(self.order):
            yield self.from_index(i)

    def __eq__(self, other):
        if not isinstance(other, QuotientField):
            return NotImplemented
        return self.modulus == other.modulus

    def __hash__(self):
        return hash((QuotientField, self.modulus))

    def __repr__(self):
        return f"QuotientField(GF({self.spec.q}) mod {poly_to_pretty(self.modulus)})"


class QuotientElement:
    """A residue in a QuotientField; supports field arithmetic."""

    __slots__ = ("field", "rep")

    def __init__(self, field: QuotientField, rep: Poly):
        self.field = field
        self.rep = rep

    @property
    def index(self) -> int:
        return poly_to_index(self.rep)

    def _check(self, other):
        if not isinstance(other, QuotientElement):
            return False
        if self.field != other.field:
            raise FieldMismatchError("residues modulo different polynomials")
        return True

    def __bool__(self):
        return not self.rep.is_zero

    def __eq__(self, other):
        if not isinstance(other, QuotientElement):
            return NotImplemented
        return self.field == other.field and self.rep == other.rep

    def __hash__(self):
        return hash((self.field, self.rep))

    def __repr__(self):
        return f"{poly_to_pretty(self.rep)} (mod {poly_to_pretty(self.field.modulus)})"

    def __add__(self, other):
        if not self._check(other):
            return NotImplemented
        return QuotientElement(self.field, self.rep + other.rep)

    def __sub__(self, other):
        if not self._check(other):
            return NotImplemented
        return QuotientElement(self.field, self.rep - other.rep)

    def __neg__(self):
        return QuotientElement(self.field, -self.rep)

    def __mul__(self, other):
        if not self._check(other):
            return NotImplemented
        return QuotientElement(self.field, (self.rep * other.rep) % self.field.modulus)

    def inverse(self) -> "QuotientElement":
        if self.rep.is_zero:
            raise ZeroDivisionError("cannot invert zero in the quotient field")
        g, s, _ = xgcd(self.rep, self.field.modulus)
        if g.degree != 0:
            raise AssertionError("representative not invertible; modulus reducible?")
        return QuotientElement(self.field, (s * g.lead.inverse()) % self.field.modulus)

    def __truediv__(self, other):
        if not self._check(other):
            return NotImplemented
        return self * other.inverse()


def reduce_mod(a: PolyMatrix, modulus: Poly) -> tuple[tuple[QuotientElement, ...], ...]:
    """Entrywise reduction into GF(q)[x]/(modulus); modulus monic irreducible."""
    if a.spec != modulus.spec:
        raise FieldMismatchError("matrix and modulus over different fields")
    field = QuotientField(modulus)
    return tuple(tuple(field.element(entry) for entry in row) for row in a.entries)


def rank_over_field(rows) -> int:
    """Rank of a matrix of field elements (anything with field arithmetic).

    Plain Gaussian elimination; works for FieldElement and
    QuotientElement alike.
    """
    grid = [list(row) for row in rows]
    if not grid:
        return 0
    width = len(grid[0])
    for row in grid:
        if len(row) != width:
            raise ValueError("ragged rows")
    rank = 0
    for col in range(width):
        pivot_row = None
        for r in range(rank, len(grid)):
            if grid[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        grid[rank], grid[pivot_row] = grid[pivot_row], grid[rank]
        pivot_inv = grid[rank][col].inverse()
        for r in range(rank + 1, len(grid)):
            if grid[r][col]:
                factor = grid[r][col] * pivot_inv
                grid[r] = [x - factor * y for x, y in zip(grid[r], grid[rank])]
        rank += 1
        if rank == len(grid):
            break
    return rank


def count_full_rank(order: int, k: int, n: int) -> int:
    """Number of full-rank k x n matrices over a field with ``order`` elements.

    The product of (order**n - order**j) for j = 0..k-1: each new row
    must avoid the span of the previous ones.
    """
    order = int(order)
    if order < 2:
        raise ValueError(f"field order must be at least 2, got {order}")
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    out = 1
    for j in range(k):
        out *= order**n - order**j
    return out


# ---------------------------------------------------------------------------
# Smith normal form and completion.


# The elimination works on grids of index tuples; ``c`` is an index tuple.


def _row_add(ring, mat, dst, src, c):
    # row dst += c * row src
    mat[dst] = [ring.add(x, ring.mul(c, y)) for x, y in zip(mat[dst], mat[src])]


def _col_add(ring, mat, dst, src, c):
    # col dst += c * col src
    for row in mat:
        row[dst] = ring.add(row[dst], ring.mul(c, row[src]))


def smith_normal_form(a: PolyMatrix) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """Return (U, D, V) with A = U * D * V, U and V having unit determinants.

    D is diagonal (rectangular), its diagonal entries are monic or zero,
    and each divides the next.  The pivot choice is pinned: among the
    nonzero entries of the active block, smallest degree wins, ties
    broken by row then column index.  With that rule the decomposition
    is deterministic.
    """
    if a.k < 1:
        raise ValueError("Smith form needs at least one row")
    spec = a.spec
    ring = _load_ring(spec)
    k, n = a.k, a.n
    s = _index_grid(a)
    u = _index_grid(PolyMatrix.identity(spec, k))
    v = _index_grid(PolyMatrix.identity(spec, n))

    for t in range(min(k, n)):
        while True:
            pivot = None
            for i in range(t, k):
                for j in range(t, n):
                    if not s[i][j]:
                        continue
                    key = (len(s[i][j]), i, j)
                    if pivot is None or key < pivot:
                        pivot = key
            if pivot is None:
                break
            _, pi, pj = pivot
            if pi != t:
                s[t], s[pi] = s[pi], s[t]
                for row in u:
                    row[t], row[pi] = row[pi], row[t]
            if pj != t:
                for row in s:
                    row[t], row[pj] = row[pj], row[t]
                v[t], v[pj] = v[pj], v[t]
            dirty = False
            for i in range(t + 1, k):
                if not s[i][t]:
                    continue
                quot = ring.divmod(s[i][t], s[t][t])[0]
                if quot:
                    _row_add(ring, s, i, t, ring.sub((), quot))
                    _col_add(ring, u, t, i, quot)
                if s[i][t]:
                    dirty = True
            for j in range(t + 1, n):
                if not s[t][j]:
                    continue
                quot = ring.divmod(s[t][j], s[t][t])[0]
                if quot:
                    _col_add(ring, s, j, t, ring.sub((), quot))
                    _row_add(ring, v, t, j, quot)
                if s[t][j]:
                    dirty = True
            if dirty:
                continue
            offender = None
            for i in range(t + 1, k):
                for j in range(t + 1, n):
                    if ring.mod(s[i][j], s[t][t]):
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # fold the offending row into row t, then start over; the
            # Euclidean passes will now shrink the pivot degree
            _row_add(ring, s, t, offender, (1,))
            _col_add(ring, u, offender, t, ring.sub((), (1,)))
        lead = s[t][t][-1] if s[t][t] else 1
        if lead != 1:
            inv = ring.inv(lead)
            s[t] = [ring.scale(entry, inv) for entry in s[t]]
            for row in u:
                row[t] = ring.scale(row[t], lead)
    return (
        _from_index_grid(spec, u),
        _from_index_grid(spec, s),
        _from_index_grid(spec, v),
    )


def smith_invariants(a: PolyMatrix) -> list[Poly]:
    """The diagonal of the Smith form: monic or zero, each dividing the next."""
    _, d, _ = smith_normal_form(a)
    return [d.entries[i][i] for i in range(min(a.k, a.n))]


def complete_to_invertible(a: PolyMatrix) -> PolyMatrix:
    """Rows extending a unimodular k x n matrix to an invertible n x n one.

    Returns an (n - k) x n matrix B such that stacking A on top of B
    gives a square matrix with nonzero constant determinant.  For k = n
    the completion is empty.  Raises ValueError when the input is not
    unimodular (or has more rows than columns).
    """
    if a.k > a.n:
        raise ValueError("cannot extend a matrix with more rows than columns")
    if not is_unimodular(a):
        raise ValueError("matrix is not unimodular")
    if a.k == a.n:
        return PolyMatrix(a.spec, ())
    _, d, v = smith_normal_form(a)
    for i in range(a.k):
        if d.entries[i][i] != one(a.spec):
            raise AssertionError("unimodular matrix with a nonunit invariant factor")
    return PolyMatrix(a.spec, v.entries[a.k :])


# ---------------------------------------------------------------------------
# Text and JSON formats.


def render_cell(f: Poly) -> str:
    """The canonical text form of one entry, with zero written as "0"."""
    return poly_to_string(f) or "0"


def render_matrix(a: PolyMatrix) -> str:
    return ";".join("|".join(render_cell(f) for f in row) for row in a.entries)


def parse_matrix(spec: FieldSpec, text: str) -> PolyMatrix:
    if text.strip() == "":
        raise ParseError("empty matrix", 0)
    rows = []
    pos = 0
    width = None
    for row_i, row_text in enumerate(text.split(";")):
        if row_text.strip() == "":
            raise ParseError(f"empty matrix row {row_i + 1}", pos)
        cells = row_text.split("|")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(
                f"row {row_i + 1} has {len(cells)} entries, expected {width}", pos
            )
        row = []
        cell_pos = pos
        for cell in cells:
            try:
                row.append(poly_from_string(spec, cell))
            except ParseError as exc:
                raise ParseError(
                    f"row {row_i + 1}: {exc.args[0]}", cell_pos
                ) from exc
            cell_pos += len(cell) + 1
        rows.append(row)
        pos += len(row_text) + 1
    return PolyMatrix(spec, rows)


def matrix_to_json(a: PolyMatrix) -> dict:
    return {
        "q": a.spec.q,
        "p": a.spec.p,
        "e": a.spec.e,
        "k": a.k,
        "n": a.n,
        "entries": [[poly_to_string(f) for f in row] for row in a.entries],
    }


def matrix_from_json(obj: dict) -> PolyMatrix:
    try:
        p, e = int(obj["p"]), int(obj["e"])
        q = int(obj["q"])
        k, n = int(obj["k"]), int(obj["n"])
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed matrix object: {exc}") from exc
    spec = make_field(p, e)
    if spec.q != q:
        raise ParseError(f"q = {q} does not equal p**e = {spec.q}")
    if len(entries) != k or any(len(row) != n for row in entries):
        raise ParseError("entry grid does not match the declared shape")
    rows = [[poly_from_string(spec, cell) for cell in row] for row in entries]
    return PolyMatrix(spec, rows)
