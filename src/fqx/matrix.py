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

from functools import cached_property, lru_cache, partial
from itertools import chain, combinations

from .errors import FieldMismatchError, ParseError
from .gf import FieldElement, FieldSpec, _digits_value, _digitwise_table, _log_tables, make_field
from .poly import (
    Poly,
    _gcd,
    _load_ring,
    _Lookup,
    _poly,
    gcd,
    index_to_digits,
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
        n = len(rows[0]) if rows else 0
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
        return cls(spec, [[poly_from_index(spec, i) for i in row] for row in index_rows])

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

# Quotient fields up to this order keep list tables; larger ones compute each
# entry when read.  reduce_mod and rank_over_field share the last
# _FIELD_CACHE_SIZE fields, tables and all; kernels build their own.
_TABLE_ORDER_CAP = 512
_FIELD_CACHE_SIZE = 8


class QuotientField:
    """GF(q^d) realized as residues modulo a monic irreducible of degree d.

    Elements are indexed by the enumeration index of their residue, so
    ``range(order)`` is a bijection with the field.  The tables
    ``mul[a][b]``, ``sub[a][b]`` and ``inv[a]`` (``inv[0]`` unused) act on
    those indices.  Up to order ``_TABLE_ORDER_CAP`` they are lists built
    on first read, ``sub`` digit by digit (an index is the base-p string
    of e*d coefficient digits); above it each read computes its entry,
    ``inv`` by extended Euclid.  A pickle carries the modulus only.
    """

    def __init__(self, modulus: Poly):
        if not is_irreducible(modulus):
            raise ValueError("quotient modulus must be monic irreducible")
        self.spec = modulus.spec
        self.modulus = modulus
        self.degree = modulus.degree
        self.order = modulus.spec.q**modulus.degree

    @cached_property
    def mul(self):
        product, order = partial(self._via_ring, _load_ring(self.spec).mul), self.order
        if order > _TABLE_ORDER_CAP:
            return _computed(product)
        flat = _log_tables(order, product)[0]
        return [flat[i : i + order] for i in range(0, len(flat), order)]

    @cached_property
    def inv(self):
        if self.order <= _TABLE_ORDER_CAP:
            return [0] + [row.index(1) for row in self.mul[1:]]
        spec, f, q = self.spec, self.modulus, self.spec.q  # s with s*a + t*f = 1
        return _Lookup(lambda a: _digits_value(xgcd(poly_from_index(spec, a), f)[1].indices, q))

    @cached_property
    def sub(self):
        spec, order = self.spec, self.order
        if order > _TABLE_ORDER_CAP:
            return _computed(partial(self._via_ring, _load_ring(spec).sub))
        flat = _digitwise_table(spec.p, spec.e * self.degree, subtract=True)
        return [flat[i : i + order] for i in range(0, len(flat), order)]

    def _reduce(self, indices: tuple) -> int:
        """The index of the residue of a polynomial's coefficient indices."""
        spec = self.spec
        return _digits_value(_load_ring(spec).mod(indices, self.modulus.indices), spec.q)

    def _via_ring(self, op, a: int, b: int) -> int:
        """The residue of ``op`` (a ring operation) on the residues a and b."""
        q = self.spec.q
        return self._reduce(op(index_to_digits(q, a), index_to_digits(q, b)))

    def element(self, rep: Poly) -> "QuotientElement":
        if rep.spec is not self.spec and rep.spec != self.spec:
            raise FieldMismatchError("representative over a different field")
        return QuotientElement(self, self._reduce(rep.indices))

    def from_index(self, index: int) -> "QuotientElement":
        index = int(index)
        if index < 0 or index >= self.order:
            raise ValueError(f"index {index} out of range [0, {self.order})")
        return QuotientElement(self, index)

    def zero(self) -> "QuotientElement":
        return QuotientElement(self, 0)

    def one(self) -> "QuotientElement":
        return QuotientElement(self, 1)

    def elements(self):
        for i in range(self.order):
            yield QuotientElement(self, i)

    def __eq__(self, other):
        if not isinstance(other, QuotientField):
            return NotImplemented
        return self.modulus == other.modulus

    def __hash__(self):
        return hash((QuotientField, self.modulus))

    def __reduce__(self):
        return (QuotientField, (self.modulus,))

    def __repr__(self):
        return f"QuotientField(GF({self.spec.q}) mod {poly_to_pretty(self.modulus)})"


def _computed(entry) -> _Lookup:
    """Rows whose entry b in row a is ``entry(a, b)``, computed when read."""
    return _Lookup(lambda a: _Lookup(partial(entry, a)))


@lru_cache(maxsize=_FIELD_CACHE_SIZE)
def _quotient_field(spec: FieldSpec, modulus: tuple) -> QuotientField:
    """The shared field modulo coefficient indices; a reducible modulus always raises."""
    return QuotientField(_poly(spec, modulus))


class QuotientElement:
    """A residue in a QuotientField, by index; its arithmetic reads the field's tables."""

    __slots__ = ("field", "index")

    def __init__(self, field: QuotientField, index: int):
        self.field = field
        self.index = index

    @property
    def rep(self) -> Poly:
        """The residue polynomial, of degree below the modulus's."""
        return poly_from_index(self.field.spec, self.index)

    def _check(self, other):
        if not isinstance(other, QuotientElement):
            return False
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatchError("residues modulo different polynomials")
        return True

    def __bool__(self):
        return self.index != 0

    def __eq__(self, other):
        if not isinstance(other, QuotientElement):
            return NotImplemented
        return self.index == other.index and self.field == other.field

    def __hash__(self):
        return hash((self.field, self.index))

    def __repr__(self):
        return f"{poly_to_pretty(self.rep)} (mod {poly_to_pretty(self.field.modulus)})"

    def __add__(self, other):
        if not self._check(other):
            return NotImplemented
        sub = self.field.sub
        return QuotientElement(self.field, sub[self.index][sub[0][other.index]])

    def __sub__(self, other):
        if not self._check(other):
            return NotImplemented
        return QuotientElement(self.field, self.field.sub[self.index][other.index])

    def __neg__(self):
        return QuotientElement(self.field, self.field.sub[0][self.index])

    def __mul__(self, other):
        if not self._check(other):
            return NotImplemented
        return QuotientElement(self.field, self.field.mul[self.index][other.index])

    def inverse(self) -> "QuotientElement":
        if not self.index:
            raise ZeroDivisionError("cannot invert zero in the quotient field")
        return QuotientElement(self.field, self.field.inv[self.index])

    def __truediv__(self, other):
        if not self._check(other):
            return NotImplemented
        return self * other.inverse()


def reduce_mod(a: PolyMatrix, modulus: Poly) -> tuple[tuple[QuotientElement, ...], ...]:
    """Entrywise reduction into GF(q)[x]/(modulus); modulus monic irreducible."""
    if a.spec != modulus.spec:
        raise FieldMismatchError("matrix and modulus over different fields")
    field = _quotient_field(a.spec, modulus.indices)
    return tuple(tuple(map(field.element, row)) for row in a.entries)


def _rank(grid: list, mul, sub, inv) -> int:
    """Rank of a nonempty list of equal-length rows of indices, through a field's tables.

    Gaussian elimination that reorders the list and replaces rows, but
    never writes into one: the rows may be tuples or slices.
    """
    height = len(grid)
    rank = 0
    for col in range(len(grid[0])):
        for r in range(rank, height):
            if grid[r][col]:
                break
        else:
            continue
        grid[rank], grid[r] = grid[r], grid[rank]
        top = grid[rank]
        pivot_inv = inv[top[col]]
        for r in range(rank + 1, height):
            row = grid[r]
            if row[col]:
                scaled = mul[mul[row[col]][pivot_inv]]
                grid[r] = [sub[x][scaled[y]] for x, y in zip(row, top)]
        rank += 1
        if rank == height:
            break
    return rank


def _field_of(x):
    if isinstance(x, QuotientElement):
        return x.field
    if isinstance(x, FieldElement):
        return x.spec
    raise TypeError(f"matrix entries must be field elements, got {x!r}")


def rank_over_field(rows) -> int:
    """Rank of a matrix whose entries all lie in one finite field.

    Entries are QuotientElements of one field, or FieldElements of one
    GF(q).  The elimination runs on their indices through the quotient
    field's tables, or GF(q)'s own, the same routine as the rank-table
    kernels'.  Entries from different fields raise FieldMismatchError;
    entries that are not field elements, TypeError.
    """
    grid = [list(row) for row in rows]
    width = len(grid[0]) if grid else 0
    if any(len(row) != width for row in grid):
        raise ValueError("ragged rows")
    if not width:
        return 0
    field = _field_of(grid[0][0])
    for x in chain.from_iterable(grid):
        f = _field_of(x)
        if f is not field and f != field:
            raise FieldMismatchError("entries from different fields")
    grid = [[x.index for x in row] for row in grid]
    if isinstance(field, QuotientField):
        return _rank(grid, field.mul, field.sub, field.inv)
    ring, q = _load_ring(field), field.q  # entry (a, b) of its flat tables at a*q + b
    mul = _computed(lambda a, b: ring.mul_t[a * q + b])
    return _rank(grid, mul, _computed(lambda a, b: ring.sub_t[a * q + b]), ring.inv_t)


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
            block = ((len(s[i][j]), i, j) for i in range(t, k) for j in range(t, n) if s[i][j])
            pivot = min(block, default=None)
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
            rest = ((i, j) for i in range(t + 1, k) for j in range(t + 1, n))
            offender = next((i for i, j in rest if ring.mod(s[i][j], s[t][t])), None)
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
    return tuple(_from_index_grid(spec, grid) for grid in (u, s, v))


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
