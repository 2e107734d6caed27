"""Matrices over GF(q)[x]: minors, Smith form, completion, text formats."""

import hashlib
import inspect
import itertools
import json
import pickle
import random

import pytest

from fqx import (
    FieldMismatchError,
    IrreducibleSet,
    ParseError,
    PolyMatrix,
    QuotientField,
    complete_to_invertible,
    count_full_rank,
    determinant,
    gen,
    is_coprime_to,
    is_unimodular,
    make_field,
    matrix_from_json,
    matrix_to_json,
    maximal_minors,
    minors_gcd,
    one,
    parse_matrix,
    poly_from_index,
    poly_from_indices,
    poly_to_string,
    rank_over_field,
    reduce_mod,
    render_matrix,
    smith_invariants,
    smith_normal_form,
    stack,
    zero,
)

from oracles import laplace_determinant, matmul

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)


def random_matrix(rng, spec, k, n, max_degree):
    bound = spec.q ** (max_degree + 1)
    return PolyMatrix.from_indices(
        spec, [[rng.randrange(bound) for _ in range(n)] for _ in range(k)]
    )


# ---------------------------------------------------------------------------
# construction, text, JSON


def test_construction_validates_shape_and_field():
    with pytest.raises(ValueError):
        PolyMatrix(F2, [[one(F2)], []])  # ragged
    with pytest.raises(ValueError):
        PolyMatrix(F2, [[]])  # zero-width row
    with pytest.raises(FieldMismatchError):
        PolyMatrix(F2, [[one(F3)]])
    empty = PolyMatrix(F2, ())
    assert empty.k == 0 and empty.n == 0


def test_identity_and_from_indices():
    eye = PolyMatrix.identity(F3, 3)
    assert eye.k == eye.n == 3
    for i in range(3):
        for j in range(3):
            expected = one(F3) if i == j else zero(F3)
            assert eye.entries[i][j] == expected
    a = PolyMatrix.from_indices(F2, [[2, 3], [3, 2]])
    assert a.entries[0][0] == gen(F2)
    assert a.entries[0][1] == gen(F2) + one(F2)


def test_text_roundtrip_including_zero_cells():
    a = PolyMatrix.from_indices(F2, [[0, 3], [1, 2]])
    text = render_matrix(a)
    assert text == "0|1,1;1|0,1"
    assert parse_matrix(F2, text) == a
    z = PolyMatrix.from_indices(F3, [[0]])
    assert render_matrix(z) == "0"
    assert parse_matrix(F3, "0") == z


def test_text_roundtrip_random():
    rng = random.Random(61)
    for spec in (F2, F3, F4):
        for _ in range(25):
            k = rng.randrange(1, 4)
            n = rng.randrange(k, 5)
            a = random_matrix(rng, spec, k, n, 3)
            assert parse_matrix(spec, render_matrix(a)) == a


def test_parse_matrix_error_messages():
    with pytest.raises(ParseError, match="empty matrix"):
        parse_matrix(F2, "")
    with pytest.raises(ParseError, match="row 2"):
        parse_matrix(F2, "1;")
    with pytest.raises(ParseError, match="row 2"):
        parse_matrix(F2, "1|1;1")  # ragged
    with pytest.raises(ParseError):
        parse_matrix(F2, "1|boom")


def test_json_roundtrip():
    a = PolyMatrix.from_indices(F4, [[5, 1, 0], [2, 7, 3]])
    obj = matrix_to_json(a)
    assert obj["p"] == 2 and obj["e"] == 2 and obj["q"] == 4
    assert matrix_from_json(json.loads(json.dumps(obj))) == a


def test_json_rejects_inconsistent_order():
    obj = matrix_to_json(PolyMatrix.from_indices(F2, [[1]]))
    obj["q"] = 3
    with pytest.raises(ValueError):
        matrix_from_json(obj)


def test_pickle_roundtrip():
    a = PolyMatrix.from_indices(F3, [[4, 1], [0, 5]])
    b = pickle.loads(pickle.dumps(a))
    assert b == a and b.spec is a.spec


# ---------------------------------------------------------------------------
# determinants and minors


def test_determinant_example():
    a = parse_matrix(F2, "0,1|1,1;1,1|0,1")  # [[x, x+1], [x+1, x]]
    assert determinant(a) == one(F2)


def test_determinant_matches_laplace_oracle():
    rng = random.Random(17)
    for spec in (F2, F3):
        for size in (1, 2, 3, 4, 5):
            for _ in range(6):
                a = random_matrix(rng, spec, size, size, 2)
                assert determinant(a) == laplace_determinant(a.entries, spec)


def test_determinant_uses_fraction_free_path_for_large_sizes():
    # size 6 exercises the Bareiss branch; cross-check against Laplace
    rng = random.Random(90)
    a = random_matrix(rng, F2, 6, 6, 1)
    assert determinant(a) == laplace_determinant(a.entries, F2)


def test_determinant_properties():
    rng = random.Random(23)
    for _ in range(10):
        a = random_matrix(rng, F3, 3, 3, 2)
        b = random_matrix(rng, F3, 3, 3, 2)
        assert determinant(matmul(a, b)) == determinant(a) * determinant(b)
        rows = list(a.entries)
        swapped = PolyMatrix(F3, [rows[1], rows[0], rows[2]])
        assert determinant(swapped) == -determinant(a)
        repeated = PolyMatrix(F3, [rows[0], rows[0], rows[2]])
        assert determinant(repeated).is_zero
    with pytest.raises(ValueError):
        determinant(random_matrix(rng, F3, 2, 3, 1))


def test_maximal_minors_example_and_order():
    a = parse_matrix(F2, "1|0,1")  # [1, x], k=1
    assert maximal_minors(a) == [one(F2), gen(F2)]
    b = parse_matrix(F2, "1|0|0;0|1|0")
    minors = maximal_minors(b)
    # column subsets in lexicographic order: {0,1}, {0,2}, {1,2}
    assert len(minors) == 3
    assert minors[0] == one(F2)
    assert minors[1].is_zero and minors[2].is_zero


def test_minors_gcd_is_invariant_under_column_permutation():
    rng = random.Random(42)
    for _ in range(15):
        a = random_matrix(rng, F3, 2, 4, 1)
        g = minors_gcd(a)
        cols = list(range(4))
        rng.shuffle(cols)
        shuffled = PolyMatrix(F3, [[row[c] for c in cols] for row in a.entries])
        assert minors_gcd(shuffled) == g


# ---------------------------------------------------------------------------
# unimodularity and coprimality


def test_unimodular_examples():
    assert is_unimodular(parse_matrix(F2, "0,1|1,1"))  # [x, x+1]
    assert not is_unimodular(parse_matrix(F2, "0,1|0,0,1"))  # [x, x^2]
    assert not is_unimodular(parse_matrix(F2, "0|0"))
    assert is_unimodular(parse_matrix(F3, "1,1|2;0,1|2"))  # det is the constant 2


def test_unimodular_rejects_more_rows_than_columns():
    a = parse_matrix(F2, "1;0,1")  # 2 x 1
    with pytest.raises(ValueError, match="cannot extend a matrix with more rows"):
        is_unimodular(a)


def test_unimodular_square_means_unit_determinant():
    rng = random.Random(5)
    for _ in range(40):
        a = random_matrix(rng, F3, 2, 2, 1)
        d = determinant(a)
        assert is_unimodular(a) == (d.degree == 0)


def test_coprime_example():
    x = gen(F2)
    a = PolyMatrix(F2, [[x + one(F2), (x + one(F2)) * (x + one(F2))]])
    p = IrreducibleSet(F2, [x])
    assert is_coprime_to(a, p)
    assert not is_coprime_to(a, IrreducibleSet(F2, [x + one(F2)]))


def test_coprime_requires_full_rank_even_for_empty_set():
    a = PolyMatrix.from_indices(F2, [[0, 0]])
    assert not is_coprime_to(a, IrreducibleSet(F2))
    b = PolyMatrix.from_indices(F2, [[1, 0]])
    assert is_coprime_to(b, IrreducibleSet(F2))


def test_irreducible_set_validation_and_normalization():
    x = gen(F2)
    s = IrreducibleSet(F2, [x + one(F2), x, x + one(F2)])
    assert [f for f in s] == [x, x + one(F2)]  # deduped, sorted by index
    assert s.degree == 2
    assert s.product == x * (x + one(F2))
    with pytest.raises(ValueError):
        IrreducibleSet(F2, [x * x])  # reducible
    with pytest.raises(ValueError):
        IrreducibleSet(F2, [one(F2)])
    empty = IrreducibleSet(F2)
    assert empty.degree == 0 and empty.product == one(F2)


# ---------------------------------------------------------------------------
# quotient fields and ranks


def test_quotient_field_by_degree_two_irreducible_matches_gf4():
    x = gen(F2)
    qf = QuotientField(x * x + x + one(F2))
    assert qf.order == 4
    # multiplication table must agree with GF(4) under the index bijection
    for a in range(4):
        for b in range(4):
            lhs = (qf.from_index(a) * qf.from_index(b)).index
            rhs = (F4.element(a) * F4.element(b)).index
            assert lhs == rhs


def test_quotient_elements_invert():
    x = gen(F3)
    qf = QuotientField(x * x + one(F3))  # irreducible over GF(3)
    for idx in range(1, qf.order):
        el = qf.from_index(idx)
        assert (el * el.inverse()) == qf.one()
    with pytest.raises(ZeroDivisionError):
        qf.zero().inverse()


def test_reduce_mod_wraps_high_powers():
    x = gen(F2)
    modulus = x * x + x + one(F2)
    a = PolyMatrix(F2, [[x * x]])
    (row,) = reduce_mod(a, modulus)
    assert row[0].rep == x + one(F2)  # x^2 = x + 1 mod x^2+x+1


@pytest.mark.parametrize("modulus", [
    (1 << 9) | (1 << 4) | 1,  # x^9 + x^4 + 1: order 512, list tables
    (1 << 10) | (1 << 3) | 1,  # x^10 + x^3 + 1: order 1024, entries computed
])
def test_reduced_matrix_pickles_after_arithmetic(modulus):
    f = poly_from_index(F2, modulus)
    rows = reduce_mod(PolyMatrix.from_indices(F2, [[2, 3], [1 << 11, 5]]), f)
    (a, b), (c, d) = rows
    derived = (a * b - c / d, -a)  # reads the field's mul, sub and inv
    blob = pickle.dumps((rows, derived))
    assert len(blob) < 2000  # the field travels as its modulus, not its tables
    rows_back, derived_back = pickle.loads(blob)
    assert rows_back == rows and derived_back == derived
    assert rows_back[1][0].rep == derived_back[0].field.element(gen(F2) ** 11).rep


def test_reducible_modulus_is_refused_on_every_call():
    # the Rabin verdict is cached; a cached "reducible" must still refuse
    x = gen(F2)
    reducible = x * x + one(F2)  # (x + 1)**2
    a = PolyMatrix(F2, [[x]])
    for _ in range(3):
        with pytest.raises(ValueError):
            QuotientField(reducible)
        with pytest.raises(ValueError):
            reduce_mod(a, reducible)
    for _ in range(3):
        (row,) = reduce_mod(a, x * x + x + one(F2))
        assert row[0].rep == x


def test_rank_over_field():
    x = gen(F2)
    modulus = x * x + x + one(F2)
    qf = QuotientField(modulus)
    rows = reduce_mod(PolyMatrix.from_indices(F2, [[2, 3], [3, 2]]), modulus)
    assert rank_over_field(rows) == 2
    singular = reduce_mod(PolyMatrix.from_indices(F2, [[2, 2], [2, 2]]), modulus)
    assert rank_over_field(singular) == 1
    assert rank_over_field(reduce_mod(PolyMatrix.from_indices(F2, [[0, 0]]), modulus)) == 0
    assert qf.order == 4


def test_rank_over_field_refuses_mixed_fields_and_non_elements():
    x = gen(F2)
    a = QuotientField(x * x + x + one(F2))
    b = QuotientField(x**3 + x + one(F2))
    for rows in (
        [[a.one(), b.one()]],
        [[a.one()], [b.one()]],
        [[a.one(), F4.one()]],  # GF(2)[x]/(x^2+x+1) is not the spec GF(4)
        [[F2.one(), F3.one()]],
    ):
        with pytest.raises(FieldMismatchError):
            rank_over_field(rows)
    for rows in ([[1, 0]], [[a.one(), 1]], [[F3.one()], [x]]):
        with pytest.raises(TypeError):
            rank_over_field(rows)


def test_count_full_rank_examples():
    assert count_full_rank(2, 1, 1) == 1
    assert count_full_rank(2, 1, 2) == 3
    assert count_full_rank(2, 2, 2) == 6
    assert count_full_rank(3, 1, 2) == 8


@pytest.mark.parametrize("order", [2, 3, 4])
def test_count_full_rank_against_brute_force(order):
    spec = {2: F2, 3: F3, 4: F4}[order]
    for k in (1, 2):
        for n in range(k, 3):
            hits = 0
            cells = k * n
            for combo in itertools.product(range(order), repeat=cells):
                grid = [
                    [spec.element(combo[i * n + j]) for j in range(n)]
                    for i in range(k)
                ]
                # FieldElements directly, and as residues modulo x
                rank = rank_over_field(grid)
                assert rank_over_field_constants(spec, grid) == rank
                if rank == k:
                    hits += 1
            assert hits == count_full_rank(order, k, n)


def rank_over_field_constants(spec, grid):
    # rank of a matrix of field constants, wrapped as residues mod x
    # (the quotient field is GF(q) itself)
    qf = QuotientField(gen(spec))
    rows = tuple(
        tuple(qf.from_index(cell.index) for cell in row) for row in grid
    )
    return rank_over_field(rows)


# ---------------------------------------------------------------------------
# Smith normal form


def test_smith_form_example():
    a = parse_matrix(F2, "0,1|0,0,1")  # [x, x^2]
    assert smith_invariants(a) == [gen(F2)]


def test_smith_form_reconstructs_input():
    rng = random.Random(77)
    for spec in (F2, F3, F4):
        for _ in range(20):
            k = rng.randrange(1, 4)
            n = rng.randrange(1, 4)
            a = random_matrix(rng, spec, k, n, 2)
            u, d, v = smith_normal_form(a)
            assert matmul(matmul(u, d), v) == a
            assert determinant(u).degree == 0  # nonzero constant
            assert determinant(v).degree == 0
            check_smith_shape(d)


def check_smith_shape(d):
    diag = [d.entries[i][i] for i in range(min(d.k, d.n))]
    for i in range(d.k):
        for j in range(d.n):
            if i != j:
                assert d.entries[i][j].is_zero
    seen_zero = False
    for i in range(len(diag)):
        if diag[i].is_zero:
            seen_zero = True
        else:
            assert not seen_zero  # zeros only at the tail
            assert diag[i].is_monic
        if i + 1 < len(diag):
            nxt = diag[i + 1]
            if not diag[i].is_zero and not nxt.is_zero:
                assert (nxt % diag[i]).is_zero


def test_first_invariant_is_entry_gcd_like_quantity():
    # product of the first j invariants equals the gcd of all j x j minors;
    # for j = k = min dimension that is minors_gcd
    rng = random.Random(88)
    for _ in range(25):
        a = random_matrix(rng, F2, 2, 3, 2)
        inv = smith_invariants(a)
        prod = inv[0] * inv[1]
        g = minors_gcd(a)
        if g.is_zero:
            assert prod.is_zero
        else:
            assert prod == g


def test_smith_form_is_deterministic():
    rng = random.Random(12)
    a = random_matrix(rng, F3, 3, 3, 2)
    first = smith_normal_form(a)
    second = smith_normal_form(a)
    assert first == second


def test_smith_form_of_zero_and_identity():
    z = PolyMatrix.from_indices(F2, [[0, 0], [0, 0]])
    assert smith_invariants(z) == [zero(F2), zero(F2)]
    eye = PolyMatrix.identity(F3, 3)
    assert smith_invariants(eye) == [one(F3)] * 3


# sha256 of the Smith forms, invariants and completions below: any change to
# the elimination must reproduce them bit for bit
SMITH_DIGEST = "d50042439865be322f0a04f2a4ffbb74bf0113d918457007c648e4cdfa4249d6"


def test_smith_outputs_match_the_pinned_digest():
    rng = random.Random(1604)
    digest = hashlib.sha256()
    for spec in (F2, F3, F4, make_field(5), make_field(3, 2)):
        for _ in range(80):
            n = rng.randrange(1, 6)
            k = rng.randrange(1, n + 1)
            a = random_matrix(rng, spec, k, n, rng.randrange(5))
            u, d, v = smith_normal_form(a)
            invariants = smith_invariants(a)
            assert invariants == [d.entries[i][i] for i in range(k)]
            try:
                completion = complete_to_invertible(a)
                assert completion.entries == v.entries[k:]
                completion = render_matrix(completion)
            except ValueError as exc:
                completion = f"ValueError: {exc}"
            smith = "/".join(render_matrix(m) for m in (u, d, v))
            inv = ",".join(poly_to_string(f) for f in invariants)
            digest.update(f"{spec.q}:{render_matrix(a)}>{smith}/{inv}/{completion}\n".encode())
    assert digest.hexdigest() == SMITH_DIGEST


# ---------------------------------------------------------------------------
# completion


def test_completion_example():
    a = parse_matrix(F2, "1|0,1")  # [1, x]
    b = complete_to_invertible(a)
    assert render_matrix(b) == "0|1"
    assert determinant(stack(a, b)).degree == 0


def test_completion_of_square_matrix_is_empty():
    a = parse_matrix(F2, "0,1|1,1;1,1|0,1")
    b = complete_to_invertible(a)
    assert b.k == 0


def test_completion_errors():
    with pytest.raises(ValueError, match="not unimodular"):
        complete_to_invertible(parse_matrix(F2, "0,1|0,0,1"))
    with pytest.raises(ValueError, match="more rows than columns"):
        complete_to_invertible(parse_matrix(F2, "1;0,1"))


@pytest.mark.parametrize(
    "text",
    [
        "0,1|0;0|1",  # square, determinant x
        "1|0,1|1;0|0|0",  # a zero row
        "1|0,1|1;0,1|0,0,1|0,1",  # second row x times the first
    ],
)
def test_completion_refuses_non_unimodular_inputs(text):
    with pytest.raises(ValueError, match="not unimodular"):
        complete_to_invertible(parse_matrix(F2, text))


def test_completion_reads_unimodularity_off_the_smith_diagonal():
    assert "AssertionError" not in inspect.getsource(complete_to_invertible)
    assert complete_to_invertible(PolyMatrix.identity(F3, 3)) == PolyMatrix(F3, ())


def test_completion_soundness_on_random_unimodular_inputs():
    rng = random.Random(314)
    found = 0
    while found < 25:
        k = rng.randrange(1, 3)
        n = rng.randrange(k + 1, 5)
        a = random_matrix(rng, F2, k, n, 2)
        if not is_unimodular(a):
            continue
        found += 1
        b = complete_to_invertible(a)
        assert b.k == n - k and b.n == n
        full = stack(a, b)
        assert determinant(full).degree == 0


def test_stack_validation():
    a = parse_matrix(F2, "1|0")
    with pytest.raises(ValueError):
        stack(a, parse_matrix(F2, "1|0|0"))
    with pytest.raises(FieldMismatchError):
        stack(a, parse_matrix(F3, "1|0"))
