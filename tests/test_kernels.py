"""Compiled kernels at large entry indices: decode on demand, no N-sized tables."""

import random
import tracemalloc
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fqx import (
    IrreducibleSet,
    PolyMatrix,
    Predicate,
    QuotientField,
    SpaceSpec,
    digits_to_index,
    exhaustive_census,
    index_to_digits,
    irreducibles_up_to,
    make_field,
    monte_carlo,
    poly_from_index,
    poly_to_index,
    predicate_holds,
    rank_over_field,
    reduce_mod,
)
from fqx.kernels import (
    _decode_trits,
    _gcd_trits,
    _mul_trits,
    _sub_trits,
    compile_index_predicate,
    compile_kernel,
    matrix_predicate,
)
from fqx.matrix import _FIELD_CACHE_SIZE, _quotient_field

from oracles import coeff_divmod, coeff_mul, coeff_sub, coeff_trim, coeff_xgcd

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
# the first prime above TABLE_MAX_ORDER: reference arithmetic is untabled
F257 = make_field(257)

BIG_N = 2**40


def _irreducible(spec, degree, i=0):
    return irreducibles_up_to(spec, degree).irreducibles(degree)[i]


# (route, field, k, n, predicate): every kernel route at least once, the
# rank-table route with one and with two moduli and by elimination (k = 3)
ROUTE_CASES = [
    ("bits", F2, 1, 3, Predicate.unimodular()),
    ("bits", F2, 2, 3, Predicate.unimodular()),
    ("prime", F3, 1, 3, Predicate.unimodular()),
    ("prime", F3, 2, 2, Predicate.unimodular()),
    ("ranktable", F3, 1, 2, Predicate.divisible_by(_irreducible(F3, 2))),
    ("ranktable", F3, 2, 2, Predicate.coprime_to(
        IrreducibleSet(F3, [_irreducible(F3, 1, 0), _irreducible(F3, 1, 1)]))),
    ("ranktable", F4, 2, 3, Predicate.coprime_to(
        IrreducibleSet(F4, [_irreducible(F4, 2)]))),
    ("ranktable", F2, 3, 3, Predicate.coprime_to(
        IrreducibleSet(F2, [_irreducible(F2, 2)]))),
    ("fallback", F4, 1, 2, Predicate.unimodular()),
    ("fallback", F3, 3, 3, Predicate.unimodular()),
    ("fallback", F2, 2, 2, Predicate.coprime_to(IrreducibleSet(F2))),
    # x^10 + x^3 + 1: a quotient field of order 1024, past the table cap
    ("fallback", F2, 2, 2, Predicate.divisible_by(
        poly_from_index(F2, (1 << 10) | (1 << 3) | 1))),
    ("prime", F5, 1, 3, Predicate.unimodular()),
    ("prime", F5, 2, 3, Predicate.unimodular()),
    ("prime", F257, 1, 2, Predicate.unimodular()),
    ("prime", F257, 2, 3, Predicate.unimodular()),
    ("prime", F3, 2, 3, Predicate.unimodular()),
]


@pytest.mark.parametrize("route,spec,k,n,predicate", ROUTE_CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_compiled_tester_agrees_with_reference_at_large_indices(
    route, spec, k, n, predicate, data
):
    assert compile_kernel(spec, k, n, predicate.kind, predicate.payload).route == route
    tester = compile_index_predicate(
        spec, k, n, BIG_N, predicate.kind, predicate.payload
    )
    indices = data.draw(
        st.lists(st.integers(0, BIG_N), min_size=k * n, max_size=k * n)
    )
    a = PolyMatrix.from_indices(spec, [indices[r * n : (r + 1) * n] for r in range(k)])
    assert tester(tuple(indices)) == predicate_holds(a, predicate)


def test_monte_carlo_at_large_n_recounts_through_the_reference_route():
    space = SpaceSpec(F3, 1, 3, BIG_N)
    predicate = Predicate.unimodular()
    seed = 2024
    result = monte_carlo(space, predicate, samples=300, seed=seed)
    # the documented page contract: page 0 of the seed-keyed Philox stream
    rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, 0]))
    draws = rng.integers(0, BIG_N + 1, size=(300, 3)).tolist()
    recount = sum(
        predicate_holds(PolyMatrix.from_indices(F3, [row]), predicate) for row in draws
    )
    assert result.hits == recount
    assert max(max(row) for row in draws) > 3**20  # the draws really are large


def test_compiling_at_the_largest_sampling_bound_builds_no_tables():
    tracemalloc.start()
    try:
        tester = compile_index_predicate(F3, 1, 3, 2**62, "unimodular", None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    predicate = Predicate.unimodular()
    for row in [(2**62, 2**61 + 5, 3), (2**62 - 1, 2**62, 1), (3, 3**31, 0)]:
        a = PolyMatrix.from_indices(F3, [row])
        assert tester(row) == predicate_holds(a, predicate)
    assert not tester((3, 3**31, 0))  # x, x^31 and 0 share the factor x


@pytest.mark.parametrize("spec", [F2, F3, F4, make_field(5)])
def test_residue_decoder_matches_polynomial_reduction(spec):
    table = irreducibles_up_to(spec, 3)
    moduli = list(table.irreducibles(1))[:2] + [table.irreducibles(2)[0]]
    moduli.append(table.irreducibles(3)[0])
    bound = spec.q**5
    for f in moduli:
        decode = compile_kernel(spec, 1, 1, "divisible", f).decode
        for v in range(bound):
            assert decode(v) == poly_to_index(poly_from_index(spec, v) % f)


def _check_quotient_tables(field, pairs):
    """The field's mul/sub/inv entries at index pairs (both orders), against the oracles."""
    spec, q = field.spec, field.spec.q
    modulus = list(field.modulus.coeffs)
    coeffs = {i: [spec.element(d) for d in index_to_digits(q, i)] for pair in pairs for i in pair}

    def index(cs):
        return digits_to_index(q, [c.index for c in cs])

    for i, j in pairs:
        a, b = coeffs[i], coeffs[j]
        ab = index(coeff_divmod(spec, coeff_mul(spec, a, b), modulus)[1])
        assert field.mul[i][j] == field.mul[j][i] == ab
        assert field.sub[i][j] == index(coeff_sub(spec, a, b))
        assert field.sub[j][i] == index(coeff_sub(spec, b, a))
    for i in {i for i, _ in pairs} - {0}:
        g, s, _ = coeff_xgcd(spec, coeffs[i], modulus)
        assert index(g) == 1
        assert field.inv[i] == index(coeff_divmod(spec, s, modulus)[1])


@pytest.mark.parametrize("spec", [F2, F3, F4, F5])
def test_quotient_tables_match_object_arithmetic(spec):
    degree = 1
    while spec.q**degree <= 64:
        for f in irreducibles_up_to(spec, degree).irreducibles(degree):
            field = QuotientField(f)
            assert field.inv[0] == 0
            pairs = combinations_with_replacement(range(field.order), 2)
            _check_quotient_tables(field, list(pairs))
        degree += 1


@pytest.mark.parametrize("spec,modulus", [
    (F2, (1 << 10) | (1 << 3) | 1),  # x^10 + x^3 + 1: order 1024, entries computed
    (make_field(509), 509 + 7),  # x + 7: order 509, the largest tabled prime
])
def test_quotient_tables_match_object_arithmetic_when_sampled(spec, modulus):
    field = QuotientField(poly_from_index(spec, modulus))
    rng = random.Random(modulus)
    pairs = [(rng.randrange(field.order), rng.randrange(field.order)) for _ in range(300)]
    _check_quotient_tables(field, pairs + [(0, 5), (1, 0), (field.order - 1, 1)])


def test_field_cache_keeps_bounded_memory():
    # order-512 quotient fields, one after another: GF(2) modulo degree-9 irreducibles
    moduli = irreducibles_up_to(F2, 9).irreducibles(9)[: 3 * _FIELD_CACHE_SIZE]
    assert len(moduli) == 3 * _FIELD_CACHE_SIZE
    a = PolyMatrix.from_indices(F2, [[2, 3], [3, 2]])  # determinant 1

    def use(f):
        # a kernel builds its own field, kept only while the kernel lives
        compile_kernel(F2, 2, 3, "divisible", f)
        # the rank reads mul, sub and inv of the field in the shared cache
        assert rank_over_field(reduce_mod(a, f)) == 2

    _quotient_field.cache_clear()
    tracemalloc.start()
    try:
        use(moduli[0])
        one_field = tracemalloc.get_traced_memory()[0]
        for f in moduli[1:]:
            use(f)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        _quotient_field.cache_clear()
    assert one_field > 2 * 512 * 512 * 8  # the cached field keeps mul and sub
    # the cached fields, plus one field's worth for Rabin verdicts and cache links
    assert current <= (_FIELD_CACHE_SIZE + 1) * one_field


F9 = make_field(3, 2)
F509 = make_field(509)

# (field, k, n, N, route with max_index=N): the local criterion under the
# table-work gate, at k = 3, on square shapes, at e = 2 and at D = 0
LOCAL_CASES = [
    (F2, 3, 3, 3, "ranktable"),  # D = 1: moduli of degree <= 3
    (F2, 3, 4, 1, "ranktable"),  # D = 0: the moduli x and x + 1
    (F3, 3, 3, 3, "ranktable"),
    (F3, 3, 3, 2, "ranktable"),
    (F4, 1, 2, 31, "ranktable"),  # D = 2, the largest gated work here
    (F4, 2, 2, 4, "ranktable"),
    (F4, 3, 3, 3, "ranktable"),
    (F9, 2, 2, 8, "ranktable"),
    (F9, 3, 3, 8, "ranktable"),
    (F5, 3, 4, 4, "ranktable"),
    (F9, 2, 2, 9, "fallback"),  # degree-2 moduli over GF(9): past the gate
    (F509, 3, 3, 1, "fallback"),  # 509 moduli of order 509
]


@pytest.mark.parametrize("spec,k,n,N,route", LOCAL_CASES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_local_rank_criterion_matches_the_matrix_route(spec, k, n, N, route, data):
    kernel = compile_kernel(spec, k, n, "unimodular", None, max_index=N)
    assert kernel.route == route
    indices = data.draw(st.lists(st.integers(0, N), min_size=k * n, max_size=k * n))
    a = PolyMatrix.from_indices(spec, [indices[r * n : (r + 1) * n] for r in range(k)])
    values = indices if kernel.decode is None else [kernel.decode(v) for v in indices]
    assert kernel.test(values) == matrix_predicate(a, "unimodular", None)


# ---------------------------------------------------------------------------
# the bit-sliced GF(3) ring of the prime route: (ones, twos) bitmasks


def _planes(coeffs):
    """(ones, twos) of a list of GF(3) elements, ascending powers."""
    ones = sum(1 << i for i, c in enumerate(coeffs) if c.index == 1)
    twos = sum(1 << i for i, c in enumerate(coeffs) if c.index == 2)
    return ones, twos


def _gf3_polys(max_degree):
    """Every GF(3) polynomial of degree <= max_degree, as element lists."""
    return [
        coeff_trim(map(F3.element, digits))
        for digits in product(range(3), repeat=max_degree + 1)
    ]


def test_trit_mul_and_sub_match_coefficient_arithmetic():
    polys = [(f, _planes(f)) for f in _gf3_polys(4)]
    for f, a in polys:
        for g, b in polys:
            assert _mul_trits(a, b) == _planes(coeff_mul(F3, f, g))
            assert _sub_trits(a, b) == _planes(coeff_sub(F3, f, g))


def test_trit_gcd_matches_the_extended_euclid_oracle_up_to_a_unit():
    polys = [(f, _planes(f)) for f in _gf3_polys(3)]
    for f, a in polys:
        for g, b in polys:
            ones, twos = _gcd_trits(a, b)
            if twos.bit_length() > ones.bit_length():
                ones, twos = twos, ones  # times 2 = -1: make it monic
            assert (ones, twos) == _planes(coeff_xgcd(F3, f, g)[0])


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(0, 2**62),
        st.integers(0, 39).map(lambda j: 3**j),  # x^j
        st.integers(1, 39).map(lambda j: 3**j - 1),  # every digit 2
    )
)
@example(0)
@example(2**62)
def test_trit_decode_round_trips(v):
    ones, twos = _decode_trits(v)
    assert ones & twos == 0
    width = max(ones.bit_length(), twos.bit_length())
    digits = [(ones >> i & 1) + 2 * (twos >> i & 1) for i in range(width)]
    assert sum(d * 3**i for i, d in enumerate(digits)) == v
    assert _planes(poly_from_index(F3, v).coeffs) == (ones, twos)


@pytest.mark.parametrize("k,n,N", [(2, 2, 8), (1, 3, 26)])
def test_gf3_census_equals_the_matrix_predicate_count(k, n, N):
    expected = sum(
        matrix_predicate(
            PolyMatrix.from_indices(F3, [combo[r * n : (r + 1) * n] for r in range(k)]),
            "unimodular",
            None,
        )
        for combo in product(range(N + 1), repeat=k * n)
    )
    space = SpaceSpec(F3, k, n, N)
    assert exhaustive_census(space, Predicate.unimodular()).hits == expected
