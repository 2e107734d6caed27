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
from fqx import kernels
from fqx.kernels import (
    _BITS,
    _TRITS,
    _batch_unimodular,
    _decode_trits,
    _divsteps_bits_lanes,
    _divsteps_trits_lanes,
    _gcd_bits,
    _gcd_trits,
    _lane_dtype,
    _mul_trits,
    _sub_trits,
    _unit_gcd_lanes,
    compile_index_predicate,
    compile_kernel,
    compile_lanes,
    matrix_predicate,
)
from fqx.matrix import _FIELD_CACHE_SIZE, _quotient_field

from oracles import coeff_divmod, coeff_mul, coeff_sub, coeff_trim, coeff_xgcd

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F7 = make_field(7)
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
    # order-512 quotient fields, one after another: GF(2) modulo degree-9
    # irreducibles, three more than the cache keeps
    moduli = irreducibles_up_to(F2, 9).irreducibles(9)[: _FIELD_CACHE_SIZE + 3]
    assert len(moduli) == _FIELD_CACHE_SIZE + 3
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


def test_quotient_sub_table_shares_its_ints():
    # GF(2) modulo a degree-9 irreducible: order 512, entries above 256
    field = QuotientField(irreducibles_up_to(F2, 9).irreducibles(9)[0])
    tracemalloc.start()
    try:
        sub = field.sub
        shared = tracemalloc.get_traced_memory()[0]
        fresh = [[int(str(v)) for v in row] for row in sub]  # one int object per entry
        unshared = tracemalloc.get_traced_memory()[0] - shared
    finally:
        tracemalloc.stop()
    assert fresh == sub
    assert len({id(v) for row in sub for v in row}) == field.order
    assert shared <= unshared / 2


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


# ---------------------------------------------------------------------------
# page-batched testers: the scalar tester is the oracle

BATCH_SHAPES = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]
# (route, field, predicate, {k: the largest N the route takes})
BATCH_ROUTES = [
    ("bits", F2, Predicate.unimodular(), {1: 2**63 - 1, 2: 2**32 - 1}),
    ("trits", F3, Predicate.unimodular(), {1: 2**63 - 1, 2: 3**32 - 1}),
    ("ranktable", F3, Predicate.coprime_to(IrreducibleSet(F3, [
        _irreducible(F3, 1, 0), _irreducible(F3, 1, 1), _irreducible(F3, 2)])),
     {1: 2**63 - 1, 2: 2**63 - 1, 3: 2**63 - 1}),
    ("ranktable", F4, Predicate.divisible_by(_irreducible(F4, 2)),
     {1: 2**63 - 1, 2: 2**63 - 1, 3: 2**63 - 1}),
]
# unimodular over GF(5) and GF(7) on the local criterion's rank-table
# lanes, up to the ``_LOCAL_TABLE_WORK`` gate; the scalar route is "prime"
LOCAL_ROUTES = [
    ("local", F5, Predicate.unimodular(), {1: 5**3 - 1, 2: 5**2 - 1}),
    ("local", F7, Predicate.unimodular(), {1: 7**2 - 1, 2: 7 - 1}),
]
BATCH_CASES = [(*route, k, n) for route in BATCH_ROUTES + LOCAL_ROUTES
               for k, n in BATCH_SHAPES if k in route[3]]


@st.composite
def _batch_rows(draw, q, k, n, N):
    """Rows of k*n indices: arbitrary, with zeros, all divisible by x, or with
    rows agreeing at x = 0 (so that x divides every minor)."""
    width = k * n
    entry = st.one_of(st.integers(0, N), st.integers(0, min(N, q * q)), st.just(0))
    multiple = st.integers(0, N // q).map(q.__mul__)
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        shape = draw(st.sampled_from(["any", "x", "xminors"]))
        if shape == "any":
            row = draw(st.lists(entry, min_size=width, max_size=width))
        elif shape == "x":
            row = draw(st.lists(multiple, min_size=width, max_size=width))
        else:
            top = draw(st.lists(entry, min_size=n, max_size=n))
            row = top * k
            for j in range(n, width):
                constant = row[j] % q
                row[j] = constant + q * draw(st.integers(0, (N - constant) // q))
        rows.append(row)
    return rows


@pytest.mark.parametrize("route,spec,predicate,limits,k,n", BATCH_CASES,
                         ids=[f"{c[0]}-q{c[1].q}-{c[4]}-{c[5]}" for c in BATCH_CASES])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batch_tester_matches_the_scalar_tester(route, spec, predicate, limits, k, n, data):
    kind, payload = predicate.kind, predicate.payload
    for N in (limits[k], 1, min(spec.q**3 - 1, limits[k])):
        lanes = compile_lanes(spec, k, n, kind, payload, N)
        assert lanes is not None
        route_of = compile_kernel(spec, k, n, kind, payload, N).route
        assert route_of == ("prime" if route in ("trits", "local") else route)
        tester = compile_index_predicate(spec, k, n, N, kind, payload)
        rows = data.draw(_batch_rows(spec.q, k, n, N))
        verdicts = lanes.test(lanes.lanes(np.array(rows, dtype=np.int64)))
        assert verdicts.dtype == bool
        assert verdicts.tolist() == [bool(tester(row)) for row in rows]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("route,spec,predicate,limits", BATCH_ROUTES + LOCAL_ROUTES,
                         ids=[f"{r[0]}-q{r[1].q}" for r in BATCH_ROUTES + LOCAL_ROUTES])
def test_batch_routes_stop_one_index_past_their_limits(route, spec, predicate, limits, k):
    kind, payload = predicate.kind, predicate.payload
    assert compile_lanes(spec, k, 3, kind, payload, limits[k]) is not None
    assert compile_lanes(spec, k, 3, kind, payload, limits[k] + 1) is None


def test_batch_leaves_the_scalar_spaces_alone():
    # quotient fields past the table cap, the local criterion past its
    # table-work gate, coprimality to no member and k x k minors past the
    # plan cap keep the scalar testers
    big = poly_from_index(F2, (1 << 10) | (1 << 3) | 1)  # order 1024
    x = IrreducibleSet(F2, [_irreducible(F2, 1)])
    cases = [
        (F257, 2, 3, "unimodular", None, 10**6),
        (F4, 2, 3, "unimodular", None, 63),
        (F4, 1, 2, "unimodular", None, BIG_N),
        (F509, 1, 2, "unimodular", None, 2**62),
        (F2, 3, 3, "unimodular", None, 15),  # moduli up to degree 9
        (F2, 2, 2, "divisible", big, 15),
        (F2, 1, 2, "coprime", IrreducibleSet(F2), 15),
        (F2, 3, 14, "coprime", x, 1),  # 2 * 91 + 3 * 364 = 1274 table reads
        (F2, 6, 12, "coprime", x, 1),
        (F2, 10, 20, "unimodular", None, 1),
    ]
    for spec, k, n, kind, payload, N in cases:
        assert compile_kernel(spec, k, n, kind, payload, N).route in ("prime", "fallback", "ranktable")
        assert compile_lanes(spec, k, n, kind, payload, N) is None
    # the prime route for p >= 5 and k = 3 under the gates batch on the
    # rank-table lanes; their scalar testers keep their routes
    batched = [
        (F5, 1, 2, "unimodular", None, 124, "prime"),
        (F2, 3, 3, "unimodular", None, 3, "ranktable"),
        (F3, 3, 3, "coprime", IrreducibleSet(F3, [_irreducible(F3, 1)]), 8, "ranktable"),
        (F2, 3, 13, "coprime", x, 1, "ranktable"),  # 2 * 78 + 3 * 286 = 1014 table reads
    ]
    for spec, k, n, kind, payload, N, route in batched:
        assert compile_kernel(spec, k, n, kind, payload, N).route == route
        assert compile_lanes(spec, k, n, kind, payload, N) is not None


@pytest.mark.parametrize("spec,k,n", [(F3, 3, 3), (F2, 3, 4)])
def test_lane_minors_match_the_rank_over_every_constant_matrix(spec, k, n):
    # residues modulo a degree-1 member are the constants themselves, so
    # the verdict is "rank k over GF(q)": this pins the Laplace signs
    member = _irreducible(spec, 1)
    lanes = compile_lanes(spec, k, n, "coprime", IrreducibleSet(spec, [member]), spec.q - 1)
    grid = np.array(list(product(range(spec.q), repeat=k * n)))
    verdicts = lanes.test(lanes.lanes(grid))
    expected = [
        rank_over_field([[spec.element(v) for v in row[r * n : (r + 1) * n]]
                         for r in range(k)]) == k
        for row in grid.tolist()
    ]
    assert len(expected) == spec.q ** (k * n)
    assert verdicts.tolist() == expected


def _gcd_lanes_cases(d):
    """Every GF(2) pair (f odd, g) of degree <= d, as lane arrays."""
    f, g = np.meshgrid(np.arange(1, 2 ** (d + 1), 2), np.arange(2 ** (d + 1)))
    return f.ravel()[None], g.ravel()[None]


@pytest.mark.parametrize("d", [4, 6, 8])
def test_divsteps_bound_over_every_small_gf2_pair(d):
    f, g = _gcd_lanes_cases(d)
    out = _divsteps_bits_lanes(f, g, 2 * d + 2)
    assert out[0].tolist() == [_gcd_bits(a, b) for a, b in zip(f[0].tolist(), g[0].tolist())]
    with pytest.raises(RuntimeError):
        _divsteps_bits_lanes(f, g, 2 * d + 1)  # the bound is tight


@pytest.mark.parametrize("d", [2, 3, 4])
def test_divsteps_bound_over_every_small_gf3_pair(d):
    fs = [p for p in _gf3_polys(d) if p and p[0].index]  # f(0) != 0
    gs = _gf3_polys(d)
    f = np.array([_planes(f) for f in fs for _ in gs]).T
    g = np.array([_planes(g) for _ in fs for g in gs]).T
    ones, twos = _divsteps_trits_lanes(f, g, 2 * d + 2)
    for a, b, o, t in zip(f.T.tolist(), g.T.tolist(), ones.tolist(), twos.tolist()):
        gcd = _gcd_trits(a, b)
        assert (o, t) == (gcd[::-1] if gcd[1] & 1 else gcd)  # constant term 1
    with pytest.raises(RuntimeError):
        _divsteps_trits_lanes(f, g, 2 * d + 1)


@pytest.mark.parametrize("q,ring", [(2, _BITS), (3, _TRITS)], ids=["bits", "trits"])
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_unit_gcd_lanes_match_the_scalar_tester(q, ring, m):
    # lanes with no entry prime to x, with only the last one prime to x,
    # all zero, and seeded ones; entries of degree <= d
    d = 6
    top = q ** (d + 1) - 1
    rng = np.random.default_rng(100 * q + m)
    rows = rng.integers(0, top + 1, size=(200, m))
    rows[:40] = q * rng.integers(0, top // q + 1, size=(40, m))  # constant terms 0
    rows[20:40, -1] += 1  # only the last entry has one
    rows[20, -1] = 1
    rows[40] = 0
    columns = ring.planes(rows.T.copy(), degree=d, dtype=_lane_dtype(d))
    assert columns.shape[1:] == (m, len(rows)) and columns.dtype == np.uint8
    tester = compile_index_predicate(make_field(q), 1, m, top, "unimodular", None)
    expected = [bool(tester(row)) for row in rows.tolist()]
    assert expected[20] and not any(expected[:20]) and not expected[40]
    assert _unit_gcd_lanes(ring, columns, 2 * d + 2).tolist() == expected
    if m > 1:
        with pytest.raises(RuntimeError):
            _unit_gcd_lanes(ring, columns, d)  # the divsteps guard


@pytest.mark.parametrize("width", [8, 16, 32])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("q", [2, 3], ids=["bits", "trits"])
def test_lane_widths_match_the_scalar_tester_at_each_edge(q, k, width):
    # the largest entry degree D with k*D + 1 <= width keeps the width, and
    # D + 1 takes the next one; rows of index N have every top coefficient,
    # so at k*D + 1 = width a minor's coefficient fills the lane's top bit
    spec, n = make_field(q), 3
    top = (width - 1) // k
    rng = np.random.default_rng(width * 10 + q * 2 + k)
    for degree, lane_width in ((top, width), (top + 1, 2 * width)):
        N = q ** (degree + 1) - 1
        rows = rng.integers(0, N + 1, size=(80, k * n))
        rows[:20] = N - rng.integers(0, q**2, size=(20, k * n))  # top digits of N
        rows[0] = N
        rows[1, :n] = N
        rows[2, ::2] = N
        rows[3] = [N] * (k * n - 1) + [1]
        lanes = compile_lanes(spec, k, n, "unimodular", None, N)
        values = lanes.lanes(rows)
        assert values.dtype == np.dtype(f"u{lane_width // 8}")
        tester = compile_index_predicate(spec, k, n, N, "unimodular", None)
        expected = [bool(tester(row)) for row in rows.tolist()]
        assert any(expected) and not expected[0]
        assert lanes.test(values).tolist() == expected


@pytest.mark.parametrize("size", [1, 2, 4, 8])
@pytest.mark.parametrize("q,ring", [(2, _BITS), (3, _TRITS)], ids=["bits", "trits"])
def test_lane_ops_keep_the_lane_dtype(q, ring, size):
    # numpy widens an operation that mixes signedness (uint16 with int16
    # gives int32): every count would still hold, on lanes twice as wide
    dtype = np.dtype(f"u{size}")
    d = (8 * size - 1) // 2  # the largest entry degree of 2 x 2 minors on these lanes
    assert _lane_dtype(2 * d) == dtype
    rng = np.random.default_rng(10 * q + size)
    draws = rng.integers(0, q ** (d + 1), size=(64, 6))
    draws[:, 0] += 1 - draws[:, 0] % q  # f(0) = 1
    values = ring.planes(draws, degree=d, dtype=dtype)
    f, g = values[:, :, 0], values[:, :, 1]
    assert values.dtype == dtype
    assert ring.mul(f, g, d).dtype == dtype
    assert ring.sub(f, g).dtype == dtype
    assert ring.divsteps(f, g, 2 * d + 2).dtype == dtype
    seen = []

    def divsteps(f, g, steps):
        out = ring.divsteps(f, g, steps)
        seen.extend((f.dtype, g.dtype, out.dtype))
        return out

    verdicts = _batch_unimodular(ring._replace(divsteps=divsteps), 2, 3, d, values)
    assert seen and set(seen) == {dtype}
    tester = compile_index_predicate(make_field(q), 2, 3, q ** (d + 1) - 1, "unimodular", None)
    assert verdicts.tolist() == [bool(tester(row)) for row in draws.tolist()]


def test_local_lanes_list_their_moduli_on_the_first_lanes_call(monkeypatch):
    # setup comes from the irreducible counts; the moduli are listed only
    # once the lanes are used
    listed = []
    monkeypatch.setattr(kernels, "irreducibles_up_to",
                        lambda *args: listed.append(args) or irreducibles_up_to(*args))
    lanes = compile_lanes(make_field(11), 1, 2, "unimodular", None, 10)
    assert (lanes.setup, listed) == (11 * 11 * 22, [])
    residues = lanes.lanes(np.arange(11))
    assert len(listed) == 1 and residues.shape == (11, 11)
    lanes.lanes(np.arange(11))
    assert len(listed) == 1
