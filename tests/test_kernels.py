"""Compiled kernels at large entry indices: decode on demand, no N-sized tables."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqx import (
    IrreducibleSet,
    PolyMatrix,
    Predicate,
    SpaceSpec,
    irreducibles_up_to,
    make_field,
    monte_carlo,
    poly_from_index,
    poly_to_index,
    predicate_holds,
)
from fqx.kernels import compile_index_predicate, compile_kernel

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)

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
