"""Work units and worker counts: validation and the pool-size clamp.

No test here starts a pool of more than seven processes.
"""

import collections
import itertools
import math
import os

import numpy as np
import pytest

from fqx import (
    IrreducibleSet,
    Predicate,
    SpaceSpec,
    exhaustive_census,
    gen,
    make_field,
    monte_carlo,
    one,
    poly_from_index,
)
from fqx import experiment
from fqx.experiment import _column_multisets, _distinct_columns, _orderings, _pool_size
from fqx.kernels import compile_index_predicate, compile_lanes

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)


@pytest.mark.parametrize("workers", [0, -1, -8])
def test_census_rejects_workers_below_one(workers):
    space = SpaceSpec(F2, 1, 2, 3)
    with pytest.raises(ValueError, match="workers"):
        exhaustive_census(space, Predicate.unimodular(), workers=workers)


@pytest.mark.parametrize("workers", [0, -1, -8])
def test_monte_carlo_rejects_workers_below_one(workers):
    space = SpaceSpec(F2, 1, 2, 3)
    with pytest.raises(ValueError, match="workers"):
        monte_carlo(space, Predicate.unimodular(), samples=10, seed=1, workers=workers)


def test_pool_size_is_clamped_to_cpus_and_units():
    cpus = os.cpu_count() or 1
    assert _pool_size(1, 5) == 1
    assert _pool_size(10**6, 10**6) == cpus
    assert _pool_size(10**6, 1) == 1
    assert _pool_size(2, 3) == min(2, cpus)
    assert _pool_size(10**6, 3) == min(3, cpus)


def test_many_workers_on_a_small_space_keep_the_count():
    # N + 1 = 4 work units, so at most four processes
    space = SpaceSpec(F2, 1, 2, 3)
    predicate = Predicate.unimodular()
    serial = exhaustive_census(space, predicate)
    assert exhaustive_census(space, predicate, workers=10**6).hits == serial.hits


def _cartesian_count(space, predicate):
    tester = compile_index_predicate(
        space.field, space.k, space.n, space.N, predicate.kind, predicate.payload
    )
    width = space.k * space.n
    return sum(map(tester, itertools.product(range(space.N + 1), repeat=width)))


def _equivalence_cases():
    x2, x3 = gen(F2), gen(F3)
    return [
        # the constant 2 x 2 matrices over GF(2): two units for three workers
        (SpaceSpec(F2, 2, 2, 1), Predicate.unimodular()),
        # decoders that merge indices: N + 1 exceeds the quotient field order
        (SpaceSpec(F2, 2, 2, 5), Predicate.coprime_to(IrreducibleSet(F2, [x2]))),
        (SpaceSpec(F2, 2, 3, 4), Predicate.coprime_to(
            IrreducibleSet(F2, [x2, x2 + one(F2)]))),
        (SpaceSpec(F3, 1, 3, 11), Predicate.divisible_by(x3 + one(F3))),
        # the local unimodular criterion
        (SpaceSpec(F4, 2, 2, 4), Predicate.unimodular()),
        (SpaceSpec(F3, 3, 3, 1), Predicate.unimodular()),
        (SpaceSpec(F3, 1, 4, 5), Predicate.unimodular()),  # prime route, n = 4
        (SpaceSpec(F2, 1, 1, 40), Predicate.divisible_by(x2)),  # n = 1
    ]


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
@pytest.mark.parametrize("case", range(8))
def test_multiset_census_matches_the_cartesian_count(case, workers):
    space, predicate = _equivalence_cases()[case]
    result = exhaustive_census(space, predicate, workers=workers)
    assert result.hits == _cartesian_count(space, predicate)


# ---------------------------------------------------------------------------
# page-batched censuses: a brute-force sum over every tuple is the oracle

# (route, field, predicate); x^4 + x + 1 has order 16, so its residues merge
# at 1x2 and 1x3 below, and x^2 + x + 1 (order 4) merges at 2x2, N = 5
PAGED_ROUTES = [
    ("bits", F2, Predicate.unimodular()),
    ("trits", F3, Predicate.unimodular()),
    ("ranktable", F2, Predicate.coprime_to(IrreducibleSet(F2, [poly_from_index(F2, 19)]))),
]
# (k, n, N): at least 64 multisets each, so every census below runs in pages
PAGED_SHAPES = [(1, 1, 99), (1, 2, 40), (1, 3, 20), (2, 2, 6), (2, 3, 3), (2, 4, 2)]
PAGED_CASES = [(route, spec, predicate, k, n, N)
               for route, spec, predicate in PAGED_ROUTES for k, n, N in PAGED_SHAPES]
PAGED_CASES.append(("ranktable", F2, Predicate.divisible_by(poly_from_index(F2, 7)), 2, 2, 5))
# the rank-table lanes at p >= 5 and at k = 3: the local unimodular
# criterion over GF(5) (15 moduli of degree <= 2) and over GF(2), and
# full rank modulo a degree-1 member by 3 x 3 minors
PAGED_CASES += [
    ("ranktable", make_field(5), Predicate.unimodular(), 1, 2, 124),
    ("ranktable", F3, Predicate.coprime_to(IrreducibleSet(F3, [gen(F3) + one(F3)])), 3, 3, 2),
    ("ranktable", F2, Predicate.unimodular(), 3, 3, 1),
]


@pytest.mark.parametrize("route,spec,predicate,k,n,N", PAGED_CASES,
                         ids=[f"{c[0]}-q{c[1].q}-{c[3]}x{c[4]}-N{c[5]}" for c in PAGED_CASES])
def test_paged_census_equals_the_sum_over_every_tuple(route, spec, predicate, k, n, N,
                                                      monkeypatch):
    space = SpaceSpec(spec, k, n, N)
    tester = compile_index_predicate(spec, k, n, N, predicate.kind, predicate.payload)
    expected = sum(map(tester, itertools.product(range(N + 1), repeat=k * n)))
    paged = []
    pages_hits = experiment._census_pages_hits

    def spy(*args):
        paged.append(args)
        return pages_hits(*args)

    monkeypatch.setattr(experiment, "_census_pages_hits", spy)
    assert exhaustive_census(space, predicate).hits == expected
    assert paged  # the census did run in pages
    monkeypatch.setattr(experiment, "CENSUS_PAGE_ROWS", 7)  # many pages, split prefixes
    for units in (1, 2, 3):
        args = (spec, k, n, N, predicate.kind, predicate.payload)
        assert sum(experiment._census_unit_hits(args + (unit, units))
                   for unit in range(units)) == expected
    monkeypatch.undo()
    for workers in (2, 3):
        assert exhaustive_census(space, predicate, workers=workers).hits == expected
    if route == "ranktable":
        lanes = compile_lanes(spec, k, n, predicate.kind, predicate.payload, N)
        merged = _distinct_columns(lanes.lanes(np.arange(N + 1)))[1]
        assert (merged != 1).any() == (N + 1 > lanes.classes)


@pytest.mark.parametrize("q,N,multisets,setup", [
    (11, 10, 66, 11 * 11 * 22),  # 11 moduli of degree 1
    (5, 124, 7875, 5 * 5 * 10 + 10 * 25 * 30),  # and 10 of degree 2
])
def test_prime_field_census_pages_once_its_multisets_outweigh_the_table_work(
    q, N, multisets, setup, monkeypatch
):
    # the scalar prime route builds no tables; the local criterion's lanes
    # build one per modulus, worth it only for at least ``setup`` multisets
    spec = make_field(q)
    lanes = compile_lanes(spec, 1, 2, "unimodular", None, N)
    assert (lanes.setup, experiment._multisets(N + 1, 1, 2)) == (setup, multisets)
    paged = []
    pages_hits = experiment._census_pages_hits

    def spy(*args):
        paged.append(args)
        return pages_hits(*args)

    monkeypatch.setattr(experiment, "_census_pages_hits", spy)
    tester = compile_index_predicate(spec, 1, 2, N, "unimodular", None)
    expected = sum(map(tester, itertools.product(range(N + 1), repeat=2)))
    assert exhaustive_census(SpaceSpec(spec, 1, 2, N), Predicate.unimodular()).hits == expected
    assert bool(paged) == (multisets >= setup)


@pytest.mark.parametrize("page", [1, 7, 4096])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("columns", [1, 2, 5, 12])
def test_column_multisets_partition_and_weigh_every_tuple(columns, n, page, monkeypatch):
    monkeypatch.setattr(experiment, "CENSUS_PAGE_ROWS", page)
    every = list(itertools.combinations_with_replacement(range(columns), n))
    counts = np.array([1 + (3 * c) % 5 for c in range(columns)])
    weighed = sum(math.prod(counts[list(t)].tolist())
                  for t in itertools.product(range(columns), repeat=n))
    for units in (1, 2, 3):
        rows, plain, counted = [], 0, 0
        for unit in range(units):
            for picks in _column_multisets(np.arange(unit, columns, units), columns, n):
                assert picks.shape[1] == n and 1 <= len(picks) <= page
                rows += map(tuple, picks.tolist())
                orderings = _orderings(picks)
                plain += int(orderings.sum())
                counted += int((orderings * counts[picks].prod(axis=1)).sum())
        assert sorted(rows) == every
        assert plain == columns**n
        assert counted == weighed


def test_orderings_are_exact_up_to_twenty_columns():
    picks = np.array([range(20), [0] * 20, [0] * 10 + [1] * 10, [0] * 19 + [1]])
    assert _orderings(picks).tolist() == [
        math.factorial(20), 1, math.comb(20, 10), 20]


def test_distinct_columns_count_each_column_once():
    small = np.array([[0, 1, 0, 2, 1], [3, 3, 3, 0, 3]])
    wide = np.array([[2**40, 0, 2**40], [2**40, 1, 2**40]])  # no int64 key fits
    for lanes in (small, wide):
        values, counts = _distinct_columns(lanes)
        tally = collections.Counter(map(tuple, lanes.T.tolist()))
        assert dict(zip(map(tuple, values.T.tolist()), counts.tolist())) == tally


# ---------------------------------------------------------------------------
# Monte Carlo on the lanes: whole counter pages, grouped per lane call

MC_LANE_CASES = [
    (F2, 1, 2, 2**16 - 1, Predicate.unimodular()),  # bits
    (F3, 2, 3, 3**6 - 1, Predicate.unimodular()),  # trits
    (F3, 2, 2, 80, Predicate.coprime_to(IrreducibleSet(F3, [poly_from_index(F3, 3)]))),
]
MC_SAMPLES = [1, 1023, 1025, 4 * 1024 + 5, 9 * 1024 + 17]


def _page_at_a_time(spec, k, n, N, predicate, samples, seed):
    """Hits summed one counter page per lane call."""
    kernel = compile_lanes(spec, k, n, predicate.kind, predicate.payload, N)
    hits = 0
    for page, count in experiment._page_plan(samples):
        draws = experiment._default_stream(seed, page).integers(0, N + 1, size=(count, k * n))
        hits += int(kernel.test(kernel.lanes(draws)).sum())
    return hits


def _recording_lanes(sizes):
    """``compile_lanes`` whose kernels record the rows of every ``test`` call."""

    def compile_recording(*args):
        kernel = compile_lanes(*args)

        def test(values):
            sizes.append(values.shape[1])
            return kernel.test(values)

        return kernel._replace(test=test)

    return compile_recording


@pytest.mark.parametrize("spec,k,n,N,predicate", MC_LANE_CASES,
                         ids=["bits", "trits", "ranktable"])
@pytest.mark.parametrize("samples", MC_SAMPLES)
def test_grouped_monte_carlo_pages_equal_the_page_at_a_time_sum(spec, k, n, N, predicate,
                                                                 samples):
    expected = _page_at_a_time(spec, k, n, N, predicate, samples, seed=13)
    space = SpaceSpec(spec, k, n, N)
    for workers in (1, 2, 3):
        assert monte_carlo(space, predicate, samples, seed=13, workers=workers).hits == expected


@pytest.mark.parametrize("page_rows", [7, 1024, 4096, 5000])
def test_monte_carlo_lane_calls_take_whole_pages_up_to_the_page_rows(page_rows, monkeypatch):
    spec, k, n, N, predicate = MC_LANE_CASES[0]
    space = SpaceSpec(spec, k, n, N)
    chunk = experiment.CHUNK_SAMPLES
    group = max(page_rows // chunk, 1)
    monkeypatch.setattr(experiment, "CENSUS_PAGE_ROWS", page_rows)
    for samples in MC_SAMPLES:
        sizes = []
        monkeypatch.setattr(experiment, "compile_lanes", _recording_lanes(sizes))
        hits = monte_carlo(space, predicate, samples, seed=13).hits
        assert hits == _page_at_a_time(spec, k, n, N, predicate, samples, seed=13)
        # consecutive whole pages, as many as fit the page rows, at least one
        counts = [count for _, count in experiment._page_plan(samples)]
        assert sizes == [sum(counts[lo : lo + group]) for lo in range(0, len(counts), group)]
        assert max(sizes) <= max(page_rows, chunk)
