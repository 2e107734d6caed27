"""Censuses, Monte Carlo sampling, closed-form cross-checks, reports."""

import io
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fqx import (
    BudgetExceededError,
    CSV_COLUMNS,
    CensusResult,
    IrreducibleSet,
    MCEstimate,
    PolyMatrix,
    Predicate,
    SpaceSpec,
    census_matches_closed_form,
    closed_form_count,
    convergence_report,
    exhaustive_census,
    gen,
    irreducibles_up_to,
    make_field,
    monte_carlo,
    one,
    predicate_holds,
    render_matrix,
    sample_matrix,
    wilson_halfwidth,
    write_rows_csv,
)
from fqx import experiment, kernels
from fqx.experiment import CHUNK_SAMPLES, RNG_ID, _default_stream, _page_plan
from fqx.kernels import (
    choose_kernel,
    compile_index_predicate,
    compile_lanes,
    matrix_predicate,
)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)


# ---------------------------------------------------------------------------
# dataclass validation and labels


def test_space_spec_validation():
    with pytest.raises(ValueError):
        SpaceSpec(F2, 0, 1, 3)
    with pytest.raises(ValueError):
        SpaceSpec(F2, 2, 1, 3)
    with pytest.raises(ValueError):
        SpaceSpec(F2, 1, 2, -1)
    assert SpaceSpec(F2, 2, 3, 3).size == 4**6


def test_predicate_validation():
    x = gen(F2)
    with pytest.raises(ValueError):
        Predicate("unimodular", primes=IrreducibleSet(F2))
    with pytest.raises(ValueError):
        Predicate("coprime")
    with pytest.raises(ValueError):
        Predicate("divisible", poly=x * x)  # reducible
    with pytest.raises(ValueError):
        Predicate("nonsense")


def test_predicate_labels():
    x = gen(F2)
    assert Predicate.unimodular().label() == "unimodular"
    both = IrreducibleSet(F2, [x, x + one(F2)])
    assert Predicate.coprime_to(both).label() == "coprime[0,1;1,1]"
    assert Predicate.divisible_by(x).label() == "divisible[0,1]"


# ---------------------------------------------------------------------------
# kernel equivalence: the compiled index testers against the matrix route


def predicate_cases(spec, max_deg_payload):
    x = gen(spec)
    table = irreducibles_up_to(spec, max_deg_payload)
    singles = list(table.irreducibles(1))
    doubles = list(table.irreducibles(2)) if max_deg_payload >= 2 else []
    yield Predicate.unimodular()
    yield Predicate.coprime_to(IrreducibleSet(spec))
    yield Predicate.coprime_to(IrreducibleSet(spec, singles[:1]))
    yield Predicate.coprime_to(IrreducibleSet(spec, singles[:2]))
    if doubles:
        yield Predicate.coprime_to(IrreducibleSet(spec, [singles[0], doubles[0]]))
        yield Predicate.divisible_by(doubles[0])
    yield Predicate.divisible_by(x)


def equivalence_bound(q, width):
    # largest N with (N + 1)**width affordable, still past the digit
    # boundary (entries of degree >= 1 appear from index q on) whenever
    # the budget allows
    for candidate in (q * q - 1, q + 1, q, 1):
        if (candidate + 1) ** width <= 20000:
            return candidate
    return 1


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("k,n", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
def test_compiled_kernels_match_reference_route(q, k, n):
    spec = {2: F2, 3: F3, 4: F4}[q]
    width = k * n
    N = equivalence_bound(q, width)
    cases = [
        (
            predicate,
            compile_index_predicate(
                spec, k, n, N, predicate.kind, predicate.payload
            ),
        )
        for predicate in predicate_cases(spec, 2)
    ]
    for combo in itertools.product(range(N + 1), repeat=width):
        a = PolyMatrix.from_indices(
            spec, [combo[i * n : (i + 1) * n] for i in range(k)]
        )
        for predicate, tester in cases:
            expected = matrix_predicate(a, predicate.kind, predicate.payload)
            assert tester(combo) == expected, (
                f"{predicate.label()} diverged on {q=} {k=} {n=} at {combo}"
            )


def test_predicate_holds_uses_reference_route():
    a = PolyMatrix.from_indices(F2, [[2, 3]])  # [x, x+1]
    assert predicate_holds(a, Predicate.unimodular())
    x = gen(F2)
    assert not predicate_holds(a, Predicate.divisible_by(x))


# ---------------------------------------------------------------------------
# exhaustive censuses


def test_census_example():
    x = gen(F2)
    both = IrreducibleSet(F2, [x, x + one(F2)])
    space = SpaceSpec(F2, 1, 2, 3)
    result = exhaustive_census(space, Predicate.coprime_to(both))
    assert result.hits == 9
    assert result.total == 16
    assert result.ratio == Fraction(9, 16)


def test_census_single_point_space():
    # N = 0 leaves only the zero matrix, which is never unimodular
    space = SpaceSpec(F2, 1, 2, 0)
    result = exhaustive_census(space, Predicate.unimodular())
    assert result.hits == 0 and result.total == 1


def test_census_square_unimodular_count():
    space = SpaceSpec(F2, 2, 2, 1)
    result = exhaustive_census(space, Predicate.unimodular())
    assert result.hits == 6  # constant 2x2 matrices with nonzero determinant


def test_census_merges_narrow_lane_values_by_an_exact_key():
    # GF(3) 1x2 at N = 120 (degree 4) runs on uint8 trit planes; a merge key
    # built in the lanes' dtype wraps and miscounted it as 9668
    space = SpaceSpec(F3, 1, 2, 120)
    assert compile_lanes(F3, 1, 2, "unimodular", None, space.N).lanes(
        np.arange(space.N + 1)).dtype == np.uint8
    tester = compile_index_predicate(F3, 1, 2, space.N, "unimodular", None)
    brute = sum(tester(pair) for pair in itertools.product(range(space.N + 1), repeat=2))
    assert exhaustive_census(space, Predicate.unimodular()).hits == brute == 9702


def test_census_coprime_subset_of_rank_condition():
    x = gen(F3)
    space = SpaceSpec(F3, 1, 2, 8)
    free = exhaustive_census(space, Predicate.coprime_to(IrreducibleSet(F3)))
    constrained = exhaustive_census(
        space, Predicate.coprime_to(IrreducibleSet(F3, [x]))
    )
    assert constrained.hits <= free.hits


def test_census_complement_splits_the_space():
    x = gen(F2)
    space = SpaceSpec(F2, 1, 2, 7)
    cop = exhaustive_census(space, Predicate.coprime_to(IrreducibleSet(F2, [x])))
    div = exhaustive_census(space, Predicate.divisible_by(x))
    assert cop.hits + div.hits == space.size


def test_census_budget():
    space = SpaceSpec(F2, 2, 2, 7)  # 8**4 = 4096 points
    with pytest.raises(BudgetExceededError):
        exhaustive_census(space, Predicate.unimodular(), budget=4095)
    result = exhaustive_census(space, Predicate.unimodular(), budget=4096)
    assert result.total == 4096


@pytest.mark.parametrize("workers", [2, 3])
def test_census_worker_split_matches_serial(workers):
    x = gen(F3)
    space = SpaceSpec(F3, 1, 2, 8)
    predicate = Predicate.coprime_to(IrreducibleSet(F3, [x]))
    serial = exhaustive_census(space, predicate)
    parallel = exhaustive_census(space, predicate, workers=workers)
    assert parallel.hits == serial.hits
    assert parallel.total == serial.total


def test_census_of_single_entries_streams_the_indices():
    space = SpaceSpec(F3, 1, 1, 10**6)
    predicate = Predicate.unimodular()
    tracemalloc.start()
    try:
        hits = exhaustive_census(space, predicate).hits
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert exhaustive_census(space, predicate, workers=2).hits == hits
    # brute force over every entry: the units of GF(3)[x] are its nonzero
    # constants, the indices 1 and 2
    assert hits == sum(1 for v in range(space.N + 1) if 0 < v < F3.q)


# ---------------------------------------------------------------------------
# sampling


def test_sample_matrix_golden_draws():
    space = SpaceSpec(F2, 1, 2, 3)
    rng = _default_stream(12345, 0)
    first = sample_matrix(space, rng)
    second = sample_matrix(space, rng)
    assert render_matrix(first) == "0|0,1"
    assert render_matrix(second) == "0,1|1,1"
    # a fresh stream on the same page replays the same draws
    replay = _default_stream(12345, 0)
    assert sample_matrix(space, replay) == first
    assert sample_matrix(space, replay) == second


def test_page_streams_replay_fresh_generators_on_every_page():
    # one generator per Monte Carlo unit, set on each page in turn, draws
    # what a fresh Philox keyed by the seed on that counter page draws
    for seed in (0, 12345, (1 << 128) - 1):
        on_page = experiment._page_streams(seed)
        for N in (1, 255, 1 << 40, (1 << 63) - 1):
            for page in (7, 0, 1 << 40, 1, 7):
                draws = on_page(page).integers(0, N + 1, size=(CHUNK_SAMPLES, 2))
                fresh = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, page]))
                assert np.array_equal(draws, fresh.integers(0, N + 1, size=(CHUNK_SAMPLES, 2)))


def test_sample_matrix_degenerate_space():
    space = SpaceSpec(F3, 2, 2, 0)
    rng = _default_stream(7, 0)
    a = sample_matrix(space, rng)
    assert all(f.is_zero for row in a.entries for f in row)


def test_page_plan():
    assert list(_page_plan(CHUNK_SAMPLES)) == [(0, CHUNK_SAMPLES)]
    assert list(_page_plan(1)) == [(0, 1)]
    assert list(_page_plan(CHUNK_SAMPLES + 5)) == [(0, CHUNK_SAMPLES), (1, 5)]
    assert list(_page_plan(3 * CHUNK_SAMPLES)) == [
        (0, CHUNK_SAMPLES),
        (1, CHUNK_SAMPLES),
        (2, CHUNK_SAMPLES),
    ]


def test_page_plan_is_constant_memory():
    samples = 10**15
    tracemalloc.start()
    try:
        plan = _page_plan(samples)
        first = next(plan)
        allocated = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert allocated < 1024
    assert first == (0, CHUNK_SAMPLES)
    # the last page carries the remainder, picked out without walking the plan
    pages = -(-samples // CHUNK_SAMPLES)
    assert list(_page_plan(samples, range(pages - 1, pages))) == [
        (pages - 1, samples - (pages - 1) * CHUNK_SAMPLES)
    ]


# ---------------------------------------------------------------------------
# Monte Carlo


def test_monte_carlo_is_deterministic_in_the_seed():
    space = SpaceSpec(F2, 1, 2, 15)
    predicate = Predicate.unimodular()
    a = monte_carlo(space, predicate, samples=3000, seed=42)
    b = monte_carlo(space, predicate, samples=3000, seed=42)
    assert a.hits == b.hits
    assert a.estimate == Fraction(a.hits, 3000)
    assert a.rng_id == RNG_ID
    c = monte_carlo(space, predicate, samples=3000, seed=43)
    assert c.hits != a.hits  # different seed, different draws


@pytest.mark.parametrize("workers", [2, 3])
def test_monte_carlo_workers_do_not_change_the_count(workers):
    space = SpaceSpec(F2, 1, 2, 15)
    predicate = Predicate.unimodular()
    serial = monte_carlo(space, predicate, samples=CHUNK_SAMPLES * 3 + 17, seed=9)
    parallel = monte_carlo(
        space, predicate, samples=CHUNK_SAMPLES * 3 + 17, seed=9, workers=workers
    )
    assert parallel.hits == serial.hits


def _recount(space, predicate, samples, seed):
    """Hits over the regenerated draws of every page, through one tester."""
    tester = compile_index_predicate(
        space.field, space.k, space.n, space.N, predicate.kind, predicate.payload
    )
    hits = 0
    for page, count in _page_plan(samples):
        draws = _default_stream(seed, page).integers(
            0, space.N + 1, size=(count, space.k * space.n)
        )
        hits += sum(map(tester, draws.tolist()))
    return hits


def test_monte_carlo_memory_does_not_grow_with_the_samples():
    # 2**62 + 1 entry indices of 8 base-257 digits: nearly every draw is new
    spec = make_field(257)
    member = irreducibles_up_to(spec, 1).irreducibles(1)[0]
    space = SpaceSpec(spec, 1, 2, 2**62)
    predicate = Predicate.coprime_to(IrreducibleSet(spec, [member]))
    peaks = []
    for samples in (2 * 10**4, 8 * 10**4):
        tracemalloc.start()
        try:
            hits = monte_carlo(space, predicate, samples, seed=5).hits
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert hits == _recount(space, predicate, samples, seed=5)
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("spec,k,n,N", [(F2, 3, 3, 3), (make_field(5), 1, 2, 24)])
def test_monte_carlo_on_the_rank_table_lanes_recounts_through_the_scalar_tester(
    spec, k, n, N, monkeypatch
):
    # k = 3 and p >= 5 unimodular: the local criterion's lanes in Monte
    # Carlo (GF(5): 5 moduli of degree 1, setup 250 <= samples), the
    # scalar elimination or prime-route tester in the recount
    space = SpaceSpec(spec, k, n, N)
    predicate = Predicate.unimodular()
    samples = 2 * CHUNK_SAMPLES + 5
    assert compile_lanes(spec, k, n, "unimodular", None, N).setup <= samples
    with monkeypatch.context() as patched:
        patched.setattr(kernels, "compile_kernel", None)  # every page on the lanes
        hits = monte_carlo(space, predicate, samples, seed=11).hits
    assert 0 < hits < samples
    assert hits == _recount(space, predicate, samples, seed=11)


def test_wrapped_scalar_monte_carlo_holds_about_one_page():
    # GF(509) unimodular takes the wrapped scalar prime tester, on the
    # field's mod-p ring; it keeps the decoded values of one lanes call
    # only, so three times the draws take about the same peak memory
    spec = make_field(509)
    space = SpaceSpec(spec, 1, 2, 2**62)
    predicate = Predicate.unimodular()
    assert compile_lanes(spec, 1, 2, "unimodular", None, space.N) is None
    peaks = []
    for samples in (2 * CHUNK_SAMPLES, 6 * CHUNK_SAMPLES):
        tracemalloc.start()
        try:
            hits = monte_carlo(space, predicate, samples, seed=5).hits
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert hits == _recount(space, predicate, samples, seed=5)
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("spec,N", [(make_field(257), 10**6), (F4, 63)])
def test_wrapped_scalar_monte_carlo_keeps_its_hits_at_every_worker_count(spec, N):
    # GF(257) 2x3 takes the prime route and GF(4) 2x3 the matrix fallback:
    # no lanes serve either, so the wrapped scalar tester tests every page
    space = SpaceSpec(spec, 2, 3, N)
    predicate = Predicate.unimodular()
    assert compile_lanes(spec, 2, 3, "unimodular", None, N) is None
    samples = 2 * CHUNK_SAMPLES + 7
    expected = _recount(space, predicate, samples, seed=17)
    assert 0 < expected < samples
    for workers in (1, 2, 3):
        assert monte_carlo(space, predicate, samples, seed=17, workers=workers).hits == expected


def test_wrapped_scalar_census_merges_residues_past_the_rank_tables():
    # x^10 + x^3 + 1 gives a quotient field of order 1024, past the rank
    # tables: the wrapped tester numbers its residues, so 2048 indices
    # make at most 1024 lane values and the census merges them
    member = irreducibles_up_to(F2, 10).irreducibles(10)[0]
    primes = IrreducibleSet(F2, [member])
    assert compile_lanes(F2, 1, 2, "coprime", primes, 2047) is None
    kernel = choose_kernel(F2, 1, 2, "coprime", primes, 2047, 2048 * 2049 // 2)
    assert kernel.scalar and kernel.setup == 0
    numbers = kernel.lanes(np.arange(2048))
    assert numbers.shape == (1, 2048) and numbers.dtype == np.int64
    assert len(np.unique(numbers)) <= 1024
    assert census_matches_closed_form(2, 1, 2, primes, 2)


@pytest.mark.parametrize("space,predicate,expected", [
    # n > 20: the orderings of 22 columns pass int64
    (SpaceSpec(F2, 1, 22, 1), Predicate.unimodular(), 2**22 - 1),
    # n > 20 and 10**21 matrices
    (SpaceSpec(F2, 1, 21, 9), Predicate.coprime_to(IrreducibleSet(F2, [gen(F2)])),
     closed_form_count(2, 1, 21, IrreducibleSet(F2, [gen(F2)]), 5)),
    # 2**64 matrices on the rank-table lanes
    (SpaceSpec(F2, 2, 2, 2**16 - 1), Predicate.coprime_to(IrreducibleSet(F2, [gen(F2)])),
     closed_form_count(2, 2, 2, IrreducibleSet(F2, [gen(F2)]), 2**15)),
])
def test_census_weights_stay_exact_past_int64(space, predicate, expected):
    result = exhaustive_census(space, predicate, budget=space.size)
    assert result.hits == expected


def test_monte_carlo_validation():
    space = SpaceSpec(F2, 1, 2, 3)
    predicate = Predicate.unimodular()
    with pytest.raises(ValueError):
        monte_carlo(space, predicate, samples=0, seed=1)
    with pytest.raises(ValueError):
        monte_carlo(space, predicate, samples=10, seed=-1)
    with pytest.raises(ValueError):
        monte_carlo(space, predicate, samples=10, seed=1 << 128)
    big = SpaceSpec(F2, 1, 1, 1 << 63)
    with pytest.raises(ValueError):
        monte_carlo(big, predicate, samples=10, seed=1)


class ScriptedStream:
    """Replays prepared index rows through the generator interface."""

    rng_id = "scripted"

    def __init__(self, rows):
        self.rows = rows
        self.cursor = 0

    def integers(self, low, high, size):
        count, width = size
        block = self.rows[self.cursor : self.cursor + count]
        assert len(block) == count, "script exhausted"
        assert all(len(r) == width for r in block)
        self.cursor += count
        return np.array(block, dtype=np.int64)


def test_monte_carlo_with_scripted_stream_covers_the_space_exactly():
    # feed every tuple of the space once; the estimate must equal the
    # exact census ratio
    x = gen(F2)
    both = IrreducibleSet(F2, [x, x + one(F2)])
    space = SpaceSpec(F2, 1, 2, 3)
    rows = [list(t) for t in itertools.product(range(4), repeat=2)]
    stream = ScriptedStream(rows)

    def factory(seed, page):
        return stream

    factory.rng_id = "scripted"
    result = monte_carlo(
        space, Predicate.coprime_to(both), samples=16, seed=0, stream_factory=factory
    )
    assert result.hits == 9
    assert result.estimate == Fraction(9, 16)
    assert result.rng_id == "scripted"


@pytest.mark.parametrize("spec,k,n,N,predicate", [
    (F2, 2, 2, 3, Predicate.unimodular()),
    (F3, 2, 3, 2, Predicate.unimodular()),
    (F3, 2, 2, 8, Predicate.coprime_to(IrreducibleSet(F3, [gen(F3), gen(F3) + one(F3)]))),
])
def test_monte_carlo_over_every_tuple_equals_the_census(spec, k, n, N, predicate):
    # every tuple of the space once, in pages through the batch testers
    space = SpaceSpec(spec, k, n, N)
    assert compile_lanes(spec, k, n, predicate.kind, predicate.payload, N) is not None
    rows = [list(t) for t in itertools.product(range(N + 1), repeat=k * n)]
    stream = ScriptedStream(rows)
    result = monte_carlo(
        space, predicate, samples=len(rows), seed=0, stream_factory=lambda seed, page: stream
    )
    assert stream.cursor == len(rows) == space.size
    assert result.hits == exhaustive_census(space, predicate).hits


def test_monte_carlo_scripted_stream_rejects_workers():
    space = SpaceSpec(F2, 1, 2, 3)
    with pytest.raises(ValueError):
        monte_carlo(
            space,
            Predicate.unimodular(),
            samples=4,
            seed=0,
            workers=2,
            stream_factory=lambda seed, page: None,
        )


def test_wilson_halfwidth():
    # symmetric around half, shrinks with more samples, max at p = 1/2
    mid = wilson_halfwidth(500, 1000)
    assert wilson_halfwidth(100, 1000) == pytest.approx(wilson_halfwidth(900, 1000))
    assert wilson_halfwidth(500, 4000) < mid
    assert wilson_halfwidth(999, 1000) < mid
    assert 0.0 < wilson_halfwidth(0, 10) < 1.0
    with pytest.raises(ValueError):
        wilson_halfwidth(5, 0)
    with pytest.raises(ValueError):
        wilson_halfwidth(11, 10)
    # frozen spot value: z=2.5758..., 500/1000
    assert mid == pytest.approx(0.04056, abs=1e-4)


# ---------------------------------------------------------------------------
# closed-form counts


def test_closed_form_count_examples():
    x = gen(F2)
    assert closed_form_count(2, 1, 2, IrreducibleSet(F2, [x]), 1) == 3
    both = IrreducibleSet(F2, [x, x + one(F2)])
    assert closed_form_count(2, 1, 2, both, 1) == 9
    assert closed_form_count(2, 2, 2, IrreducibleSet(F2, [x]), 1) == 6
    assert closed_form_count(2, 1, 2, IrreducibleSet(F2, [x]), 2) == 12


def test_closed_form_count_validation():
    with pytest.raises(ValueError):
        closed_form_count(2, 1, 2, IrreducibleSet(F2), 1)  # empty set
    with pytest.raises(ValueError):
        closed_form_count(3, 1, 2, IrreducibleSet(F2, [gen(F2)]), 1)
    with pytest.raises(ValueError):
        closed_form_count(2, 1, 2, IrreducibleSet(F2, [gen(F2)]), 0)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("k,n", [(1, 1), (1, 2), (2, 2)])
@pytest.mark.parametrize("multiplier", [1, 2])
def test_census_matches_closed_form_grid(q, k, n, multiplier):
    spec = {2: F2, 3: F3}[q]
    x = gen(spec)
    table = irreducibles_up_to(spec, 1)
    singles = list(table.irreducibles(1))
    for primes in (IrreducibleSet(spec, [x]), IrreducibleSet(spec, singles[:2])):
        assert census_matches_closed_form(q, k, n, primes, multiplier)


def test_census_matches_closed_form_degree_two_member():
    x = gen(F2)
    f = x * x + x + one(F2)
    assert census_matches_closed_form(2, 1, 2, IrreducibleSet(F2, [f]), 1)


# ---------------------------------------------------------------------------
# convergence reports


def test_convergence_report_exhaustive():
    rows = convergence_report(2, 1, 2, [1, 3, 7])
    assert [r["ratio"] for r in rows] == ["3/4", "9/16", "33/64"]
    assert all(r["theory"] == "1/2" for r in rows)
    gaps = [Fraction(r["gap"]) for r in rows]
    assert gaps == [Fraction(1, 4), Fraction(1, 16), Fraction(1, 64)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert [r["N"] for r in rows] == [1, 3, 7]


def test_convergence_report_square_case():
    rows = convergence_report(2, 2, 2, [1, 3])
    assert all(r["theory"] == "0/1" for r in rows)


def test_convergence_report_mc_mode():
    rows = convergence_report(
        2, 1, 2, [15, 63], mode="mc", samples=2000, seed=5
    )
    assert len(rows) == 2
    assert all(r["samples"] == 2000 for r in rows)
    assert [r["seed"] for r in rows] == [5, 6]  # per-point seeds
    assert all(r["rng_id"] == RNG_ID for r in rows)
    again = convergence_report(2, 1, 2, [15, 63], mode="mc", samples=2000, seed=5)
    assert [r["hits"] for r in rows] == [r["hits"] for r in again]


def test_convergence_report_validation():
    with pytest.raises(ValueError):
        convergence_report(2, 1, 2, [])
    with pytest.raises(ValueError):
        convergence_report(2, 1, 2, [3, 1])
    with pytest.raises(ValueError):
        convergence_report(2, 1, 2, [3, 3])
    with pytest.raises(ValueError):
        convergence_report(2, 1, 2, [1, 3], mode="mc")  # samples/seed missing
    with pytest.raises(ValueError):
        convergence_report(2, 1, 2, [1, 3], mode="other")


# ---------------------------------------------------------------------------
# CSV rows


def test_result_rows_and_csv_format():
    space = SpaceSpec(F2, 1, 2, 3)
    census = exhaustive_census(space, Predicate.unimodular())
    assert isinstance(census, CensusResult)
    row = census.to_row(theory=Fraction(1, 2))
    assert list(row.keys()) == CSV_COLUMNS
    assert row["ratio"] == "9/16"
    assert row["gap"] == "1/16"
    assert row["samples"] == ""

    mc = monte_carlo(space, Predicate.unimodular(), samples=64, seed=3)
    assert isinstance(mc, MCEstimate)
    mc_row = mc.to_row()
    assert mc_row["theory"] == "" and mc_row["gap"] == ""
    assert mc_row["seed"] == 3 and mc_row["rng_id"] == RNG_ID

    sink = io.StringIO()
    write_rows_csv([row, mc_row], sink)
    lines = sink.getvalue().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    assert lines[1].startswith("2,2,1,1,2,3,unimodular,9,16,9/16,1/2,1/16")
