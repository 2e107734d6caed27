"""Censuses, Monte Carlo estimation, and convergence reports.

The sample space is the set of k x n matrices whose entries have
enumeration index at most N (equivalently: the first N+1 polynomials),
so it holds (N+1)**(k*n) matrices.  Exhaustive censuses walk all of
them; Monte Carlo draws entry indices uniformly.

Reproducibility contract: randomness comes from the counter-based
Philox generator, keyed by the user's seed, with one counter page per
1024-sample chunk.  Chunk c always produces the same draws no matter
how chunks are distributed over worker processes, so census and
estimate results depend only on (parameters, seed), never on the worker
count.  Every estimate records the generator identity string alongside
the seed.

Row schema: every census or estimate can be flattened to one dict with
the fixed column set in CSV_COLUMNS, used verbatim for CSV output and
mirrored in JSON.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _cartesian

import numpy as np

from .density import as_ratio_string, density_unimodular
from .errors import BudgetExceededError
from .gf import FieldSpec, field_from_order
from .kernels import compile_kernel, matrix_predicate
from .matrix import IrreducibleSet, PolyMatrix, count_full_rank
from .poly import Poly, is_irreducible, poly_from_index, poly_to_string

DEFAULT_CENSUS_BUDGET = 10**8
CHUNK_SAMPLES = 1024
RNG_ID = "philox4x64/pages1024"

# two-sided 99% standard normal quantile, for Wilson score intervals
Z99 = 2.5758293035489004

CSV_COLUMNS = [
    "q",
    "p",
    "e",
    "k",
    "n",
    "N",
    "predicate",
    "hits",
    "total",
    "ratio",
    "theory",
    "gap",
    "samples",
    "seed",
    "rng_id",
    "ci",
]


@dataclass(frozen=True)
class SpaceSpec:
    """The space of k x n matrices with entry indices in [0, N]."""

    field: FieldSpec
    k: int
    n: int
    N: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.k > self.n:
            raise ValueError(f"need k <= n, got k={self.k}, n={self.n}")
        if self.N < 0:
            raise ValueError(f"N must be nonnegative, got {self.N}")

    @property
    def size(self) -> int:
        return (self.N + 1) ** (self.k * self.n)


@dataclass(frozen=True)
class Predicate:
    """One of the three matrix predicates a census can count.

    kind "unimodular": maximal minors coprime.
    kind "coprime": minor gcd nonzero and coprime to every member of
    ``primes`` (payload: IrreducibleSet).
    kind "divisible": ``poly`` divides the minor gcd (payload: a monic
    irreducible; a zero gcd counts as divisible).
    """

    kind: str
    primes: IrreducibleSet | None = None
    poly: Poly | None = None

    def __post_init__(self):
        if self.kind == "unimodular":
            if self.primes is not None or self.poly is not None:
                raise ValueError("the unimodular predicate carries no payload")
        elif self.kind == "coprime":
            if not isinstance(self.primes, IrreducibleSet) or self.poly is not None:
                raise ValueError("the coprime predicate needs an IrreducibleSet")
        elif self.kind == "divisible":
            if self.primes is not None or not isinstance(self.poly, Poly):
                raise ValueError("the divisible predicate needs a polynomial")
            if not is_irreducible(self.poly):
                raise ValueError("the divisible predicate needs a monic irreducible")
        else:
            raise ValueError(f"unknown predicate kind {self.kind!r}")

    @classmethod
    def unimodular(cls) -> "Predicate":
        return cls("unimodular")

    @classmethod
    def coprime_to(cls, primes: IrreducibleSet) -> "Predicate":
        return cls("coprime", primes=primes)

    @classmethod
    def divisible_by(cls, poly: Poly) -> "Predicate":
        return cls("divisible", poly=poly)

    @property
    def payload(self):
        if self.kind == "coprime":
            return self.primes
        if self.kind == "divisible":
            return self.poly
        return None

    def label(self) -> str:
        if self.kind == "unimodular":
            return "unimodular"
        if self.kind == "coprime":
            inner = ";".join(poly_to_string(f) for f in self.primes)
            return f"coprime[{inner}]"
        return f"divisible[{poly_to_string(self.poly)}]"


def predicate_holds(a: PolyMatrix, predicate: Predicate) -> bool:
    """Evaluate a predicate on one matrix through the reference route."""
    return matrix_predicate(a, predicate.kind, predicate.payload)


def _base_row(space: SpaceSpec, predicate: Predicate) -> dict:
    return {
        "q": space.field.q,
        "p": space.field.p,
        "e": space.field.e,
        "k": space.k,
        "n": space.n,
        "N": space.N,
        "predicate": predicate.label(),
        "hits": "",
        "total": "",
        "ratio": "",
        "theory": "",
        "gap": "",
        "samples": "",
        "seed": "",
        "rng_id": "",
        "ci": "",
    }


@dataclass(frozen=True)
class CensusResult:
    """Exact count of predicate holders over a whole space."""

    space: SpaceSpec
    predicate: Predicate
    hits: int
    total: int
    ratio: Fraction

    def to_row(self, theory: Fraction | None = None) -> dict:
        row = _base_row(self.space, self.predicate)
        row["hits"] = self.hits
        row["total"] = self.total
        row["ratio"] = as_ratio_string(self.ratio)
        if theory is not None:
            row["theory"] = as_ratio_string(theory)
            row["gap"] = as_ratio_string(abs(self.ratio - theory))
        return row


@dataclass(frozen=True)
class MCEstimate:
    """A seeded Monte Carlo estimate with its Wilson 99% half-width."""

    space: SpaceSpec
    predicate: Predicate
    samples: int
    hits: int
    estimate: Fraction
    ci_half_width: float
    seed: int
    rng_id: str

    def to_row(self, theory: Fraction | None = None) -> dict:
        row = _base_row(self.space, self.predicate)
        row["hits"] = self.hits
        row["total"] = self.space.size
        row["ratio"] = as_ratio_string(self.estimate)
        row["samples"] = self.samples
        row["seed"] = self.seed
        row["rng_id"] = self.rng_id
        row["ci"] = self.ci_half_width
        if theory is not None:
            row["theory"] = as_ratio_string(theory)
            row["gap"] = as_ratio_string(abs(self.estimate - theory))
        return row


def wilson_halfwidth(hits: int, samples: int, z: float = Z99) -> float:
    """Half-width of the Wilson score interval around hits/samples."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if hits < 0 or hits > samples:
        raise ValueError("hits must lie in [0, samples]")
    share = hits / samples
    denom = 1.0 + z * z / samples
    return (z / denom) * math.sqrt(
        share * (1.0 - share) / samples + z * z / (4.0 * samples * samples)
    )


# ---------------------------------------------------------------------------
# Sampling.

_MAX_SAMPLING_BOUND = 1 << 63  # numpy integer sampling works on int64


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if seed < 0 or seed >= 1 << 128:
        raise ValueError("seed must be a nonnegative integer below 2**128")
    return seed


def _default_stream(seed: int, page: int):
    """The Philox generator positioned on one counter page."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, page]))


def sample_matrix(space: SpaceSpec, rng) -> PolyMatrix:
    """One uniform matrix from the space, drawn row-major from ``rng``."""
    if space.N + 1 > _MAX_SAMPLING_BOUND:
        raise ValueError(f"sampling supports N + 1 up to {_MAX_SAMPLING_BOUND}")
    grid = rng.integers(0, space.N + 1, size=(space.k, space.n))
    return PolyMatrix(
        space.field,
        [
            [poly_from_index(space.field, int(v)) for v in row]
            for row in grid.tolist()
        ],
    )


# ---------------------------------------------------------------------------
# Work units: prefix groups for censuses, counter pages for Monte Carlo.


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def _pool_size(workers: int, units: int) -> int:
    """Processes to start for ``units`` non-empty work units."""
    return min(workers, os.cpu_count() or 1, units)


def _sum_units(run_unit, units, workers: int) -> int:
    """Sum ``run_unit`` over the work units, in this process or a pool.

    The units are fixed by the caller, so the sum is the same for every
    pool size.
    """
    if workers == 1:
        return sum(map(run_unit, units))
    with ProcessPoolExecutor(max_workers=_pool_size(workers, len(units))) as pool:
        return sum(pool.map(run_unit, units))


# ---------------------------------------------------------------------------
# Exhaustive censuses.


def _census_prefix_hits(args) -> int:
    spec, k, n, N, kind, payload, prefixes = args
    _, decode, test = compile_kernel(spec, k, n, kind, payload)
    values = range(N + 1) if decode is None else [decode(v) for v in range(N + 1)]
    heads = [values[v] for v in prefixes]
    return sum(map(test, _cartesian(heads, *[values] * (k * n - 1))))


def exhaustive_census(
    space: SpaceSpec,
    predicate: Predicate,
    budget: int | None = None,
    workers: int = 1,
) -> CensusResult:
    """Count predicate holders over the whole space, exactly.

    Refuses to start when the space size exceeds the budget
    (DEFAULT_CENSUS_BUDGET unless overridden).  The space is split on
    the first entry index into ``workers`` prefix groups, run on at most
    as many processes as there are CPUs and non-empty groups; the count
    is identical to the serial one by construction.
    """
    _check_workers(workers)
    if budget is None:
        budget = DEFAULT_CENSUS_BUDGET
    total = space.size
    if total > budget:
        raise BudgetExceededError(
            f"census would evaluate {total} matrices, budget is {budget}"
        )
    prefix = (space.field, space.k, space.n, space.N, predicate.kind, predicate.payload)
    units = [
        prefix + (range(w, space.N + 1, workers),)
        for w in range(min(workers, space.N + 1))
    ]
    hits = _sum_units(_census_prefix_hits, units, workers)
    return CensusResult(
        space=space,
        predicate=predicate,
        hits=hits,
        total=total,
        ratio=Fraction(hits, total),
    )


# ---------------------------------------------------------------------------
# Monte Carlo.


def _page_plan(samples: int) -> list[tuple[int, int]]:
    """(page, count) pairs covering ``samples`` draws in CHUNK_SAMPLES chunks."""
    pages = []
    full, rest = divmod(samples, CHUNK_SAMPLES)
    for page in range(full):
        pages.append((page, CHUNK_SAMPLES))
    if rest:
        pages.append((full, rest))
    return pages


def _mc_pages_hits(args) -> int:
    """Hits over the given counter pages.

    Each page's distinct draws are decoded once into a memo shared by
    all pages, so memory follows the number of distinct draws, not N.
    """
    spec, k, n, N, kind, payload, seed, pages, stream_factory = args
    _, decode, test = compile_kernel(spec, k, n, kind, payload)
    memo = {}
    hits = 0
    for page, count in pages:
        rng = stream_factory(seed, page)
        draws = np.asarray(rng.integers(0, N + 1, size=(count, k * n)))
        if decode is None:
            rows = draws.tolist()
        else:
            distinct, inverse = np.unique(draws, return_inverse=True)
            distinct = distinct.tolist()
            for v in distinct:
                if v not in memo:
                    memo[v] = decode(v)
            decoded = np.fromiter(
                (memo[v] for v in distinct), dtype=object, count=len(distinct)
            )
            rows = decoded[inverse].reshape(draws.shape).tolist()
        hits += sum(map(test, rows))
    return hits


def monte_carlo(
    space: SpaceSpec,
    predicate: Predicate,
    samples: int,
    seed: int,
    workers: int = 1,
    stream_factory=None,
) -> MCEstimate:
    """Estimate the predicate share from ``samples`` uniform draws.

    Draw c*CHUNK_SAMPLES + i always comes from counter page c of the
    seed-keyed Philox stream, so the hit count is a pure function of
    (space, predicate, samples, seed) regardless of ``workers``: the
    pages are dealt into ``workers`` units, run on at most as many
    processes as there are CPUs and non-empty units.  A custom
    ``stream_factory(seed, page)`` replaces the generator (for tests);
    that path is single-process only.
    """
    samples = int(samples)
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    seed = _check_seed(seed)
    _check_workers(workers)
    if space.N + 1 > _MAX_SAMPLING_BOUND:
        raise ValueError(f"sampling supports N + 1 up to {_MAX_SAMPLING_BOUND}")
    if stream_factory is None:
        stream_factory, rng_id = _default_stream, RNG_ID
    elif workers > 1:
        raise ValueError("custom stream factories run with workers=1 only")
    else:
        rng_id = getattr(stream_factory, "rng_id", "custom")

    pages = _page_plan(samples)
    prefix = (space.field, space.k, space.n, space.N, predicate.kind, predicate.payload,
              seed)
    units = [
        prefix + (pages[w::workers], stream_factory)
        for w in range(min(workers, len(pages)))
    ]
    hits = _sum_units(_mc_pages_hits, units, workers)
    return MCEstimate(
        space=space,
        predicate=predicate,
        samples=samples,
        hits=hits,
        estimate=Fraction(hits, samples),
        ci_half_width=wilson_halfwidth(hits, samples),
        seed=seed,
        rng_id=rng_id,
    )


# ---------------------------------------------------------------------------
# Closed-form cross-checks and convergence reports.


def closed_form_count(
    q: int, k: int, n: int, primes: IrreducibleSet, multiplier: int
) -> int:
    """Exact holder count for the coprime predicate on an aligned space.

    When N + 1 = multiplier * q**primes.degree, the space splits into
    residue classes modulo the member product, and the count of matrices
    whose minor gcd avoids every member is

        multiplier**(k*n) * product over members f of
        count_full_rank(q**deg(f), k, n).
    """
    multiplier = int(multiplier)
    if multiplier < 1:
        raise ValueError(f"multiplier must be at least 1, got {multiplier}")
    if len(primes) == 0:
        raise ValueError("closed-form count needs a nonempty irreducible set")
    if primes.spec.q != q:
        raise ValueError(
            f"irreducible set lives over GF({primes.spec.q}), not GF({q})"
        )
    out = multiplier ** (k * n)
    for f in primes:
        out *= count_full_rank(q**f.degree, k, n)
    return out


def census_matches_closed_form(
    q: int,
    k: int,
    n: int,
    primes: IrreducibleSet,
    multiplier: int,
    budget: int | None = None,
    workers: int = 1,
) -> bool:
    """Exhaustively census the coprime predicate on the aligned space.

    The space bound is N = multiplier * q**primes.degree - 1; returns
    True iff the census count equals :func:`closed_form_count` exactly.
    """
    expected = closed_form_count(q, k, n, primes, multiplier)
    spec = primes.spec
    bound = multiplier * q**primes.degree - 1
    space = SpaceSpec(spec, k, n, bound)
    result = exhaustive_census(
        space, Predicate.coprime_to(primes), budget=budget, workers=workers
    )
    return result.hits == expected


def convergence_report(
    q: int,
    k: int,
    n: int,
    schedule,
    mode: str = "exhaustive",
    samples: int | None = None,
    seed: int | None = None,
    workers: int = 1,
    budget: int | None = None,
) -> list[dict]:
    """Measured unimodular share against the closed-form density.

    ``schedule`` is a strictly increasing list of space bounds N.  Mode
    "exhaustive" censuses each space; mode "mc" estimates with
    ``samples`` draws per point, seeding point i with seed + i (so the
    points are independent but the whole report is reproducible).
    Returns one row dict per point, in schedule order.
    """
    schedule = [int(v) for v in schedule]
    if not schedule:
        raise ValueError("schedule must not be empty")
    if any(b < a for a, b in zip(schedule, schedule[1:])) or len(set(schedule)) != len(
        schedule
    ):
        raise ValueError("schedule must be strictly increasing")
    if any(v < 0 for v in schedule):
        raise ValueError("schedule entries must be nonnegative")
    if mode not in ("exhaustive", "mc"):
        raise ValueError(f"mode must be 'exhaustive' or 'mc', got {mode!r}")
    if mode == "mc":
        if samples is None or seed is None:
            raise ValueError("mc mode needs both samples and seed")
        seed = _check_seed(seed)

    spec = field_from_order(q)
    theory = density_unimodular(q, k, n)
    predicate = Predicate.unimodular()
    rows = []
    for i, bound in enumerate(schedule):
        space = SpaceSpec(spec, k, n, bound)
        if mode == "exhaustive":
            result = exhaustive_census(space, predicate, budget=budget, workers=workers)
        else:
            result = monte_carlo(
                space,
                predicate,
                samples=samples,
                seed=(seed + i) % (1 << 128),
                workers=workers,
            )
        rows.append(result.to_row(theory=theory))
    return rows


def write_rows_csv(rows, sink):
    """Write row dicts (as produced by to_row) to a file-like sink."""
    writer = csv.DictWriter(sink, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
