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
import functools
import math
import multiprocessing.connection
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .density import as_ratio_string, density_unimodular
from .errors import BudgetExceededError
from .gf import FieldSpec, field_from_order
from .kernels import choose_kernel, matrix_predicate
from .matrix import IrreducibleSet, PolyMatrix, count_full_rank
from .poly import Poly, is_irreducible, poly_to_string

DEFAULT_CENSUS_BUDGET = 10**8
CENSUS_PAGE_ROWS = 4096
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


def _base_row(
    space: SpaceSpec,
    predicate: Predicate,
    hits: int,
    ratio: Fraction,
    theory: Fraction | None,
) -> dict:
    """A row in CSV_COLUMNS order, with the sampling columns blank."""
    field = space.field
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(q=field.q, p=field.p, e=field.e, k=space.k, n=space.n, N=space.N)
    row.update(predicate=predicate.label(), hits=hits, total=space.size)
    row["ratio"] = as_ratio_string(ratio)
    if theory is not None:
        row["theory"] = as_ratio_string(theory)
        row["gap"] = as_ratio_string(abs(ratio - theory))
    return row


@dataclass(frozen=True)
class CensusResult:
    """Exact count of predicate holders over a whole space."""

    space: SpaceSpec
    predicate: Predicate
    hits: int
    total: int
    ratio: Fraction

    def to_row(self, theory: Fraction | None = None) -> dict:
        return _base_row(self.space, self.predicate, self.hits, self.ratio, theory)


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
        row = _base_row(self.space, self.predicate, self.hits, self.estimate, theory)
        row.update(samples=self.samples, seed=self.seed, rng_id=self.rng_id)
        row["ci"] = self.ci_half_width
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


def _page_streams(seed: int):
    """page -> the seed's generator on that counter page, one generator for all.

    Each call gives the one bit generator the state of a fresh
    ``_default_stream(seed, page)`` (its counter, an empty buffer), so
    the draws are the same, and returns the same Generator: a stream
    from an earlier call moves to the new page.
    """
    bits = np.random.Philox(key=seed)
    rng = np.random.Generator(bits)
    state = bits.state
    counter = state["state"]["counter"]

    def on_page(page: int):
        counter[3] = page
        bits.state = state
        return rng

    return on_page


def sample_matrix(space: SpaceSpec, rng) -> PolyMatrix:
    """One uniform matrix from the space, drawn row-major from ``rng``."""
    if space.N + 1 > _MAX_SAMPLING_BOUND:
        raise ValueError(f"sampling supports N + 1 up to {_MAX_SAMPLING_BOUND}")
    grid = rng.integers(0, space.N + 1, size=(space.k, space.n))
    return PolyMatrix.from_indices(space.field, grid.tolist())


# ---------------------------------------------------------------------------
# Work units: first columns of the column multisets for censuses,
# counter pages for Monte Carlo.


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def _pool_size(workers: int, units: int) -> int:
    """Processes to start for ``units`` non-empty work units: at most the usable CPUs."""
    cpus = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):  # its mask can hold fewer than cpu_count
        cpus = min(cpus, len(os.sched_getaffinity(0)))
    return min(workers, cpus, units)


# This process's pool, made on first need and reused: (pid, executor,
# processes), or None.
_pool = None


def _exit_with_parent() -> None:
    """Pool initializer: end this worker as soon as its maker dies."""
    sentinel = multiprocessing.parent_process().sentinel

    def watch():
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _shared_pool(size: int) -> tuple[ProcessPoolExecutor, bool]:
    """This process's pool of at least ``size`` processes, and whether it is new.

    A pool made by another process (the parent of a fork) is never used.
    A pool too small is shut down, waiting for its threads, before the
    bigger one forks.
    """
    global _pool
    pid = os.getpid()
    if _pool is not None and _pool[0] == pid:
        if _pool[2] >= size:
            return _pool[1], False
        _pool[1].shutdown(wait=True)
    executor = ProcessPoolExecutor(max_workers=size, initializer=_exit_with_parent)
    _pool = (pid, executor, size)
    return executor, True


def _drop_pool() -> None:
    """Forget this process's pool, cancelling what it has not started."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None and pool[0] == os.getpid():
        pool[1].shutdown(wait=False, cancel_futures=True)


def _sum_units(run_unit, units, workers: int) -> int:
    """Sum ``run_unit`` over the work units, in this process or its pool.

    The units are fixed by the caller, so the sum is the same for every
    pool size.  Where one process would run them all, they run here.
    Otherwise they run on the process pool that this process keeps for
    every later call: the first call pays its start, and a call that
    needs more processes than it has replaces it.  Any exception out of
    the pool (a unit that raises, a killed worker, an interrupt) drops
    it and is raised again, so the next call makes a fresh pool; only a
    pool kept from an earlier call that turns out broken (a worker died
    between calls) is replaced at once, and the units run on the new
    one.  The workers exit with the process that made them.  They see
    this module as it was when the pool forked: the units carry all
    their inputs, but a module global patched later is not seen by the
    workers.
    """
    size = _pool_size(workers, len(units))
    if size == 1:
        return sum(map(run_unit, units))
    pool, fresh = _shared_pool(size)
    try:
        return sum(pool.map(run_unit, units))
    except BaseException as exc:
        _drop_pool()
        if fresh or not isinstance(exc, BrokenProcessPool):
            raise
    return _sum_units(run_unit, units, workers)  # on a fresh pool


# ---------------------------------------------------------------------------
# Exhaustive censuses.


def _multisets(values: int, k: int, n: int) -> int:
    """How many column multisets a census of ``values`` entry values tests.

    For n = 1 the census streams the N + 1 indices unmerged: pass N + 1.
    """
    return values if n == 1 else math.comb(values**k + n - 1, n)


# Largest n whose orderings n!/prod(runs!) int64 holds: each step
# multiplies by at most n, and 20! < 2**63 < 21!.  Past it, or for a space
# of 2**63 matrices or more, census weights are Python ints.
_LANE_ORDERINGS_N = 20


def _census_unit_hits(args) -> int:
    """Hits over the column multisets whose first column is in this unit.

    Every predicate is unchanged when the columns are permuted, so each
    multiset of n columns is tested once, weighted by its orderings.
    Entry indices whose lane values are equal are merged, each distinct
    value weighted by its count; a column (k values) weighs the product
    of its entries' counts.  Columns are ordered, and the unit takes the
    multisets whose first column is ``unit``, ``unit + units``, ...
    A 1 x 1 matrix is its own multiset, so for n = 1 the unit streams
    the indices ``unit``, ``unit + units``, ... and holds none of them.

    The multisets are tested in pages (:func:`_census_pages_hits`) by
    :func:`fqx.kernels.choose_kernel`'s kernel: the batch lanes where
    they serve the space and its unmerged multisets reach their
    ``setup``, else the wrapped scalar tester.  Merging never moves that
    choice: ``setup`` is nonzero only for the local criterion over
    GF(p), whose residues outnumber the N + 1 indices.
    """
    spec, k, n, N, kind, payload, unit, units = args
    kernel = choose_kernel(spec, k, n, kind, payload, N, _multisets(N + 1, k, n))
    return _census_pages_hits(kernel, k, n, N, unit, units)


def _census_pages_hits(kernel, k, n, N, unit, units) -> int:
    """:func:`_census_unit_hits` through a lane kernel, a page at a time.

    For n = 1 the pages are slices of ``unit``, ``unit + units``, ...
    Otherwise ``range(N + 1)`` goes through ``kernel.lanes`` once, equal
    lane values merge into one value with a count, and a column is k
    value numbers.  A page is a (rows, n) array of column multisets
    (:func:`_column_multisets`); its entries, row-major, index the merged
    lane values, and a held row adds its orderings times the product of
    its entries' counts.  Every weight is at most the space size, so the
    weights are int64 below 2**63 matrices and n <= ``_LANE_ORDERINGS_N``,
    and Python ints otherwise; each page's sum becomes a Python int.
    """
    if n == 1:
        hits = 0
        stride = units * CENSUS_PAGE_ROWS
        for lo in range(unit, N + 1, stride):
            entries = np.arange(lo, min(lo + stride, N + 1), units)
            hits += int(kernel.test(kernel.lanes(entries[:, None])).sum())
        return hits
    fits = n <= _LANE_ORDERINGS_N and (N + 1) ** (k * n) < 1 << 63
    dtype = np.int64 if fits else object
    values, counts = _distinct_columns(kernel.lanes(np.arange(N + 1)))
    distinct = values.shape[1]
    columns = np.indices((distinct,) * k).reshape(k, -1)  # value numbers, cartesian order
    weights = None if distinct == N + 1 else counts.astype(dtype)[columns].prod(axis=0)
    hits = 0
    for picks in _column_multisets(np.arange(unit, columns.shape[1], units), columns.shape[1], n):
        entries = columns[:, picks].transpose(1, 0, 2).reshape(len(picks), k * n)
        held = kernel.test(values[:, entries])
        weight = _orderings(picks, dtype)
        if weights is not None:
            weight *= weights[picks].prod(axis=1)
        hits += int(weight[held].sum())
    return hits


def _distinct_columns(lanes):
    """The distinct columns of ``lanes`` (planes, count) and how often each occurs.

    Columns are told apart by one mixed-radix int64 key where it fits,
    built in int64 whatever the lanes' dtype.
    """
    key, scale = 0, 1
    for plane in lanes:
        top = int(plane.max()) + 1
        if scale * top >= 1 << 63:
            return np.unique(lanes, axis=1, return_counts=True)
        key = key + plane.astype(np.int64) * scale
        scale *= top
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    return lanes[:, first], counts


def _column_multisets(firsts, columns: int, n: int):
    """The sorted n-multisets of ``range(columns)`` with first column in ``firsts``.

    Yields (rows, n) int64 pages of non-decreasing rows, at most
    ``CENSUS_PAGE_ROWS`` rows each.  Blocks of prefixes grow one column
    at a time: each prefix is repeated once for every column >= its
    last, which is appended by offsets.  A block grows only as many
    prefixes as fit in a page, so a block holds at most a page or, for
    one prefix, ``columns`` rows.
    """
    blocks = [np.asarray(firsts, dtype=np.int64)[:, None]]
    while blocks:
        block = blocks.pop()
        if not len(block):
            continue
        if block.shape[1] == n:
            for lo in range(0, len(block), CENSUS_PAGE_ROWS):
                yield block[lo : lo + CENSUS_PAGE_ROWS]
            continue
        last = block[:, -1]
        grown = columns - last
        ends = np.cumsum(grown)
        take = max(int(np.searchsorted(ends, CENSUS_PAGE_ROWS, side="right")), 1)
        if take < len(block):
            blocks.append(block[take:])
        starts = np.repeat(ends[:take] - grown[:take] - last[:take], grown[:take])
        tail = np.arange(ends[take - 1]) - starts
        blocks.append(np.column_stack((np.repeat(block[:take], grown[:take], axis=0), tail)))


def _orderings(picks, dtype=np.int64):
    """n!/prod(run lengths)! for each sorted row: its distinct column orders.

    Built left to right, the running product after j + 1 columns is the
    orderings count of that prefix, so every step is exact in int64 for
    n <= ``_LANE_ORDERINGS_N``; ``dtype`` object counts in Python ints.
    """
    orderings = np.ones(len(picks), dtype=dtype)
    run = np.ones(len(picks), dtype=np.int64)
    for j in range(1, picks.shape[1]):
        run = np.where(picks[:, j] == picks[:, j - 1], run + 1, 1)
        orderings = orderings * (j + 1) // run
    return orderings


def exhaustive_census(
    space: SpaceSpec,
    predicate: Predicate,
    budget: int | None = None,
    workers: int = 1,
) -> CensusResult:
    """Count predicate holders over the whole space, exactly.

    Refuses to start when the space size exceeds the budget
    (DEFAULT_CENSUS_BUDGET unless overridden); the budget counts all
    (N+1)**(k*n) matrices, although each multiset of n columns is tested
    once (see :func:`_census_unit_hits`), in pages of up to
    ``CENSUS_PAGE_ROWS`` rows, on a batch route of :mod:`fqx.kernels`
    or on the wrapped scalar tester.  The multisets are dealt by their
    first column into u units, one per process that will run them: u is
    the least of ``workers``, N + 1 and the usable CPUs
    (:func:`_pool_size`).  Unit w takes columns w, w + u, w + 2u, ... in
    column order.  The units run in this process when u is one, else on
    the pool this process keeps and reuses (see :func:`_sum_units`).
    The count is identical to the serial one by construction.
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
    count = _pool_size(workers, space.N + 1)
    units = [prefix + (w, count) for w in range(count)]
    hits = _sum_units(_census_unit_hits, units, workers)
    return CensusResult(
        space=space,
        predicate=predicate,
        hits=hits,
        total=total,
        ratio=Fraction(hits, total),
    )


# ---------------------------------------------------------------------------
# Monte Carlo.


def _page_plan(samples: int, pages: range | None = None):
    """Lazy (page, count) pairs covering ``samples`` draws in CHUNK_SAMPLES chunks.

    ``pages`` picks the counter pages to cover (all by default); only the
    last page of the whole plan holds fewer than CHUNK_SAMPLES draws.
    """
    if pages is None:
        pages = range(_page_total(samples))
    return ((page, min(CHUNK_SAMPLES, samples - page * CHUNK_SAMPLES)) for page in pages)


def _page_total(samples: int) -> int:
    return -(-samples // CHUNK_SAMPLES)


def _mc_pages_hits(args) -> int:
    """Hits over the given counter pages (a range).

    The default stream (``stream_factory`` None) is one Philox generator
    for the unit, set on each page's counter in turn (:func:`_page_streams`).
    The pages are tested, in order, by :func:`fqx.kernels.choose_kernel`'s
    kernel for ``samples`` matrices: each lane call takes as many
    consecutive pages of the range as fit ``CENSUS_PAGE_ROWS`` rows (four
    pages of ``CHUNK_SAMPLES``), and at least one; a wrapped scalar
    tester, which holds the decoded values of its last call, takes one
    page a call, so memory stays within about a page's draws whatever N
    and ``samples``.  Every draw still comes from its own counter page,
    and the hits are a sum of per-row verdicts, so the grouping does not
    change them.
    """
    spec, k, n, N, kind, payload, seed, samples, pages, stream_factory = args
    if stream_factory is None:
        on_page = _page_streams(seed)
    else:
        on_page = functools.partial(stream_factory, seed)

    def page_draws(page, count):
        rng = on_page(page)
        return np.asarray(rng.integers(0, N + 1, size=(count, k * n)))

    kernel = choose_kernel(spec, k, n, kind, payload, N, samples)
    group = 1 if kernel.scalar else max(CENSUS_PAGE_ROWS // CHUNK_SAMPLES, 1)
    hits = 0
    for lo in range(0, len(pages), group):
        draws = [page_draws(*plan) for plan in _page_plan(samples, pages[lo : lo + group])]
        hits += int(kernel.test(kernel.lanes(np.concatenate(draws))).sum())
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
    pages are dealt into u units, one per process that will run them: u
    is the least of ``workers``, the pages and the usable CPUs
    (:func:`_pool_size`), and unit w takes pages w, w + u, w + 2u, ...
    The units run in this process when u is one (at most
    ``CHUNK_SAMPLES`` samples make one page, so one unit), else on the
    pool this process keeps and reuses (see :func:`_sum_units`).  A custom
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
        rng_id = RNG_ID
    elif workers > 1:
        raise ValueError("custom stream factories run with workers=1 only")
    else:
        rng_id = getattr(stream_factory, "rng_id", "custom")

    pages = _page_total(samples)
    prefix = (space.field, space.k, space.n, space.N, predicate.kind, predicate.payload,
              seed, samples)
    count = _pool_size(workers, pages)
    units = [prefix + (range(w, pages, count), stream_factory) for w in range(count)]
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
    With ``workers`` > 1 every point runs on the one pool this process
    keeps (see :func:`_sum_units`), so a report starts at most one pool,
    not one per point.  Returns one row dict per point, in schedule
    order.
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
