"""The four benchmark workloads: seeded inputs, fixed job lists, checks.

Each workload is a closed loop with one caller: a round runs its fixed
job list in order, one job at a time, and a job is one public-API call
(for ``algebra``, the calls made on one matrix).  Every input comes from
the ``--seed``; no expected value is fixed in advance.  Outputs are
checked outside the timed calls: the first result of each job against
an independent route, every later result for equality with the first.

Why these workloads:

- ``census`` enumerates whole spaces through every compiled-kernel route
  (GF(2) bitmasks, prime-field tuples, rank tables, matrix fallback),
  so it shows kernel and enumeration-loop work and never touches
  ``density``.  Censuses touch every index, so per-space tables pay off.
- ``sample`` draws a few indices from large ranges, so it shows Philox
  paging, draw conversion, per-draw tester calls and the N-sized table
  builds that sampling wastes; it builds no ``PolyMatrix``.
- ``algebra`` runs one matrix at a time through ``gf``/``poly``/
  ``matrix`` objects (minors, Smith form, rank modulo irreducibles,
  completion) and never touches ``kernels``.
- ``zeta`` computes exact truncated Euler products and closed forms, so
  it shows only big-integer work in ``density``.

A change that grows tables to help ``census`` or decodes lazily to help
``sample`` has to show what it does to the other one.
"""

from __future__ import annotations

import io
import json
import os
import random
import re
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np

import fqx
from fqx.cli import main as cli_main
from fqx.kernels import compile_index_predicate

# jobs that take ``workers`` never ask for more processes than there are CPUs
WORKERS = min(2, os.cpu_count() or 1)

# quotient fields up to this order count as the rank-table route
RANK_TABLE_ORDER = 512


class Job:
    """One call (or, for ``algebra``, one matrix) of a workload round.

    ``run(span)`` makes the timed public-API call(s), opening a span
    around each.  ``key(result)`` is what later rounds must reproduce
    exactly; ``check(result, firsts)`` compares the first result with an
    independent route (``firsts`` maps job labels to first results) and
    returns a failure reason or None.  ``work(result)`` counts the items
    the job contributes to the workload's throughput (None: it counts
    toward none), ``evaluations`` the matrices it makes ``experiment``
    evaluate.
    """

    __slots__ = ("label", "run", "key", "check", "work", "evaluations")

    def __init__(self, label, run, check, key=None, work=None, evaluations=0):
        self.label = label
        self.run = run
        self.check = check
        self.key = key or (lambda result: result)
        self.work = work
        self.evaluations = evaluations


def make_field(q: int, span):
    p, e = fqx.factor_prime_power(q)
    with span("gf.make_field"):
        return fqx.make_field(p, e)


def irreducible_lists(spec, degree: int, span) -> dict[int, tuple]:
    with span("poly.irreducibles_up_to"):
        table = fqx.irreducibles_up_to(spec, degree)
    return {d: table.irreducibles(d) for d in range(1, degree + 1)}


def kernel_route(space, predicate) -> str:
    """The compiled-kernel route a census of ``space`` goes through.

    Derived from (q, e, k, predicate): GF(2) unimodular with k <= 2 uses
    bitmasks, other prime fields with k <= 2 use coefficient tuples,
    coprime/divisible predicates use residue and rank tables when every
    quotient field is small, and the rest build matrices.
    """
    spec, k = space.field, space.k
    if predicate.kind == "unimodular":
        if spec.q == 2 and k <= 2:
            return "bits"
        if spec.e == 1 and k <= 2:
            return "prime"
        return "fallback"
    members = list(predicate.primes) if predicate.kind == "coprime" else [predicate.poly]
    if members and (k == 1 or all(spec.q**f.degree <= RANK_TABLE_ORDER for f in members)):
        return "ranktable"
    return "fallback"


def predicate_argv(predicate) -> list[str]:
    if predicate.kind == "coprime":
        return ["--coprime-to", ";".join(fqx.poly_to_string(f) for f in predicate.primes)]
    if predicate.kind == "divisible":
        return ["--divisible-by", fqx.poly_to_string(predicate.poly)]
    return []


def space_argv(space) -> list[str]:
    return ["--q", str(space.field.q), "--k", str(space.k), "--n", str(space.n),
            "--N", str(space.N)]


def run_cli(argv: list[str], span) -> str:
    """``fqx.cli.main`` in-process with stdout captured; raises on a nonzero exit."""
    sink = io.StringIO()
    with span("cli.main"), redirect_stdout(sink):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"fqx {' '.join(argv)} exited with {code}")
    return sink.getvalue()


def theory_for(space, predicate):
    """The closed form the CLI prints next to a census or estimate row."""
    q, k, n = space.field.q, space.k, space.n
    if predicate.kind == "unimodular":
        return fqx.density_unimodular(q, k, n)
    if predicate.kind == "coprime":
        return fqx.density_coprime_to(q, k, n, predicate.primes)
    if k < n:
        return fqx.divisible_bound(q, k, n, predicate.poly.degree).exact
    return None


def api_row(result) -> dict:
    """A result row as the CLI's JSON output would carry it."""
    return json.loads(json.dumps(result.to_row(theory=theory_for(result.space, result.predicate))))


def reference_disagreement(space, predicate, tuples) -> str | None:
    """Compiled tester against ``predicate_holds`` on the given index tuples."""
    spec, k, n, N = space.field, space.k, space.n, space.N
    tester = compile_index_predicate(spec, k, n, N, predicate.kind, predicate.payload)
    for t in tuples:
        rows = [t[r * n:(r + 1) * n] for r in range(k)]
        expected = fqx.predicate_holds(fqx.PolyMatrix.from_indices(spec, rows), predicate)
        if bool(tester(tuple(t))) != expected:
            return f"tester and predicate_holds disagree on {rows}"
    return None


def aligned_multiplier(space, predicate) -> int | None:
    """m with N + 1 = m * q**deg(product), when the space is aligned."""
    members = list(predicate.primes) if predicate.kind == "coprime" else [predicate.poly]
    modulus = space.field.q ** sum(f.degree for f in members)
    m, rest = divmod(space.N + 1, modulus)
    return m if rest == 0 and m >= 1 else None


class Workload:
    name = ""
    item = ""  # what ``work`` counts, for the report
    jobs: list[Job]


# ---------------------------------------------------------------------------
# census


# (q, k, n, N, predicate kind, member degree); payloads are seeded, and each
# space is labelled with the kernel route ``kernel_route`` derives for it
CENSUS_SPACES = [
    (2, 2, 2, 15, "unimodular", 0),
    (2, 1, 3, 31, "unimodular", 0),
    (2, 1, 2, 255, "unimodular", 0),
    (2, 2, 3, 4, "unimodular", 0),
    (2, 2, 4, 2, "unimodular", 0),
    (3, 2, 2, 8, "unimodular", 0),
    (3, 1, 3, 26, "unimodular", 0),
    (5, 1, 2, 124, "unimodular", 0),
    (3, 1, 2, 120, "unimodular", 0),
    (3, 2, 2, 11, "coprime", 1),
    (3, 3, 3, 2, "coprime", 1),
    (3, 2, 2, 17, "coprime", 2),
    (3, 3, 3, 2, "divisible", 1),
    (3, 2, 2, 8, "divisible", 2),
    (2, 2, 3, 3, "coprime", 2),
    (5, 2, 2, 9, "coprime", 1),
    (4, 1, 2, 31, "unimodular", 0),
    (4, 2, 2, 3, "unimodular", 0),
    (2, 3, 3, 1, "unimodular", 0),
    (3, 3, 3, 1, "unimodular", 0),
    (4, 1, 3, 7, "unimodular", 0),
    (4, 2, 2, 4, "unimodular", 0),
]
# the aligned lemma-check-style census run at ``WORKERS`` processes
CENSUS_LEMMA = (3, 2, 2, 1, 6)  # q, k, n, member degree, multiplier
CENSUS_SUBSAMPLE = 48


class Census(Workload):
    name = "census"
    item = "matrices"

    def __init__(self, seed: int, span):
        rng = random.Random(f"census:{seed}")
        fields = {q: make_field(q, span) for q in (2, 3, 4, 5)}
        irreducibles = {q: irreducible_lists(fields[q], 2, span) for q in (2, 3, 5)}
        self.spaces = []
        for q, k, n, N, kind, degree in CENSUS_SPACES:
            spec = fields[q]
            if kind == "unimodular":
                predicate = fqx.Predicate.unimodular()
            elif kind == "coprime":
                member = rng.choice(irreducibles[q][degree])
                predicate = fqx.Predicate.coprime_to(fqx.IrreducibleSet(spec, [member]))
            else:
                predicate = fqx.Predicate.divisible_by(rng.choice(irreducibles[q][degree]))
            space = fqx.SpaceSpec(spec, k, n, N)
            self.spaces.append((kernel_route(space, predicate), space, predicate))
        # one job per route goes through the command line
        via_cli = set()
        for route in ("bits", "prime", "ranktable", "fallback"):
            members = [i for i, s in enumerate(self.spaces) if s[0] == route]
            via_cli.add(rng.choice(members))
        self.jobs = []
        for i, (route, space, predicate) in enumerate(self.spaces):
            self.jobs.append(self._census_job(i, route, space, predicate, i in via_cli, rng))

        q, k, n, degree, multiplier = CENSUS_LEMMA
        primes = fqx.IrreducibleSet(fields[q], [rng.choice(irreducibles[q][degree])])
        space = fqx.SpaceSpec(fields[q], k, n, multiplier * q**primes.degree - 1)
        self.lemma = (space, fqx.Predicate.coprime_to(primes))
        self.jobs.append(self._lemma_job(q, k, n, primes, multiplier))

    def _census_job(self, i, route, space, predicate, via_cli, rng):
        size = space.size
        width = space.k * space.n
        tuples = [tuple(rng.randrange(space.N + 1) for _ in range(width))
                  for _ in range(CENSUS_SUBSAMPLE)]

        def check_hits(hits, total):
            if total != size or not 0 <= hits <= size:
                return f"hits {hits} of {total} outside a space of {size}"
            if predicate.kind != "unimodular":
                m = aligned_multiplier(space, predicate)
                if m is not None:
                    members = (predicate.primes if predicate.kind == "coprime"
                               else fqx.IrreducibleSet(space.field, [predicate.poly]))
                    coprime = fqx.closed_form_count(space.field.q, space.k, space.n,
                                                    members, m)
                    expected = coprime if predicate.kind == "coprime" else size - coprime
                    if hits != expected:
                        return f"hits {hits}, closed form gives {expected}"
            return reference_disagreement(space, predicate, tuples)

        label = f"census.{route}.{i}"
        if via_cli:
            argv = ["census"] + space_argv(space) + predicate_argv(predicate)

            def run(span):
                return run_cli(argv, span)

            def check(text, firsts):
                row = json.loads(text)
                if row != api_row(fqx.exhaustive_census(space, predicate)):
                    return "CLI row differs from the API row"
                return check_hits(row["hits"], row["total"])

            return Job(label + ".cli", run, check, work=lambda r: size,
                       evaluations=size)

        def run(span):
            with span("experiment.exhaustive_census"):
                return fqx.exhaustive_census(space, predicate)

        return Job(label, run, lambda r, firsts: check_hits(r.hits, r.total),
                   work=lambda r: size, evaluations=size)

    def _lemma_job(self, q, k, n, primes, multiplier):
        space, predicate = self.lemma
        size = space.size

        def run(span):
            with span("experiment.exhaustive_census"):
                return fqx.exhaustive_census(space, predicate, workers=WORKERS)

        def check(result, firsts):
            expected = fqx.closed_form_count(q, k, n, primes, multiplier)
            if result.hits != expected:
                return f"aligned census {result.hits} != closed form {expected}"
            serial = fqx.exhaustive_census(space, predicate, workers=1).hits
            if serial != result.hits:
                return f"workers={WORKERS} count {result.hits} != serial {serial}"
            return None

        return Job(f"census.lemma.workers{WORKERS}", run, check,
                   work=lambda r: size, evaluations=size)


# ---------------------------------------------------------------------------
# sample


# (label, q, k, n, N, predicate kind, samples, estimates per round); a
# coprime predicate gets one seeded degree-1 member, a divisible one a
# seeded degree-2 irreducible
SAMPLE_CONFIGS = [
    ("gf2.1x2", 2, 1, 2, 2**16 - 1, "unimodular", 20000, 2),
    ("gf2.2x2", 2, 2, 2, 2**10 - 1, "unimodular", 20000, 2),
    ("gf3.2x3", 3, 2, 3, 3**6 - 1, "unimodular", 3000, 3),
    ("gf3.1x3.wide", 3, 1, 3, 3**11 - 1, "unimodular", 1000, 1),
    ("gf3.2x2.coprime", 3, 2, 2, 80, "coprime", 40000, 2),
    ("gf3.1x2.divisible", 3, 1, 2, 3**6 - 1, "divisible", 20000, 2),
]
# the estimate repeated at ``WORKERS`` processes, and the ones sent through the CLI
SAMPLE_REPEATED = "gf2.1x2"
SAMPLE_VIA_CLI = ("gf2.2x2", "gf3.2x2.coprime")
SAMPLE_PAGES_CHECKED = 3
SAMPLE_ROWS_CHECKED = 16


def page_draws(space, seed: int, page: int, count: int) -> np.ndarray:
    """Draws of one counter page, per the documented Philox page contract."""
    rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, page]))
    return rng.integers(0, space.N + 1, size=(count, space.k * space.n))


def page_size(rng_id: str) -> int:
    match = re.fullmatch(r"philox4x64/pages(\d+)", rng_id)
    if match is None:
        raise ValueError(f"unknown generator {rng_id!r}")
    return int(match.group(1))


def check_estimate(space, predicate, samples, seed, hits, rng_id, rng) -> str | None:
    """Recount the hits from the regenerated draws; re-evaluate a subsample.

    The recount uses the compiled tester over draws regenerated page by
    page; the subsample goes through ``sample_matrix`` and
    ``predicate_holds``, which share no code with the kernels.
    """
    chunk = page_size(rng_id)
    spec, k, n = space.field, space.k, space.n
    tester = compile_index_predicate(spec, k, n, space.N, predicate.kind, predicate.payload)
    pages = [(c, min(chunk, samples - c * chunk)) for c in range(-(-samples // chunk))]
    recount = 0
    for page, count in pages:
        recount += sum(map(tester, page_draws(space, seed, page, count).tolist()))
    if recount != hits:
        return f"hits {hits}, regenerated draws give {recount}"
    for page, count in rng.sample(pages, min(SAMPLE_PAGES_CHECKED, len(pages))):
        draws = page_draws(space, seed, page, count).tolist()
        stream = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, page]))
        first = fqx.sample_matrix(space, stream)
        if first != fqx.PolyMatrix.from_indices(spec, [draws[0][r * n:(r + 1) * n]
                                                       for r in range(k)]):
            return f"sample_matrix disagrees with the first draw of page {page}"
        for row in rng.sample(draws, min(SAMPLE_ROWS_CHECKED, len(draws))):
            a = fqx.PolyMatrix.from_indices(spec, [row[r * n:(r + 1) * n] for r in range(k)])
            if bool(tester(row)) != fqx.predicate_holds(a, predicate):
                return f"draw {row} of page {page}: tester and predicate_holds disagree"
    return None


class Sample(Workload):
    name = "sample"
    item = "draws"

    def __init__(self, seed: int, span):
        rng = random.Random(f"sample:{seed}")
        fields = {q: make_field(q, span) for q in (2, 3)}
        irreducibles = irreducible_lists(fields[3], 2, span)
        self.configs = {}
        self.jobs = []
        for label, q, k, n, N, kind, samples, count in SAMPLE_CONFIGS:
            space = fqx.SpaceSpec(fields[q], k, n, N)
            if kind == "coprime":
                primes = fqx.IrreducibleSet(fields[q], [rng.choice(irreducibles[1])])
                predicate = fqx.Predicate.coprime_to(primes)
            elif kind == "divisible":
                predicate = fqx.Predicate.divisible_by(rng.choice(irreducibles[2]))
            else:
                predicate = fqx.Predicate.unimodular()
            self.configs[label] = (space, predicate, samples)
            cli_index = rng.randrange(count) if label in SAMPLE_VIA_CLI else None
            for i in range(count):
                mc_seed = rng.getrandbits(64)
                self.jobs.append(self._job(f"sample.{label}.{i}", space, predicate,
                                           samples, mc_seed, 1, i == cli_index, rng))
                if label == SAMPLE_REPEATED and i == 0:
                    self.jobs.append(self._job(
                        f"sample.{label}.{i}.workers{WORKERS}", space, predicate,
                        samples, mc_seed, WORKERS, False, rng,
                        serial_label=f"sample.{label}.{i}"))

    def _job(self, label, space, predicate, samples, mc_seed, workers, via_cli, rng,
             serial_label=None):
        check_rng = random.Random(rng.getrandbits(64))

        def check_result(hits, rng_id):
            return check_estimate(space, predicate, samples, mc_seed, hits, rng_id,
                                  random.Random(check_rng.getrandbits(64)))

        if via_cli:
            argv = (["mc"] + space_argv(space) + predicate_argv(predicate)
                    + ["--samples", str(samples), "--seed", str(mc_seed)])

            def run(span):
                return run_cli(argv, span)

            def check(text, firsts):
                row = json.loads(text)
                api = fqx.monte_carlo(space, predicate, samples, mc_seed)
                if row != api_row(api):
                    return "CLI row differs from the API row"
                return check_result(row["hits"], row["rng_id"])

            return Job(label + ".cli", run, check, work=lambda r: samples,
                       evaluations=samples)

        def run(span):
            with span("experiment.monte_carlo"):
                return fqx.monte_carlo(space, predicate, samples, mc_seed, workers=workers)

        def check(result, firsts):
            if result.samples != samples or result.estimate != Fraction(result.hits, samples):
                return "estimate does not match its own hit count"
            if serial_label is not None:
                serial = firsts.get(serial_label)
                if serial is None or serial.hits != result.hits:
                    return f"workers={workers} hits differ from the serial estimate"
            return check_result(result.hits, result.rng_id)

        return Job(label, run, check, work=lambda r: samples, evaluations=samples)


# ---------------------------------------------------------------------------
# algebra


ALGEBRA_FIELDS = (2, 3, 4)
ALGEBRA_SHAPES = [(k, n) for n in range(1, 5) for k in range(1, n + 1)]
# matrices per (field, shape) in one round; the median job cost moves
# between seeds as one over the square root of it
ALGEBRA_PER_SHAPE = 12
ALGEBRA_ENTRY_DEGREE = 4  # entry indices below q**4
ALGEBRA_MEMBERS = 2  # irreducibles (degree <= 2) each matrix is reduced modulo
# (q, max degree) of the irreducibles_up_to jobs
ALGEBRA_IRREDUCIBLES = [(2, 9), (3, 6), (4, 4)]


def seeded_matrices(fields: dict, rng: random.Random, per_shape: int) -> list:
    """Matrices over each field and shape k <= n <= 4, entries index < q**4.

    The entries of one (field, shape) group are a systematic sample:
    evenly spaced indices from a random start, shuffled.  Each entry is
    still uniform below q**4, but every seed gives each group the same
    mix of entry degrees.  Over twenty seeds this halved the spread
    (quartile distance over median) of the summed job costs, from 5.6%
    with independent entries to 2.7%.
    """
    out = []
    for q in ALGEBRA_FIELDS:
        bound = q**ALGEBRA_ENTRY_DEGREE
        for k, n in ALGEBRA_SHAPES:
            count = per_shape * k * n
            start = rng.random()
            indices = [int((i + start) * bound / count) for i in range(count)]
            rng.shuffle(indices)
            for m in range(0, count, k * n):
                rows = [indices[m + r * n:m + (r + 1) * n] for r in range(k)]
                out.append(fqx.PolyMatrix.from_indices(fields[q], rows))
    return out


def matmul(a, b):
    """Product of two PolyMatrix grids by schoolbook sums of Poly products."""
    spec = a.spec
    return fqx.PolyMatrix(spec, [
        [sum((a.entries[i][t] * b.entries[t][j] for t in range(a.n)), fqx.zero(spec))
         for j in range(b.n)]
        for i in range(a.k)
    ])


def matrix_calls(a, members, span):
    """The object-layer calls one algebra job makes on one matrix."""
    with span("matrix.minors_gcd"):
        g = fqx.minors_gcd(a)
    with span("matrix.smith_invariants"):
        invariants = tuple(fqx.smith_invariants(a))
    ranks = []
    for f in members:
        with span("matrix.reduce_mod"):
            reduced = fqx.reduce_mod(a, f)
        with span("matrix.rank_over_field"):
            ranks.append(fqx.rank_over_field(reduced))
    completion = det = None
    if g.degree == 0:
        with span("matrix.complete_to_invertible"):
            completion = fqx.complete_to_invertible(a)
        with span("matrix.stack"):
            square = fqx.stack(a, completion)
        with span("matrix.determinant"):
            det = fqx.determinant(square)
    return g, invariants, tuple(ranks), completion, det


def check_matrix(a, members, result) -> str | None:
    """Minors, Smith and rank-mod-f verdicts agree; U*D*V = A; completion is sound."""
    g, invariants, ranks, completion, det = result
    spec, k = a.spec, a.k
    one = fqx.one(spec)
    u, d, v = fqx.smith_normal_form(a)
    if tuple(d.entries[i][i] for i in range(k)) != invariants:
        return "smith_invariants differ from the Smith form's diagonal"
    if matmul(matmul(u, d), v) != a:
        return "U*D*V != A"
    product_of = one
    for f in invariants:
        product_of = product_of * f
    if product_of != g:
        return "minors gcd differs from the product of the invariant factors"
    for f, rank in zip(members, ranks):
        divides = g.is_zero or (g % f).is_zero
        if (rank < k) != divides:
            return f"rank {rank} mod {fqx.poly_to_string(f)} contradicts the minors gcd"
    unimodular = g == one
    if unimodular != all(f == one for f in invariants):
        return "minors and Smith verdicts disagree"
    if unimodular != (completion is not None):
        return "completion attempted on the wrong verdict"
    if unimodular:
        if completion.k != a.n - k:
            return f"completion has {completion.k} rows, expected {a.n - k}"
        if det.degree != 0:
            return "completed matrix has a nonconstant or zero determinant"
    return None


class Algebra(Workload):
    name = "algebra"
    item = "matrices"

    def __init__(self, seed: int, span):
        rng = random.Random(f"algebra:{seed}")
        fields = {q: make_field(q, span) for q in ALGEBRA_FIELDS}
        self.members = {}
        for q in ALGEBRA_FIELDS:
            lists = irreducible_lists(fields[q], 2, span)
            self.members[q] = tuple(rng.sample(lists[1] + lists[2], ALGEBRA_MEMBERS))
        self.matrices = seeded_matrices(fields, rng, ALGEBRA_PER_SHAPE)
        self.jobs = [self._matrix_job(i, a) for i, a in enumerate(self.matrices)]
        for q, degree in ALGEBRA_IRREDUCIBLES:
            self.jobs.append(self._irreducibles_job(fields[q], degree))

    def _matrix_job(self, i, a):
        members = self.members[a.spec.q]

        def run(span):
            return matrix_calls(a, members, span)

        return Job(f"algebra.matrix.{i}", run,
                   lambda result, firsts: check_matrix(a, members, result),
                   work=lambda r: 1)

    def _irreducibles_job(self, spec, degree):
        def run(span):
            with span("poly.irreducibles_up_to"):
                return fqx.irreducibles_up_to(spec, degree)

        def key(table):
            return tuple(tuple(fqx.poly_to_index(f) for f in table.irreducibles(d))
                         for d in range(1, degree + 1))

        def check(table, firsts):
            for d in range(1, degree + 1):
                found = table.irreducibles(d)
                if len(found) != fqx.count_irreducibles(spec, d):
                    return f"{len(found)} irreducibles of degree {d}, closed form disagrees"
                if any(f.degree != d or not f.is_monic for f in found):
                    return f"a listed polynomial of degree {d} is not monic of that degree"
            return None

        return Job(f"algebra.irreducibles.q{spec.q}.d{degree}", run, check, key=key)


# ---------------------------------------------------------------------------
# zeta


ZETA_QS = (2, 3, 4)
ZETA_JS = (2, 3, 4)
ZETA_MAX_T = 9
# (k, n) of the closed-form jobs; the seed picks one irreducible of each
# degree 1..3 per job, so every seed asks for the same amount of work
ZETA_CLOSED_FORM_SHAPES = [(1, 2), (2, 3), (3, 4)]
ZETA_INVERSE_J = 3


def own_zeta_inverse(q: int, j: int) -> Fraction:
    return Fraction(0) if j == 1 else 1 - Fraction(1, q ** (j - 1))


def at_most(a: int, b: int, c: int, d: int) -> bool:
    """a/b <= c/d for positive b, d; a shift when both are powers of two."""
    if b & (b - 1) == 0 and d & (d - 1) == 0:
        shift = b.bit_length() - d.bit_length()
        return a <= c << shift if shift >= 0 else a << -shift <= c
    return a * d <= c * b


def check_truncated(q, j, t, value, previous) -> str | None:
    """Within 2/(q^t (q-1)) above 1 - q^(1-j), below the t-1 value, coprime to p."""
    p, _ = fqx.factor_prime_power(q)
    a, b = value.numerator, value.denominator
    z = own_zeta_inverse(q, j)
    c, d = z.numerator, z.denominator
    gap = a * d - c * b  # (value - z) * b * d
    tail = Fraction(2, q**t * (q - 1))
    if gap < 0:
        return f"truncated product below the closed form at t={t}"
    if gap * tail.denominator > tail.numerator * b * d:
        return f"truncated product further than the tail bound at t={t}"
    if a % p == 0:
        return f"numerator divisible by p={p} at t={t}"
    if previous is not None and not at_most(a, b, previous.numerator, previous.denominator):
        return f"truncated product increased from t={t - 1} to t={t}"
    return None


def product_over(values) -> Fraction:
    out = Fraction(1)
    for v in values:
        out *= v
    return out


class Zeta(Workload):
    name = "zeta"
    item = "numerator bits"

    def __init__(self, seed: int, span):
        rng = random.Random(f"zeta:{seed}")
        fields = {q: make_field(q, span) for q in ZETA_QS}
        self.jobs = []
        for q in ZETA_QS:
            for j in ZETA_JS:
                for t in range(1, ZETA_MAX_T + 1):
                    self.jobs.append(self._truncated_job(q, j, t))
        for q in ZETA_QS:
            lists = irreducible_lists(fields[q], 3, span)
            for k, n in ZETA_CLOSED_FORM_SHAPES:
                primes = fqx.IrreducibleSet(fields[q], [rng.choice(lists[d]) for d in (1, 2, 3)])
                self.jobs.extend(self._closed_form_jobs(f"q{q}.k{k}.n{n}", q, k, n, primes, n - k))
            self.jobs.append(self._zeta_inverse_job(q, ZETA_INVERSE_J))

    def _truncated_job(self, q, j, t):
        label = f"zeta.truncated.q{q}.j{j}.t{t}"
        previous = f"zeta.truncated.q{q}.j{j}.t{t - 1}"

        def run(span):
            with span("density.zeta_inverse_truncated"):
                return fqx.zeta_inverse_truncated(q, j, t)

        def check(value, firsts):
            return check_truncated(q, j, t, value, firsts.get(previous) if t > 1 else None)

        return Job(label, run, check, work=lambda v: v.numerator.bit_length())

    def _zeta_inverse_job(self, q, j):
        def run(span):
            with span("density.zeta_inverse"):
                return fqx.zeta_inverse(q, j)

        def check(value, firsts):
            expected = own_zeta_inverse(q, j)
            return None if value == expected else f"{value} != independent {expected}"

        return Job(f"zeta.inverse.q{q}.j{j}", run, check)

    def _closed_form_jobs(self, tag, q, k, n, primes, degree):

        def unimodular(span):
            with span("density.density_unimodular"):
                return fqx.density_unimodular(q, k, n)

        def coprime(span):
            with span("density.density_coprime_to"):
                return fqx.density_coprime_to(q, k, n, primes)

        def divisible(span):
            with span("density.divisible_bound"):
                return fqx.divisible_bound(q, k, n, degree)

        def expect(value, expected):
            return None if value == expected else f"{value} != independent {expected}"

        js = range(n - k + 1, n + 1)
        big = q**degree
        keep = product_over(1 - Fraction(1, big**j) for j in js)
        return [
            Job(f"zeta.unimodular.{tag}", unimodular,
                lambda v, firsts: expect(v, product_over(own_zeta_inverse(q, j) for j in js))),
            Job(f"zeta.coprime.{tag}", coprime,
                lambda v, firsts: expect(v, product_over(
                    1 - Fraction(1, (q**f.degree) ** j) for f in primes for j in js))),
            Job(f"zeta.divisible.{tag}", divisible,
                lambda v, firsts: expect(v, (1 - keep, Fraction(2, big**2)))
                or (None if v.exact <= v.bound else "exact share above its bound")),
        ]


WORKLOADS = {w.name: w for w in (Census, Sample, Algebra, Zeta)}
