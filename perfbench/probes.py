"""Layer probes: the per-layer metrics of a traced run.

Each probe times calls into one layer's public functions from here,
inside spans, and derives its metrics from those spans' self times.
Inputs come from the same seeded generators the workloads use, so a
probe measures a layer on the kind of work that the workload named next
to its metric in ``README.md`` gives that layer.  Micro-operations (field and polynomial
arithmetic, compiled-tester calls) get one span per timed batch, whose
count is the batch length; everything else gets one span per call.

A probe that raises leaves its metrics missing, with the reason, and
counts as one failed operation.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
from itertools import product
from pathlib import Path

import fqx
from fqx.kernels import compile_index_predicate

import spans
import workloads

HERE = Path(__file__).resolve().parent
GF_OPS = 20000
POLY_OPS = 3000
IS_IRREDUCIBLE_POLYS = 120
PROBE_MATRICES_PER_SHAPE = 2
TESTER_CALLS = {"bits": 20000, "prime": 20000, "ranktable": 20000, "fallback": 1000}
LOOP_SHARE_MC = ("gf2.1x2", "gf3.2x3", "gf3.2x2.coprime")
SPEEDUP_SAMPLE_SCALE = 3
POOL_REPEATS = 3
CLOSED_FORM_CALLS = 100
CLI_REPEATS = 3
TABLE_TIMEOUT_S = 60
ROUTES = ("bits", "prime", "ranktable", "fallback")
POOL_METRICS = ["experiment.pool_start_s", "experiment.workers2_speedup.census",
                "experiment.workers2_speedup.sample"]


def timed(tracer, name: str, fn, count: int = 1):
    """Run ``fn`` inside one span; return (result, the span's self time)."""
    lo = tracer.mark()
    with tracer.span(name, count):
        result = fn()
    return result, spans.self_times(tracer.records[lo:])[-1][1]


def resident_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def table_growth_mb(space, predicate) -> float:
    """Resident memory that compiling one tester adds, with the tester alive.

    Only meaningful in a process that has built no tables before: freed
    tables leave pages the allocator reuses.  ``worker.py --role table``
    calls it right after setting up ``sample``.
    """
    before = resident_bytes()
    tester = compile_for(space, predicate)
    grown = resident_bytes() - before
    del tester
    return grown / 2**20


def fresh_table_mb(seed: int) -> float:
    """``table_growth_mb`` at ``sample``'s largest N, in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--role", "table", "--workload", "sample",
         "--seed", str(seed), "--root", str(HERE.parent)],
        capture_output=True, text=True, timeout=TABLE_TIMEOUT_S, cwd=HERE.parent,
    )
    if done.returncode != 0:
        raise RuntimeError(f"table process exited with {done.returncode}: {done.stderr[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["table_mb"]


def gf_probe(seed, tracer, missing):
    rng = random.Random(f"probe.gf:{seed}")
    out = {}
    for q in (3, 4):
        spec = fqx.field_from_order(q)
        xs = [spec.element(rng.randrange(q)) for _ in range(GF_OPS)]
        ys = [spec.element(rng.randrange(1, q)) for _ in range(GF_OPS)]

        def mul():
            for x, y in zip(xs, ys):
                x * y

        def inverse():
            for y in ys:
                y.inverse()

        out[f"gf.mul_per_s.q{q}"] = GF_OPS / timed(tracer, "gf.FieldElement.__mul__", mul, GF_OPS)[1]
        out[f"gf.inverse_per_s.q{q}"] = GF_OPS / timed(
            tracer, "gf.FieldElement.inverse", inverse, GF_OPS)[1]
    return out


def entry_pairs(seed) -> list:
    """Entry pairs (a, b), b nonzero, taken within seeded algebra matrices."""
    rng = random.Random(f"probe.poly:{seed}")
    fields = {q: fqx.field_from_order(q) for q in workloads.ALGEBRA_FIELDS}
    pairs = []
    for a in workloads.seeded_matrices(fields, rng, 1):
        entries = [f for row in a.entries for f in row]
        nonzero = [f for f in entries if not f.is_zero]
        if nonzero:
            pairs.extend((rng.choice(entries), rng.choice(nonzero)) for _ in range(8))
    return (pairs * (POLY_OPS // len(pairs) + 1))[:POLY_OPS]


def poly_probe(seed, tracer, missing):
    pairs = entry_pairs(seed)

    def mul():
        for a, b in pairs:
            a * b

    def div():
        for a, b in pairs:
            divmod(a, b)

    def gcd():
        for a, b in pairs:
            fqx.gcd(a, b)

    out = {
        "poly.mul_per_s": POLY_OPS / timed(tracer, "poly.Poly.__mul__", mul, POLY_OPS)[1],
        "poly.divmod_per_s": POLY_OPS / timed(tracer, "poly.Poly.__divmod__", div, POLY_OPS)[1],
        "poly.gcd_per_s": POLY_OPS / timed(tracer, "poly.gcd", gcd, POLY_OPS)[1],
    }
    for q, degree in workloads.ALGEBRA_IRREDUCIBLES:
        spec = fqx.field_from_order(q)
        out[f"poly.irreducibles_up_to_s.q{q}"] = timed(
            tracer, "poly.irreducibles_up_to", lambda: fqx.irreducibles_up_to(spec, degree))[1]

    rng = random.Random(f"probe.irreducible:{seed}")
    candidates = []
    for i in range(IS_IRREDUCIBLE_POLYS):
        q = workloads.ALGEBRA_FIELDS[i % len(workloads.ALGEBRA_FIELDS)]
        degree = 2 + i % 4
        digits = [rng.randrange(q) for _ in range(degree)] + [1]
        candidates.append(fqx.poly_from_indices(fqx.field_from_order(q), digits))

    def irreducible():
        for f in candidates:
            fqx.is_irreducible(f)

    out["poly.is_irreducible_per_s"] = IS_IRREDUCIBLE_POLYS / timed(
        tracer, "poly.is_irreducible", irreducible, IS_IRREDUCIBLE_POLYS)[1]
    return out


def matrix_probe(seed, tracer, missing):
    rng = random.Random(f"probe.matrix:{seed}")
    fields = {q: fqx.field_from_order(q) for q in workloads.ALGEBRA_FIELDS}
    members = {}
    for q in workloads.ALGEBRA_FIELDS:
        table = fqx.irreducibles_up_to(fields[q], 2)
        pool = table.irreducibles(1) + table.irreducibles(2)
        members[q] = tuple(rng.sample(pool, workloads.ALGEBRA_MEMBERS))
    lo = tracer.mark()
    for a in workloads.seeded_matrices(fields, rng, PROBE_MATRICES_PER_SHAPE):
        workloads.matrix_calls(a, members[a.spec.q], tracer.span)
    totals = spans.totals(tracer.records[lo:])

    def per_call_ms(*names):
        absent = [n for n in names if n not in totals]
        if absent:
            raise LookupError(f"no {absent[0]} call among the probe matrices")
        return sum(totals[n][1] for n in names) / totals[names[0]][2] * 1000

    return {
        "matrix.minors_gcd_ms": per_call_ms("matrix.minors_gcd"),
        "matrix.smith_normal_form_ms": per_call_ms("matrix.smith_invariants"),
        "matrix.complete_to_invertible_ms": per_call_ms("matrix.complete_to_invertible"),
        "matrix.determinant_ms": per_call_ms("matrix.determinant"),
        "matrix.rank_mod_ms": per_call_ms("matrix.reduce_mod", "matrix.rank_over_field"),
    }


def compile_for(space, predicate):
    return compile_index_predicate(space.field, space.k, space.n, space.N,
                                   predicate.kind, predicate.payload)


def kernels_probe(seed, tracer, missing):
    census = workloads.Census(seed, spans.Tracer(False).span)
    rng = random.Random(f"probe.kernels:{seed}")
    out = {}
    for route in ROUTES:
        members = [(s, p) for r, s, p in census.spaces if r == route]
        compile_s = 0.0
        calls = []
        for space, predicate in members:
            tester, seconds = timed(tracer, "kernels.compile_index_predicate",
                                    lambda: compile_for(space, predicate))
            compile_s += seconds
            width = space.k * space.n
            share = TESTER_CALLS[route] // len(members)
            calls.append((tester, [tuple(rng.randrange(space.N + 1) for _ in range(width))
                                   for _ in range(share)]))
        out[f"kernels.compile_s.{route}"] = compile_s
        count = sum(len(tuples) for _, tuples in calls)

        def run_testers():
            for tester, tuples in calls:
                for t in tuples:
                    tester(t)

        out[f"kernels.tester_per_s.{route}"] = count / timed(
            tracer, "kernels.tester", run_testers, count)[1]

    sample = workloads.Sample(seed, spans.Tracer(False).span)
    space, predicate, _ = max(sample.configs.values(), key=lambda c: c[0].N)
    out["kernels.compile_s.sample_max_n"] = timed(
        tracer, "kernels.compile_index_predicate", lambda: compile_for(space, predicate))[1]
    out["kernels.table_mb"] = fresh_table_mb(seed)
    return out


def experiment_probe(seed, tracer, missing):
    census = workloads.Census(seed, spans.Tracer(False).span)
    sample = workloads.Sample(seed, spans.Tracer(False).span)
    out = {}

    # census: one space per route; the rest of the wall is enumeration
    wall = kernel = 0.0
    for route in ROUTES:
        space, predicate = next((s, p) for r, s, p in census.spaces if r == route)
        result, seconds = timed(tracer, "experiment.exhaustive_census",
                                lambda: fqx.exhaustive_census(space, predicate))
        wall += seconds
        tuples = list(product(range(space.N + 1), repeat=space.k * space.n))
        tester, seconds = timed(tracer, "kernels.compile_index_predicate",
                                lambda: compile_for(space, predicate))
        kernel += seconds
        hits, seconds = timed(tracer, "kernels.tester", lambda: sum(map(tester, tuples)),
                              len(tuples))
        kernel += seconds
        if hits != result.hits:
            raise AssertionError(f"direct tester count {hits} != census {result.hits}")
    out["experiment.census_loop_share"] = 1 - kernel / wall

    # Monte Carlo: the rest of the wall is paging, drawing and conversion
    wall = kernel = 0.0
    rng = random.Random(f"probe.mc:{seed}")
    for label in LOOP_SHARE_MC:
        space, predicate, samples = sample.configs[label]
        mc_seed = rng.getrandbits(64)
        result, seconds = timed(tracer, "experiment.monte_carlo",
                                lambda: fqx.monte_carlo(space, predicate, samples, mc_seed))
        wall += seconds
        chunk = workloads.page_size(result.rng_id)
        draws = []
        for page in range(-(-samples // chunk)):
            count = min(chunk, samples - page * chunk)
            draws.extend(workloads.page_draws(space, mc_seed, page, count).tolist())
        tester, seconds = timed(tracer, "kernels.compile_index_predicate",
                                lambda: compile_for(space, predicate))
        kernel += seconds
        hits, seconds = timed(tracer, "kernels.tester", lambda: sum(map(tester, draws)),
                              len(draws))
        kernel += seconds
        if hits != result.hits:
            raise AssertionError(f"direct tester count {hits} != estimate {result.hits}")
    out["experiment.mc_loop_share"] = 1 - kernel / wall

    workers = workloads.WORKERS
    if workers < 2:
        for name in POOL_METRICS:
            missing[name] = "one CPU: the workload runs no workers=2 jobs"
        return out
    tiny = fqx.SpaceSpec(fqx.field_from_order(2), 1, 1, 0)
    out["experiment.pool_start_s"] = statistics.median(
        timed(tracer, "experiment.exhaustive_census",
              lambda: fqx.exhaustive_census(tiny, fqx.Predicate.unimodular(),
                                            workers=workers))[1]
        for _ in range(POOL_REPEATS))

    space, predicate = census.lemma
    serial = timed(tracer, "experiment.exhaustive_census",
                   lambda: fqx.exhaustive_census(space, predicate))[1]
    pooled = timed(tracer, "experiment.exhaustive_census",
                   lambda: fqx.exhaustive_census(space, predicate, workers=workers))[1]
    out["experiment.workers2_speedup.census"] = serial / pooled

    space, predicate, samples = sample.configs[workloads.SAMPLE_REPEATED]
    samples *= SPEEDUP_SAMPLE_SCALE
    mc_seed = rng.getrandbits(64)
    serial = timed(tracer, "experiment.monte_carlo",
                   lambda: fqx.monte_carlo(space, predicate, samples, mc_seed))[1]
    pooled = timed(tracer, "experiment.monte_carlo",
                   lambda: fqx.monte_carlo(space, predicate, samples, mc_seed,
                                           workers=workers))[1]
    out["experiment.workers2_speedup.sample"] = serial / pooled
    return out


def density_probe(seed, tracer, missing):
    out = {}
    t = workloads.ZETA_MAX_T
    for q in workloads.ZETA_QS:
        for j in workloads.ZETA_JS:
            value, seconds = timed(tracer, "density.zeta_inverse_truncated",
                                   lambda: fqx.zeta_inverse_truncated(q, j, t))
            out[f"density.zeta_inverse_truncated_s.q{q}j{j}"] = seconds
    out["density.numerator_bits"] = value.numerator.bit_length()

    rng = random.Random(f"probe.density:{seed}")
    calls = []
    for _ in range(CLOSED_FORM_CALLS):
        q = rng.choice(workloads.ZETA_QS)
        n = rng.randrange(2, 5)
        k = rng.randrange(1, n)
        calls.append((q, k, n, rng.randrange(1, 4)))
    primes = {q: fqx.IrreducibleSet(fqx.field_from_order(q),
                                    fqx.irreducibles_up_to(fqx.field_from_order(q), 1)
                                    .irreducibles(1)[:2])
              for q in workloads.ZETA_QS}

    def closed_forms():
        for q, k, n, degree in calls:
            fqx.density_unimodular(q, k, n)
            fqx.density_coprime_to(q, k, n, primes[q])
            fqx.divisible_bound(q, k, n, degree)

    count = 3 * CLOSED_FORM_CALLS
    out["density.closed_forms_per_s"] = count / timed(
        tracer, "density.closed_forms", closed_forms, count)[1]
    return out


def cli_overhead_ms(tracer, argv, api_call, api_name) -> float:
    cli_s, api_s = [], []
    for _ in range(CLI_REPEATS):
        api_s.append(timed(tracer, api_name, api_call)[1])
        lo = tracer.mark()
        workloads.run_cli(argv, tracer.span)
        cli_s.append(spans.self_times(tracer.records[lo:])[-1][1])
    return (statistics.median(cli_s) - statistics.median(api_s)) * 1000


def cli_probe(seed, tracer, missing):
    census = workloads.Census(seed, spans.Tracer(False).span)
    space, predicate = next((s, p) for r, s, p in census.spaces if r == "bits")
    census_ms = cli_overhead_ms(
        tracer, ["census"] + workloads.space_argv(space) + workloads.predicate_argv(predicate),
        lambda: fqx.exhaustive_census(space, predicate), "experiment.exhaustive_census")

    sample = workloads.Sample(seed, spans.Tracer(False).span)
    space, predicate, samples = sample.configs[workloads.SAMPLE_VIA_CLI[0]]
    mc_seed = random.Random(f"probe.cli:{seed}").getrandbits(64)
    sample_ms = cli_overhead_ms(
        tracer, ["mc"] + workloads.space_argv(space) + workloads.predicate_argv(predicate)
        + ["--samples", str(samples), "--seed", str(mc_seed)],
        lambda: fqx.monte_carlo(space, predicate, samples, mc_seed), "experiment.monte_carlo")
    return {"cli.main_overhead_ms.census": census_ms, "cli.main_overhead_ms.sample": sample_ms}


# probe -> the metrics it yields, so a failed probe can name what is missing
PROBES = [
    (gf_probe, ["gf.mul_per_s.q3", "gf.inverse_per_s.q3", "gf.mul_per_s.q4",
                "gf.inverse_per_s.q4"]),
    (poly_probe, ["poly.mul_per_s", "poly.divmod_per_s", "poly.gcd_per_s",
                  "poly.irreducibles_up_to_s.q2", "poly.irreducibles_up_to_s.q3",
                  "poly.irreducibles_up_to_s.q4", "poly.is_irreducible_per_s"]),
    (matrix_probe, ["matrix.minors_gcd_ms", "matrix.smith_normal_form_ms",
                    "matrix.complete_to_invertible_ms", "matrix.determinant_ms",
                    "matrix.rank_mod_ms"]),
    (kernels_probe, [f"kernels.compile_s.{r}" for r in ROUTES]
     + [f"kernels.tester_per_s.{r}" for r in ROUTES]
     + ["kernels.table_mb", "kernels.compile_s.sample_max_n"]),
    (experiment_probe, ["experiment.census_loop_share", "experiment.mc_loop_share"]
     + POOL_METRICS),
    (density_probe, [f"density.zeta_inverse_truncated_s.q{q}j{j}"
                     for q in workloads.ZETA_QS for j in workloads.ZETA_JS]
     + ["density.numerator_bits", "density.closed_forms_per_s"]),
    (cli_probe, ["cli.main_overhead_ms.census", "cli.main_overhead_ms.sample"]),
]


class Probed:
    def __init__(self):
        self.metrics: dict = {}
        self.missing: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []


def run(seed: int, tracer) -> Probed:
    """Run every probe once; a probe that raises leaves its metrics missing."""
    probed = Probed()
    for number, (probe, names) in enumerate(PROBES, start=1):
        tracer.job = -number  # probe spans carry negative job ids
        probed.attempted += 1
        reasons: dict = {}
        try:
            metrics = probe(seed, tracer, reasons)
        except Exception as exc:  # report the layer as missing, keep probing
            probed.failed += 1
            probed.failures.append(f"{probe.__name__}: {exc!r}")
            metrics = {}
            reasons = dict.fromkeys(names, f"{probe.__name__} raised {exc!r}")
        for name in names:
            if name in metrics:
                probed.metrics[name] = metrics[name]
            else:
                probed.missing[name] = reasons.get(name, f"{probe.__name__} did not yield it")
    return probed
