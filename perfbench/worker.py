"""One fresh benchmark process: set up a workload, and optionally measure it.

    python3 perfbench/worker.py --role setup|measure|table --workload NAME \
        --seed N --seconds S --trace 0|1 --root CHECKOUT

``run.py`` starts this once per set-up sample and once for the
measurement, so that set-up time and peak memory belong to one workload
in one process.  ``--role table`` sets up ``sample`` and reports the
resident memory that compiling its largest-N tester adds (see
``probes.py``).  The result is one JSON object on stdout.

Set-up time runs from the first statement of this file, before ``fqx``
is imported, to the moment the workload's inputs are built.  A
measurement then repeats the workload's job list in rounds until
``--seconds`` have passed and at least ``MIN_ROUNDS`` rounds ran; with
``--trace 1`` traced and untraced rounds alternate, and the layer
probes run once afterwards.

Every job is timed twice over: in seconds, and in reference units.  On
a shared host the speed of the whole machine drifts by tens of percent
over seconds to minutes, and every timing drifts with it.  A fixed
reference task (a short pure-Python loop and one big-integer product),
timed before the first job and then after any job that ends 20 ms or
more after the previous sample, drifts the same way; a job's latency
divided by the median of the reference samples around it is its cost in
reference units (``ref``), which stays put while the machine speeds up
or slows down.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402

MIN_ROUNDS = 4
# candidate tail percentiles; the highest one that leaves at least ten
# calls above it in MIN_ROUNDS rounds is reported
TAIL_LADDER = (50, 75, 80, 90, 95, 98, 99, 99.5, 99.9)
LAYERS = ("gf", "poly", "matrix", "kernels", "experiment", "density", "cli")
# reference samples on each side of a job that its cost is divided by
REFERENCE_SPAN = 2
# least time between two reference samples
REFERENCE_GAP_S = 0.02
_FACTOR_A = (1 << 30000) // 7
_FACTOR_B = (1 << 30001) // 11


def reference_sample() -> float:
    """Seconds for the fixed reference task (about 1 ms).

    It defines the unit ``ref``: changing it changes every ``*_ref``
    metric, so it stays as it is.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(1500):
        pair = (i, i + 1)
        s += pair[0] * pair[1] % 7
    _FACTOR_A * _FACTOR_B
    return time.perf_counter() - t0


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks, p in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(jobs_per_round: int) -> float:
    calls = jobs_per_round * MIN_ROUNDS
    return max(p for p in TAIL_LADDER if calls * (1 - p / 100) >= 10)


class Rounds:
    """Runs rounds of a job list and keeps what the metrics need."""

    def __init__(self, workload):
        self.jobs = workload.jobs
        self.walls = {False: [], True: []}
        # per job, its latency (seconds and ref units) in each untraced / traced round
        self.seconds = {False: [[] for _ in self.jobs], True: [[] for _ in self.jobs]}
        self.refs = {False: [[] for _ in self.jobs], True: [[] for _ in self.jobs]}
        self.reference_s: list[float] = []
        self.work: list[float | None] = [None] * len(self.jobs)
        self.firsts: dict = {}
        self.first_keys: dict = {}
        self.repeats: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(reason)

    def run(self, tracer) -> None:
        clock = time.perf_counter
        job_base = len(self.walls[False]) + len(self.walls[True])
        results = []
        latencies = []
        references = [reference_sample()]
        # index of the first reference sample taken after each job
        after = []
        last = start = clock()
        for i, job in enumerate(self.jobs):
            tracer.job = job_base * len(self.jobs) + i + 1
            t0 = clock()
            try:
                result = job.run(tracer.span)
            except Exception as exc:  # a failing call is counted, not fatal
                result = exc
            t1 = clock()
            latencies.append(t1 - t0)
            results.append(result)
            after.append(len(references))
            if t1 - last >= REFERENCE_GAP_S or i == len(self.jobs) - 1:
                references.append(reference_sample())
                last = clock()
        wall = clock() - start - sum(references[1:])
        self.walls[tracer.enabled].append(wall)
        self.reference_s.extend(references)
        self.attempted += len(self.jobs)
        for i, (job, result, latency) in enumerate(zip(self.jobs, results, latencies)):
            around = references[max(0, after[i] - REFERENCE_SPAN):after[i] + REFERENCE_SPAN]
            self.seconds[tracer.enabled][i].append(latency)
            self.refs[tracer.enabled][i].append(latency / statistics.median(around))
            if isinstance(result, Exception):
                self.fail(1, f"{job.label}: raised {result!r}")
                continue
            key = job.key(result)
            if job.label not in self.firsts:
                self.firsts[job.label] = result
                self.first_keys[job.label] = key
                self.repeats[job.label] = 1
            elif key != self.first_keys[job.label]:
                self.fail(1, f"{job.label}: result differs from its first round")
            else:
                self.repeats[job.label] += 1
            if job.work is not None and self.work[i] is None:
                self.work[i] = job.work(result)

    def check(self) -> None:
        """Independent-route checks on each job's first result."""
        for job in self.jobs:
            if job.label not in self.firsts:
                continue
            try:
                reason = job.check(self.firsts[job.label], self.firsts)
            except Exception as exc:  # a check that cannot run is a failed check
                reason = f"check raised {exc!r}"
            if reason:
                self.fail(self.repeats[job.label], f"{job.label}: {reason}")


def job_costs(latencies) -> list[float]:
    """Each job's median latency over the rounds, taken before jobs are added."""
    return [statistics.median(lat) for lat in latencies]


def peak_rss_mb() -> float:
    """Larger of this process's and its largest child's peak RSS.

    A forked pool worker's RSS includes the pages it shares with this
    process, so the two are not added.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def end_to_end(rounds: Rounds, peak_mb: float) -> dict:
    """Time to solution, call latency and throughput, in seconds and in ref units.

    The time to solution adds up each job's median latency; the call
    percentiles run over every call of every untraced round.
    """
    p = tail_percentile(len(rounds.jobs))
    out = {"peak_rss_mb": peak_mb,
           "reference_ms": statistics.median(rounds.reference_s) * 1000}
    for unit, latencies, scale in (("s", rounds.seconds[False], 1000),
                                   ("ref", rounds.refs[False], 1)):
        costs = job_costs(latencies)
        calls = [x for lat in latencies for x in lat]
        counted = [(w, c) for w, c in zip(rounds.work, costs) if w is not None]
        suffix = "ms" if unit == "s" else "ref"
        out[f"wall_{unit}"] = sum(costs)
        out[f"call_p50_{suffix}"] = percentile(calls, 50) * scale
        out[f"call_phigh_{suffix}"] = percentile(calls, p) * scale
        out[f"throughput_per_{unit}"] = (sum(w for w, _ in counted)
                                         / sum(c for _, c in counted))
    out["tail"] = {"percentile": p, "calls": sum(len(lat) for lat in rounds.seconds[False])}
    return out


def layer_self_times(tracer, rounds: Rounds, marks) -> dict:
    """Seconds of self time per layer in one traced round (mean over rounds)."""
    records = [r for lo, hi in marks for r in tracer.records[lo:hi]]
    traced = len(rounds.walls[True])
    out = {f"self_s.{layer}": 0.0 for layer in LAYERS}
    for name, own, _count in spans.self_times(records):
        key = f"self_s.{name.split('.')[0]}"
        if key in out:
            out[key] += own / traced
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("setup", "measure", "table"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(args.root, "src"))

    tracer = spans.Tracer(bool(args.trace))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, tracer.span)
    setup_s = time.perf_counter() - STARTED
    report = {
        "setup_s": setup_s,
        "make_field_s": spans.totals(tracer.records).get("gf.make_field", (0.0,))[0],
    }
    if args.role == "setup":
        print(json.dumps(report))
        return 0
    if args.role == "table":
        import probes

        space, predicate, _ = max(workload.configs.values(), key=lambda c: c[0].N)
        print(json.dumps({"table_mb": probes.table_growth_mb(space, predicate)}))
        return 0

    rounds = Rounds(workload)
    off = spans.Tracer(False)
    deadline = time.perf_counter() + args.seconds
    marks = []
    while (
        time.perf_counter() < deadline
        or len(rounds.walls[False]) < MIN_ROUNDS
        or (args.trace and len(rounds.walls[True]) < MIN_ROUNDS)
    ):
        traced = bool(args.trace) and len(rounds.walls[True]) < len(rounds.walls[False])
        if traced:
            lo = tracer.mark()
            rounds.run(tracer)
            marks.append((lo, tracer.mark()))
        else:
            rounds.run(off)
    # before the checks, which compile testers of their own
    peak_mb = peak_rss_mb()
    rounds.check()
    report.update(
        attempted=rounds.attempted,
        failed=rounds.failed,
        failures=rounds.failures,
        jobs_per_round=len(rounds.jobs),
        rounds=len(rounds.walls[False]) + len(rounds.walls[True]),
        round_walls_s={"untraced": rounds.walls[False], "traced": rounds.walls[True]},
        item=workload.item,
        workers=workloads.WORKERS,
    )
    if not args.trace:
        report["metrics"] = end_to_end(rounds, peak_mb)
    else:
        import probes

        layers = layer_self_times(tracer, rounds, marks)
        layers["trace.overhead_frac"] = (
            sum(job_costs(rounds.refs[True])) / sum(job_costs(rounds.refs[False])) - 1
        )
        layers["experiment.evaluations"] = sum(j.evaluations for j in rounds.jobs)
        probed = probes.run(args.seed, tracer)
        layers.update(probed.metrics)
        report.update(
            metrics=layers,
            missing=probed.missing,
            attempted=rounds.attempted + probed.attempted,
            failed=rounds.failed + probed.failed,
            failures=rounds.failures + probed.failures,
        )
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
