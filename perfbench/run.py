"""The fqx benchmark: census, sample, algebra and zeta workloads.

    python3 perfbench/run.py --workload census|sample|algebra|zeta|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``fqx`` from ``src``.
Each workload runs in fresh processes (``worker.py``): several that only
set up, for the set-up time, and one that sets up and measures, so that
set-up time and peak memory belong to that workload.  Next to each
set-up process runs a reference process (``reference_import.py``) that
imports what fqx builds on; set-up time is reported relative to it, so
that it does not follow the speed of the host.  With ``--trace 0``
the run reports the end-to-end metrics named in ``BENCHMARK.json``, with
``--trace 1`` the per-layer ones (see ``README.md``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it name
every metric with its unit, the environment, any failed check and any
per-layer metric that could not be measured, with the reason.  The full
record also goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("census", "sample", "algebra", "zeta")
SETUP_CHILDREN = 15
# set-up times are scaled to a host on which reference_import.py takes this long
NOMINAL_REFERENCE_IMPORT_S = 0.1
# a run must end within 180 s; leave room for reporting
RUN_LIMIT_S = 170
# what the report says each workload's throughput counts
THROUGHPUT_NAMES = {
    "matrices": "matrices_per",
    "draws": "draws_per",
    "numerator bits": "numerator_bits_per",
}
# measured and reported alongside the metrics BENCHMARK.json names
REPORT_UNITS = {
    "wall_s": "s",
    "call_p50_ms": "ms",
    "call_phigh_ms": "ms",
    "throughput_per_s": "1/s",
    "reference_ms": "ms",
    "setup_raw_s": "s",
    "reference_import_s": "s",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child(script: str, arguments: list[str], timeout: float):
    """Run a script of this directory in its own process group; parse its last line as JSON."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / script), *arguments],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{script} {' '.join(arguments)} ran past {timeout:.0f} s") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{script} {' '.join(arguments)} exited with {proc.returncode}:\n"
                         + err[-2000:])
    return json.loads(out.strip().splitlines()[-1])


def environment() -> dict:
    """What a result depends on besides the code: interpreter, numpy, gmpy2, CPUs, commit."""
    import numpy

    sha = "unknown"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "git_sha": sha,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    """Set up ``SETUP_CHILDREN`` times, measure once; return the full record."""
    started = time.monotonic()
    common = ["--workload", name, "--seed", str(seed), "--trace", str(trace)]

    def left():
        return RUN_LIMIT_S - (time.monotonic() - started)

    def set_up(count):
        """``count`` set-up processes, each followed by a reference import process."""
        for _ in range(count):
            setups.append(child("worker.py", ["--root", str(ROOT), "--role", "setup", *common],
                                left()))
            references.append(child("reference_import.py", [], left()))

    # half the set-ups before the measurement and half after, so that they
    # sample the host over the whole run
    setups, references = [], []
    set_up(SETUP_CHILDREN // 2)
    OUT.mkdir(exist_ok=True)
    extra = ["--spans", str(OUT / f"spans-{name}-seed{seed}.json")] if trace else []
    measured = child("worker.py", ["--root", str(ROOT), "--role", "measure",
                                   "--seconds", str(seconds), *common, *extra], left())
    set_up(SETUP_CHILDREN - SETUP_CHILDREN // 2)
    samples = [s["setup_s"] for s in setups] + [measured["setup_s"]]
    values = dict(measured["metrics"])
    tail = values.pop("tail", None)
    missing = dict(measured.get("missing", {}))
    if trace:
        values["gf.make_field_s"] = statistics.median(
            [s["make_field_s"] for s in setups] + [measured["make_field_s"]])
    else:
        values["setup_raw_s"] = statistics.median(samples)
        values["reference_import_s"] = statistics.median(references)
        values["setup_s"] = (values["setup_raw_s"] / values["reference_import_s"]
                             * NOMINAL_REFERENCE_IMPORT_S)
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        if entry["name"] in values:
            metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        else:
            missing.setdefault(entry["name"], "not measured by this workload run")
    also = {metric: {"value": values[metric], "unit": unit}
            for metric, unit in REPORT_UNITS.items() if metric in values}
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "setup_samples_s": samples,
        "reference_import_samples_s": references,
        "rounds": measured["rounds"],
        "round_walls_s": measured["round_walls_s"],
        "jobs_per_round": measured["jobs_per_round"],
        "item": measured["item"],
        "workers": measured["workers"],
        "tail": tail,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "failures": measured["failures"],
        "missing": missing,
        "metrics": metrics,
        "also_measured": also,
    }


def report(record: dict, env: dict) -> None:
    """Human-readable lines: every metric by name with its unit, then problems."""
    name = record["workload"]
    print(f"== {name} (seed {record['seed']}, trace {record['trace']}, "
          f"{record['rounds']} rounds of {record['jobs_per_round']} jobs, "
          f"workers={record['workers']})")
    for metric, entry in [*record["metrics"].items(), *record["also_measured"].items()]:
        label = metric
        if metric.startswith("throughput_per_"):
            unit = metric.rsplit("_", 1)[1]
            label = f"{metric} ({THROUGHPUT_NAMES[record['item']]}_{unit})"
        print(f"  {label:<46} {entry['value']:>16.6g} {entry['unit']}")
    if record["tail"]:
        print(f"  {'call_phigh_ms is the percentile':<46} {record['tail']['percentile']:>16g} "
              f"of {record['tail']['calls']} calls")
    failed_frac = record["failed"] / record["attempted"]
    print(f"  {'failed_frac':<46} {failed_frac:>16.6g} "
          f"({record['failed']} of {record['attempted']} jobs)")
    for reason in record["failures"]:
        print(f"  FAILED {reason}")
    for metric, reason in record["missing"].items():
        print(f"  MISSING {metric}: {reason}")
    print("  env " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as source:
        spec = json.load(source)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fqx" / "__init__.py").is_file():
        print(f"error: no fqx sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, args.trace, spec)
            record["env"] = env
            report(record, env)
            kind = "trace" if args.trace else "e2e"
            with open(OUT / f"result-{name}-seed{args.seed}-{kind}.json", "w") as sink:
                json.dump(record, sink, indent=1)
            records.append(record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def qualified(record, metric):
        return metric if len(records) == 1 else f"{record['workload']}.{metric}"

    summary = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {qualified(r, m): v for r in records for m, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
