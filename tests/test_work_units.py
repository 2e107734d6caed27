"""Work units and worker counts: validation, the pool-size clamp and the kept pool.

No test here starts more than four processes.
"""

import collections
import itertools
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

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
from fqx import experiment, kernels
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


def test_pool_size_is_clamped_to_cpus_and_units(two_cpus):
    cpus = os.cpu_count() or 1
    assert _pool_size(1, 5) == 1
    assert _pool_size(10**6, 10**6) == cpus
    assert _pool_size(10**6, 1) == 1
    assert _pool_size(2, 3) == min(2, cpus)
    assert _pool_size(10**6, 3) == min(3, cpus)


def test_pool_size_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _pool_size(10**6, 10**6) == 1


def test_units_are_at_most_the_processes(monkeypatch):
    # workers far past the CPUs: the work is dealt into one unit per process
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    _close_pool()
    units = []
    sum_units = experiment._sum_units

    def spy(run_unit, work, workers):
        units.append(len(work))
        return sum_units(run_unit, work, workers)

    space, predicate = SpaceSpec(F2, 1, 2, 63), Predicate.unimodular()
    serial = exhaustive_census(space, predicate).hits
    serial_mc = monte_carlo(space, predicate, 9 * 1024 + 5, seed=3).hits
    monkeypatch.setattr(experiment, "_sum_units", spy)
    try:
        assert exhaustive_census(space, predicate, workers=10**6).hits == serial
        assert monte_carlo(space, predicate, 9 * 1024 + 5, seed=3, workers=10**6).hits == serial_mc
        assert len(_pool_pids()) <= 2
    finally:
        _close_pool()
    assert units == [2, 2]


def test_many_workers_on_a_small_space_keep_the_count():
    # N + 1 = 4 work units, so at most four processes
    space = SpaceSpec(F2, 1, 2, 3)
    predicate = Predicate.unimodular()
    serial = exhaustive_census(space, predicate)
    assert exhaustive_census(space, predicate, workers=10**6).hits == serial.hits


# ---------------------------------------------------------------------------
# the pool this process keeps: at most two processes per test


def _close_pool():
    """Drop the kept pool and wait for its workers to exit."""
    experiment._drop_pool()
    deadline = time.monotonic() + 5
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


@pytest.fixture
def two_cpus(monkeypatch):
    """No pool at the start, at most two processes in one, and none left after.

    Two CPUs in the affinity mask as well, so that a pool starts under a
    mask of one CPU too.
    """
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    _close_pool()
    yield
    _close_pool()


def _pid_after_a_nap(_):
    time.sleep(0.2)  # long enough that each worker takes one unit
    return os.getpid()


def _raise(_):
    raise ArithmeticError("unit failed")


def _pool_pids():
    return sorted(p.pid for p in multiprocessing.active_children())


def test_one_process_runs_in_the_caller(monkeypatch):
    # one unit, or one CPU, starts no pool
    def no_pool(size):
        raise AssertionError(f"a pool of {size} for one process")

    space, predicate = SpaceSpec(F2, 1, 1, 0), Predicate.unimodular()
    serial = exhaustive_census(space, predicate).hits
    space_mc = SpaceSpec(F2, 1, 2, 15)
    chunk = experiment.CHUNK_SAMPLES
    serial_mc = monte_carlo(space_mc, predicate, chunk, seed=5).hits
    monkeypatch.setattr(experiment, "_shared_pool", no_pool)
    assert exhaustive_census(space, predicate, workers=2).hits == serial
    assert monte_carlo(space_mc, predicate, chunk, seed=5, workers=2).hits == serial_mc
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert monte_carlo(space_mc, predicate, 5 * chunk, seed=5, workers=3).hits == \
        monte_carlo(space_mc, predicate, 5 * chunk, seed=5).hits


def test_later_calls_reuse_the_pool_and_its_workers(two_cpus):
    first = experiment._sum_units(_pid_after_a_nap, [0, 1], 2)
    pids = _pool_pids()
    assert len(pids) == 2 and first == sum(pids)
    assert experiment._sum_units(_pid_after_a_nap, [0, 1], 2) == first
    assert _pool_pids() == pids


def test_the_pool_never_outgrows_the_cpus(two_cpus):
    space, predicate = SpaceSpec(F2, 1, 2, 7), Predicate.unimodular()  # eight units
    serial = exhaustive_census(space, predicate).hits
    seen = set()
    for workers in (2, 3, 7):
        assert exhaustive_census(space, predicate, workers=workers).hits == serial
        pids = _pool_pids()
        assert len(pids) <= os.cpu_count()
        seen.update(pids)
    assert len(seen) == 2  # one pool served all three


def test_a_raising_unit_drops_the_pool(two_cpus):
    with pytest.raises(ArithmeticError, match="unit failed"):
        experiment._sum_units(_raise, [0, 1], 2)
    assert experiment._pool is None
    assert experiment._sum_units(_pid_after_a_nap, [0, 1], 2) == sum(_pool_pids())


def test_a_killed_worker_is_replaced_on_the_next_call(two_cpus):
    space = SpaceSpec(F3, 1, 2, 8)
    predicate = Predicate.coprime_to(IrreducibleSet(F3, [gen(F3)]))
    serial = exhaustive_census(space, predicate).hits
    assert exhaustive_census(space, predicate, workers=2).hits == serial
    victim = multiprocessing.active_children()[0]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(5)
    assert exhaustive_census(space, predicate, workers=2).hits == serial
    assert victim.pid not in _pool_pids()


def _report_a_fresh_pool(queue):
    _, fresh = experiment._shared_pool(2)  # no work submitted, so no process
    queue.put(fresh)
    experiment._drop_pool()


def test_a_forked_child_never_uses_its_parents_pool(two_cpus):
    experiment._sum_units(_pid_after_a_nap, [0, 1], 2)
    context = multiprocessing.get_context("fork")
    queue = context.SimpleQueue()
    child = context.Process(target=_report_a_fresh_pool, args=(queue,))
    child.start()
    child.join(10)
    assert child.exitcode == 0 and queue.get() is True


_MAKE_POOL_THEN_END = """
import multiprocessing, os, signal, sys
os.cpu_count = lambda: 2
os.sched_getaffinity = lambda pid: {0, 1}
import fqx
space = fqx.SpaceSpec(fqx.field_from_order(2), 1, 2, 3)
fqx.exhaustive_census(space, fqx.Predicate.unimodular(), workers=2)
print(*[p.pid for p in multiprocessing.active_children()], flush=True)
if sys.argv[1] == "kill":
    os.kill(os.getpid(), signal.SIGKILL)
"""


def _running(pid):
    """Whether pid names a live process; a zombie has exited."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
@pytest.mark.parametrize("ending", ["kill", "exit"])
def test_no_worker_outlives_the_process_that_made_the_pool(ending):
    src = str(Path(experiment.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # the workers share the pipe, so read one line and do not wait for its end
    proc = subprocess.Popen([sys.executable, "-c", _MAKE_POOL_THEN_END, ending],
                            stdout=subprocess.PIPE, text=True, env=env)
    with proc.stdout:
        pids = [int(v) for v in proc.stdout.readline().split()]
    assert proc.wait(timeout=60) == (-signal.SIGKILL if ending == "kill" else 0)
    assert len(pids) == 2
    deadline = time.monotonic() + 5
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, pids))


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
# (k, n, N): one and two rows of one to four columns; every census runs in pages
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
        if predicate.kind == "unimodular":
            moduli = kernels._local_moduli(spec, kernels._local_gate(spec, k, N)[0])
        else:
            moduli = list(predicate.payload) if predicate.kind == "coprime" else [predicate.payload]
        classes = math.prod(spec.q**f.degree for f in moduli)  # residue vectors
        assert (merged != 1).any() == (N + 1 > classes)


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
    chosen = []
    choose = experiment.choose_kernel

    def spy(*args):
        chosen.append(choose(*args))
        return chosen[-1]

    monkeypatch.setattr(experiment, "choose_kernel", spy)
    tester = compile_index_predicate(spec, 1, 2, N, "unimodular", None)
    expected = sum(map(tester, itertools.product(range(N + 1), repeat=2)))
    assert exhaustive_census(SpaceSpec(spec, 1, 2, N), Predicate.unimodular()).hits == expected
    # the lanes, not the wrapped scalar tester, exactly when they pay
    assert [not kernel.scalar for kernel in chosen] == [multisets >= setup]


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
        monkeypatch.setattr(kernels, "compile_lanes", _recording_lanes(sizes))
        hits = monte_carlo(space, predicate, samples, seed=13).hits
        assert hits == _page_at_a_time(spec, k, n, N, predicate, samples, seed=13)
        # consecutive whole pages, as many as fit the page rows, at least one
        counts = [count for _, count in experiment._page_plan(samples)]
        assert sizes == [sum(counts[lo : lo + group]) for lo in range(0, len(counts), group)]
        assert max(sizes) <= max(page_rows, chunk)
