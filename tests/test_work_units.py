"""Work units and worker counts: validation and the pool-size clamp.

No test here starts a pool of more than seven processes.
"""

import itertools
import os

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
)
from fqx.experiment import _pool_size
from fqx.kernels import compile_index_predicate

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
