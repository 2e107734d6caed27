"""Work units and worker counts: validation and the pool-size clamp.

No test here starts a pool of more than four processes.
"""

import os

import pytest

from fqx import Predicate, SpaceSpec, exhaustive_census, make_field, monte_carlo
from fqx.experiment import _pool_size

F2 = make_field(2)


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
    # N + 1 = 4 prefix groups of one index each, so at most four processes
    space = SpaceSpec(F2, 1, 2, 3)
    predicate = Predicate.unimodular()
    serial = exhaustive_census(space, predicate)
    assert exhaustive_census(space, predicate, workers=10**6).hits == serial.hits
