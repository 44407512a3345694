"""The headline contract, held to sha256: ``run_parallel(workers=N)`` is
digest-identical to the serial ``CohortSimulation.run()`` for every seed,
worker count, and cohort size we sweep — and identical not just in the raw
records but in the paper artifacts (Table 1, Fig 2) rendered from them.
"""

import pytest

from repro.core import (
    CohortSimulation,
    fig2_cost_distribution,
    records_digest,
    scaled_course,
    table1,
)
from repro.core.cohort import CohortConfig
from repro.core.course import COURSE
from repro.parallel import run_parallel

#: 48-student cohort: small enough to sweep seeds x workers cheaply.
SMALL = scaled_course(0.25)
SEEDS = (42, 7, 1234)
WORKERS = (1, 2, 4)


@pytest.fixture(scope="module")
def serial_small():
    """Serial reference records per seed, computed once for the sweep."""
    return {
        seed: CohortSimulation(SMALL, CohortConfig(seed=seed)).run() for seed in SEEDS
    }


@pytest.fixture(scope="module")
def serial_full():
    """The paper's full 191-student cohort, serial reference."""
    return CohortSimulation().run()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workers", WORKERS)
def test_parallel_digest_matches_serial_small_cohort(serial_small, seed, workers):
    parallel = run_parallel(SMALL, CohortConfig(seed=seed), workers=workers)
    assert records_digest(parallel) == records_digest(serial_small[seed])


def test_parallel_records_equal_not_just_digest(serial_small):
    """Record-by-record equality — guards against a digest collision ever
    masking a divergence in the sweep above."""
    parallel = run_parallel(SMALL, CohortConfig(seed=SEEDS[0]), workers=2)
    assert parallel == serial_small[SEEDS[0]]


@pytest.mark.parametrize("workers", (2, 4))
def test_parallel_digest_matches_serial_full_cohort(serial_full, workers):
    parallel = run_parallel(COURSE, CohortConfig(), workers=workers)
    assert records_digest(parallel) == records_digest(serial_full)


def test_paper_artifacts_identical_from_parallel_records(serial_full):
    """Table 1 and Fig 2 rendered from parallel records are byte-identical
    to the serial renders — the artifact level the paper is judged at."""
    parallel = run_parallel(COURSE, CohortConfig(), workers=2)

    t_serial, t_parallel = table1(serial_full), table1(parallel)
    assert t_parallel.render() == t_serial.render()
    assert t_parallel.totals == t_serial.totals

    f_serial = fig2_cost_distribution(serial_full)
    f_parallel = fig2_cost_distribution(parallel)
    assert f_parallel.render() == f_serial.render()
    assert f_parallel.aws == f_serial.aws
    assert f_parallel.gcp == f_serial.gcp


def test_different_seed_changes_parallel_output():
    """Anti-vacuity guard: the digest must actually see the seed."""
    a = run_parallel(SMALL, CohortConfig(seed=SEEDS[0]), workers=2)
    b = run_parallel(SMALL, CohortConfig(seed=SEEDS[1]), workers=2)
    assert records_digest(a) != records_digest(b)
