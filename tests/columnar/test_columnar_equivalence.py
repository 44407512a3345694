"""The columnar headline contract, held to sha256: ``run_columnar`` is
digest-identical to the serial object path ``CohortSimulation.run()``
across every (seed, cohort size, worker count) in the sweep — and
identical not just in the records but in the paper artifacts (Table 1,
Fig 2) rendered from them.

This is the differential harness the columnar engine is *proven* by:
any divergence in RNG replay, admission sweeps, emission closed forms,
or the canonical merge changes at least one record field, and the key
coverage of ``canonical_sort_key`` guarantees a changed field changes
the digest.
"""

import pytest

from repro.columnar import run_columnar
from repro.core import (
    CohortSimulation,
    fig2_cost_distribution,
    records_digest,
    scaled_course,
    table1,
)
from repro.core.cohort import CohortConfig
from repro.core.course import COURSE

SEEDS = (42, 7, 1337)
WORKERS = (1, 2, 4)
#: size name -> course; "one" is the degenerate single-student cohort,
#: "x4" is 764 students (above the paper scale the object path serves).
SIZES = {
    "one": scaled_course(1.0 / 191.0),
    "paper": COURSE,
    "x4": scaled_course(4.0),
}


@pytest.fixture(scope="module")
def serial_digests():
    """Serial reference digests for every (size, seed), computed once."""
    out = {}
    for size, course in SIZES.items():
        for seed in SEEDS:
            records = CohortSimulation(course, CohortConfig(seed=seed)).run()
            out[(size, seed)] = records_digest(records)
    return out


@pytest.fixture(scope="module")
def serial_full():
    """The paper's 191-student cohort, serial reference records."""
    return CohortSimulation().run()


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("size", sorted(SIZES))
def test_columnar_digest_matches_serial(serial_digests, size, seed, workers):
    run = run_columnar(SIZES[size], CohortConfig(seed=seed), workers=workers)
    assert run.digest == serial_digests[(size, seed)]


def test_columnar_records_equal_not_just_digest(serial_full):
    """Record-by-record equality at paper scale — guards against a digest
    collision ever masking a divergence in the sweep above."""
    run = run_columnar(COURSE, CohortConfig(), collect_records=True)
    assert run.record_list == serial_full


def test_labs_only_matches_serial():
    serial = CohortSimulation(COURSE, CohortConfig()).run(include_project=False)
    run = run_columnar(COURSE, CohortConfig(), include_project=False)
    assert run.digest == records_digest(serial)


def test_paper_artifacts_identical_from_columnar_records(serial_full):
    """Table 1 and Fig 2 rendered from columnar records are byte-identical
    to the serial renders — the artifact level the paper is judged at."""
    run = run_columnar(COURSE, CohortConfig(), collect_records=True)

    t_serial, t_columnar = table1(serial_full), table1(run.record_list)
    assert t_columnar.render() == t_serial.render()
    assert t_columnar.totals == t_serial.totals

    f_serial = fig2_cost_distribution(serial_full)
    f_columnar = fig2_cost_distribution(run.record_list)
    assert f_columnar.render() == f_serial.render()
    assert f_columnar.aws == f_serial.aws
    assert f_columnar.gcp == f_serial.gcp


def test_unit_hours_match_serial_exactly(serial_full):
    """The streamed fsum total equals the object path's fsum total with
    zero tolerance — both are correctly-rounded sums of the same multiset."""
    from repro.parallel import total_unit_hours

    run = run_columnar(COURSE, CohortConfig())
    assert run.unit_hours == total_unit_hours(serial_full)


def test_different_seed_changes_columnar_output():
    """Anti-vacuity guard: the digest must actually see the seed."""
    a = run_columnar(SIZES["one"], CohortConfig(seed=SEEDS[0]))
    b = run_columnar(SIZES["one"], CohortConfig(seed=SEEDS[1]))
    assert a.digest != b.digest

