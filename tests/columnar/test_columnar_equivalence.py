"""The columnar headline contract, held to sha256: ``run_columnar`` is
digest-identical to the serial object path ``CohortSimulation.run()``
across every (seed, cohort size) in the sweep — and
identical not just in the records but in the paper artifacts (Table 1,
Fig 2) rendered from them.

This is the differential harness the columnar engine is *proven* by:
any divergence in RNG replay, admission sweeps, emission closed forms,
or the canonical merge changes at least one record field, and the key
coverage of ``canonical_sort_key`` guarantees a changed field changes
the digest.
"""

import dataclasses

import pytest

from repro.columnar import run_columnar
from repro.common.numerics import stable_sum
from repro.core import (
    CohortSimulation,
    fig1_duration_data,
    fig2_cost_distribution,
    fig3_project_usage,
    records_digest,
    scaled_course,
    table1,
)
from repro.core.cohort import CohortConfig
from repro.core.course import COURSE, LabKind
from repro.faults.plan import build_fault_calendar
from repro.faults.sweep import FaultSweep
from repro.parallel.engine import run_parallel
from repro.verify.gates import COHORT_FAULTS

SEEDS = (42, 7, 1337)
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


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("size", sorted(SIZES))
def test_columnar_digest_matches_serial(serial_digests, size, seed):
    run = run_columnar(SIZES[size], CohortConfig(seed=seed))
    assert run.digest == serial_digests[(size, seed)]


def test_columnar_records_equal_not_just_digest(serial_full):
    """Record-by-record equality at paper scale — guards against a digest
    collision ever masking a divergence in the sweep above."""
    run = run_columnar(COURSE, CohortConfig(), collect_records=True)
    assert run.record_list == serial_full


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
    run = run_columnar(COURSE, CohortConfig())
    assert run.unit_hours == stable_sum(rec.unit_hours for rec in serial_full)


def test_different_seed_changes_columnar_output():
    """Anti-vacuity guard: the digest must actually see the seed."""
    a = run_columnar(SIZES["one"], CohortConfig(seed=SEEDS[0]))
    b = run_columnar(SIZES["one"], CohortConfig(seed=SEEDS[1]))
    assert a.digest != b.digest



# -- courses without a lab kind ------------------------------------------------------

_QUARTER = scaled_course(0.25)
#: A course with only VM labs, and one with only reserved and edge labs,
#: with their digests at seed 0, fault-free and under the verify gate's
#: cohort fault plan.  The pins are the digests both courses had before
#: the planner replayed the draws as array code, which first failed on
#: these shapes (an empty stack of per-lab columns).
LAB_SHAPES = {
    "vm-only": (
        dataclasses.replace(
            _QUARTER, labs=tuple(lab for lab in _QUARTER.labs if lab.kind is LabKind.VM)
        ),
        {
            False: "057ac8bfd49787c2e3e959a44a5fcd0946f706d1fa8585734aded6bdd16f3168",
            True: "785cb59d36d1fa928f8fdf39ff2d13ef62eb168d58a3b15988b505c6c0e6f1eb",
        },
    ),
    "reserved-only": (
        dataclasses.replace(
            _QUARTER, labs=tuple(lab for lab in _QUARTER.labs if lab.kind is not LabKind.VM)
        ),
        {
            False: "497066d2e58baec399fed6e1ace9657cfd12c3ee01f3db2449ff0699ff307985",
            True: "805cf859aca30e6ef2f2f96e8651300894ead7849a45b1bf72c313e51f356fe7",
        },
    ),
}


@pytest.mark.parametrize("faulted", (False, True), ids=("fault-free", "faulted"))
@pytest.mark.parametrize("shape", sorted(LAB_SHAPES))
def test_course_without_a_lab_kind_runs_on_every_engine(shape, faulted):
    course, pins = LAB_SHAPES[shape]
    config = CohortConfig(seed=0)

    def faults():  # a sweep applies once, so each run takes its own
        if not faulted:
            return None
        calendar = build_fault_calendar(COHORT_FAULTS, horizon_hours=course.semester_hours)
        return FaultSweep(calendar)

    serial = CohortSimulation(course, config, faults=faults()).run()
    assert records_digest(serial) == pins[faulted]
    assert records_digest(run_parallel(course, config, workers=2, faults=faults())) == pins[faulted]
    assert run_columnar(course, config, faults=faults()).digest == pins[faulted]
    for artifact in (table1, fig1_duration_data, fig2_cost_distribution, fig3_project_usage):
        assert artifact(serial, course=course).render()
