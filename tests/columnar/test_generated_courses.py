"""The cohort contract on generated course shapes, not one course at many sizes.

Every other cohort equivalence test runs ``COURSE`` or ``scaled_course(k)``,
which share one lab structure.  DESIGN §11 states the contract for any
course, so a derandomized Hypothesis strategy builds courses from the
paper course's labs: a subset in any order, each lab moved to any week
and given its own flavor, VM count, sigma, slot hours, mean slots,
storage and an id that ``repr`` quotes or escapes; 1 to 60 students;
semesters of 10 to 16 weeks.  On each, ``run_columnar`` must reproduce
the serial testbed's records digest, fault-free and under the verify
gate's cohort fault plan.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.inventory import CHAMELEON_FLAVORS
from repro.columnar import run_columnar
from repro.core import CohortSimulation, records_digest, scaled_course
from repro.core.cohort import CohortConfig
from repro.core.course import COURSE, LabKind
from repro.faults.plan import build_fault_calendar
from repro.faults.sweep import FaultSweep
from repro.verify.gates import COHORT_FAULTS

#: Appended to a lab id: nothing, a quote (repr switches to double
#: quotes), both quotes (repr escapes one) and non-ASCII letters.  The
#: paper's lab ids are not prefixes of one another, so ids stay unique.
ID_SUFFIXES = ("", "'", "é", "'ü\"")


@st.composite
def courses(draw):
    weeks = draw(st.integers(10, 16))
    enrollment = draw(st.integers(1, 60))
    order = draw(
        st.lists(st.integers(0, len(COURSE.labs) - 1), unique=True, max_size=len(COURSE.labs))
    )
    shaped = []
    for lab in (COURSE.labs[i] for i in order):
        changes = dict(
            id=lab.id + draw(st.sampled_from(ID_SUFFIXES)),
            week=draw(st.integers(0, weeks - 1)),
            block_gb=draw(st.integers(0, 4)),
            object_gb=draw(st.sampled_from((0.0, 0.5, 1.2, 3.0))),
        )
        if lab.kind is LabKind.VM:
            changes.update(
                flavor=draw(st.sampled_from(sorted(CHAMELEON_FLAVORS))),
                vm_count=draw(st.integers(1, 5)),
                sigma=draw(st.floats(0.05, 2.5)),
            )
        else:
            changes.update(
                slot_hours=draw(st.floats(0.25, 8.0)),
                mean_slots=draw(st.floats(0.0, 12.0)),
            )
        shaped.append(dataclasses.replace(lab, **changes))
    base = scaled_course(enrollment / COURSE.enrollment)
    return dataclasses.replace(base, labs=tuple(shaped), semester_weeks=weeks)


@pytest.mark.parametrize("faulted", (False, True), ids=("fault-free", "faulted"))
@settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(course=courses(), seed=st.integers(0, 2**32 - 1))
def test_columnar_digest_matches_serial_on_generated_courses(faulted, course, seed):
    def faults():  # a sweep applies once, so each run takes its own
        if not faulted:
            return None
        return FaultSweep(build_fault_calendar(COHORT_FAULTS, horizon_hours=course.semester_hours))

    config = CohortConfig(seed=seed)
    serial = records_digest(CohortSimulation(course, config, faults=faults()).run())
    assert run_columnar(course, config, faults=faults()).digest == serial
