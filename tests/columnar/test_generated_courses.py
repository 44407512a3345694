"""The cohort contract on generated course shapes, not one course at many sizes.

Every other cohort equivalence test runs ``COURSE`` or ``scaled_course(k)``,
which share one lab structure.  DESIGN §11 states the contract for any
course, so a derandomized Hypothesis strategy builds courses from the
paper course's labs: a subset in any order, each lab moved to any week
and given its own flavor, VM count, sigma, slot hours, mean slots,
storage and an id that ``repr`` quotes or escapes; 1 to 60 students;
semesters of 10 to 16 weeks.  On each, ``run_columnar`` must reproduce
the serial testbed's records digest, fault-free and under the verify
gate's cohort fault plan, and its records must price: Table 1, Figs 1-3
and the headline render without raising, and each lab is priced or NA.

Some examples also shrink the KVM compute quota and cut every node
type's count, in the admission sweeps and in the testbed alike (patched
in the test body, as ``test_columnar_properties.py`` does), so that the
serial run enforces the same limits and referees the exact replays.
Over each mode's examples, each sweep's fast path must both hold and
fail.  Over both modes' examples together, the draw replay must send
students to the scalar loop for each of its two reasons: a Poisson mean
at numpy's multiplication limit, and a short word block.  Two explicit
examples meet all of these on their own: Hypothesis derives the
derandomized draws from the test's source, so any edit to it redraws
them.
"""

import dataclasses
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.cloud.testbed
from repro.cloud.inventory import CHAMELEON_FLAVORS
from repro.cloud.quota import Quota
from repro.columnar import admission, run_columnar
from repro.core import CohortSimulation, CostModel, records_digest, scaled_course
from repro.core.cohort import CohortConfig, SlotCalendar
from repro.core.course import COURSE, LabKind
from repro.core.report import (
    fig1_duration_data,
    fig2_cost_distribution,
    fig3_project_usage,
    headline_summary,
    table1,
)
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


#: The compute quota's share left (the volume dimensions stay put:
#: project storage is held unconditionally, so shrinking them only makes
#: the serial run raise), and the divisor of every node type's count.
QUOTA_SHARES = (1.0, 0.1, 0.03, 0.01)
NODE_DIVISORS = (1, 2, 4, 8)


def _tight(share: float, divisor: int):
    """Patches that shrink the quota by ``share`` and cut node counts by
    ``divisor``, for the sweeps and the testbed both."""
    base = Quota.course_quota()
    shrunk = dataclasses.replace(
        base,
        instances=base.instances * share,
        cores=base.cores * share,
        ram_gib=base.ram_gib * share,
        floating_ips=base.floating_ips * share,
    )

    class _ReducedCalendar:
        capacity = {name: max(1, cap // divisor) for name, cap in SlotCalendar().capacity.items()}

    def cut(types):
        return {
            name: dataclasses.replace(t, count_available=max(1, t.count_available // divisor))
            for name, t in types.items()
        }

    testbed = repro.cloud.testbed
    return (
        patch.object(Quota, "course_quota", classmethod(lambda cls: shrunk)),
        patch.object(admission, "SlotCalendar", _ReducedCalendar),
        patch.object(testbed, "CHAMELEON_NODE_TYPES", cut(testbed.CHAMELEON_NODE_TYPES)),
        patch.object(testbed, "EDGE_DEVICE_TYPES", cut(testbed.EDGE_DEVICE_TYPES)),
    )


def _slot_heavy(enrollment: int, mean_slots: float):
    """The paper's labs for ``enrollment`` students, every non-VM lab at
    ``mean_slots`` mean slots."""
    base = scaled_course(enrollment / COURSE.enrollment)
    labs = tuple(
        lab if lab.kind is LabKind.VM else dataclasses.replace(lab, mean_slots=mean_slots)
        for lab in base.labs
    )
    return dataclasses.replace(base, labs=labs)


@pytest.fixture
def fast_paths():
    """Each sweep's fast-path verdicts over one test's examples: both must
    occur, so that the examples reach both exact replays."""
    seen: dict[str, set[bool]] = {"quota_fast_path": set(), "lease_fast_path": set()}
    yield seen
    assert seen == {"quota_fast_path": {True, False}, "lease_fast_path": {True, False}}


@pytest.fixture(scope="module")
def draw_fallbacks():
    """The draw replay's counts per mode, summed over its examples.  Once
    both modes have run, each student fallback must have fired.  A
    group's short word block does not occur here (a group must reject
    three of its four normals); ``test_draw_replay.py::
    test_short_word_block_is_redrawn`` covers it."""
    by_mode: dict[bool, Counter[str]] = {}
    yield by_mode
    if len(by_mode) == 2:
        total = sum(by_mode.values(), Counter())
        assert total["students_lam_limit"] and total["students_short_block"], dict(total)


@pytest.mark.parametrize("faulted", (False, True), ids=("fault-free", "faulted"))
@settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    course=courses(),
    seed=st.integers(0, 2**32 - 1),
    share=st.sampled_from(QUOTA_SHARES),
    divisor=st.sampled_from(NODE_DIVISORS),
)
# both fast paths hold in both modes
@example(course=scaled_course(5 / COURSE.enrollment), seed=0, share=1.0, divisor=1)
# both fail in both modes; 5 students reach the Poisson limit, 4 run out of words
@example(course=_slot_heavy(10, 12.0), seed=0, share=0.01, divisor=8)
def test_columnar_digest_matches_serial_on_generated_courses(
    fast_paths, draw_fallbacks, faulted, course, seed, share, divisor
):
    def faults():  # a sweep applies once, so each run takes its own
        if not faulted:
            return None
        return FaultSweep(build_fault_calendar(COHORT_FAULTS, horizon_hours=course.semester_hours))

    config = CohortConfig(seed=seed)
    quota, calendar, nodes, devices = _tight(share, divisor)
    with quota, calendar, nodes, devices:
        serial = records_digest(CohortSimulation(course, config, faults=faults()).run())
        run = run_columnar(course, config, faults=faults(), collect_records=True)
    assert run.digest == serial
    for sweep, held in run.sweep_info.items():
        fast_paths[sweep].add(held)
    draw_fallbacks.setdefault(faulted, Counter()).update(run.draw_info)
    _prices_without_raising(course, run.record_list)


def _prices_without_raising(course, records):
    """Every artifact renders, and a Table 1 cost is NA exactly where the
    lab has no commercial equivalent."""
    model = CostModel(course)
    t1 = table1(records, course=course, model=model)
    for artifact in (t1, fig1_duration_data(records, course=course),
                     fig2_cost_distribution(records, course=course, model=model),
                     fig3_project_usage(records, course=course, model=model)):
        assert artifact.render()
    assert headline_summary(records, course=course)
    for row in t1.rows:
        for provider, cost in (("aws", row.aws_cost), ("gcp", row.gcp_cost)):
            assert (cost is None) == (model.lab_equivalent(row.lab_id, provider) is None)
