"""The planner's raw tables against a scalar reference, row for row.

``plan_columns`` replays the per-student streams in bulk: one uniform
plus a ``bisect_right`` stands in for ``Generator.choice(p=...)``, and
the slot calendar walk is closed-form cursor arithmetic.  The reference
below plans the same semester one draw and one booking at a time: it
calls ``choice`` itself, spawns the seed tree instead of reconstructing
it, and books every slot through ``SlotCalendar.next_start``, lab by
lab, students in order within each lab, then the project groups.
"""

import numpy as np
import pytest

from repro.columnar.planner import _raw_tables
from repro.columnar.schema import SITE_NAMES
from repro.core.cohort import CohortConfig, SlotCalendar, draw_cohort_level
from repro.core.course import COURSE, EDGE_SITE, METAL_SITE, LabKind, scaled_course

SIZES = {"one": scaled_course(1.0 / 191.0), "quarter": scaled_course(0.25), "paper": COURSE}


def reference_rows(course, config):
    """Pre-admission activity rows per family, in the tables' row order."""
    n, project = course.enrollment, course.project
    cohort_ss, student_root, group_root = np.random.SeedSequence(config.seed).spawn(3)
    propensity, pools = draw_cohort_level(course, config, np.random.default_rng(cohort_ss))
    draws = []  # per student: VM lab -> (participates, start jitter, score); reserved -> types
    for i, ss in enumerate(student_root.spawn(n)):
        rng, d = np.random.default_rng(ss), {}
        for lab in course.labs:
            if lab.kind is LabKind.VM:
                d[lab.id] = (
                    rng.random() < config.participation,
                    float(rng.uniform(0.0, 96.0)),
                    float(rng.lognormal(0.0, 0.5)),
                )
            else:
                count = int(rng.poisson(lab.mean_slots * float(propensity[i])))
                names = [o.node_type for o in lab.options]
                weights = np.array([o.weight for o in lab.options])
                d[lab.id] = [str(rng.choice(names, p=weights)) for _ in range(count)]
        draws.append(d)

    vm, slots, calendar = [], [], SlotCalendar()
    for lab in course.labs:
        if lab.kind is LabKind.VM:
            scores = propensity * np.array([d[lab.id][2] for d in draws])
            assigned = np.empty(n)
            assigned[np.argsort(scores)] = pools[lab.id]
            dur = np.maximum(assigned, lab.expected_hours * 0.5)
            if config.vm_reaper:
                dur = np.minimum(dur, lab.expected_hours + config.vm_reaper_grace)
            for i, d in enumerate(draws):
                if d[lab.id][0]:
                    vm.append((i, lab.id, lab.week * 168.0 + d[lab.id][1], float(dur[i]),
                               lab.flavor, lab.vm_count, lab.block_gb, lab.object_gb))
        else:
            edge = lab.kind is LabKind.EDGE
            for i, d in enumerate(draws):
                for node in d[lab.id]:
                    start = calendar.next_start(node, lab.week * 168.0, lab.slot_hours)
                    slots.append((i, lab.id, node, start, lab.slot_hours,
                                  EDGE_SITE if edge else METAL_SITE, edge))
    position = {lab.id: k for k, lab in enumerate(course.labs)}
    vm.sort(key=lambda row: (row[0], position[row[1]]))
    slots.sort(key=lambda row: row[0])  # stable: keeps (lab, k) order per student

    g_count = project.groups
    start = (course.semester_weeks - project.weeks) * 168.0
    duration = project.weeks * 168.0
    pvm, leases, storage = [], [], []
    for g, ss in enumerate(group_root.spawn(g_count)):
        rng = np.random.default_rng(ss)
        jitter = float(rng.uniform(0.0, 48.0))
        for idx, (flavor, share) in enumerate(project.vm_flavor_shares):
            hours = project.vm_hours_total * share / g_count
            hours *= float(rng.lognormal(-0.02, 0.2))
            pvm.append((g, flavor, start + jitter, min(hours, duration - jitter), idx == 0))
        specs = [(node, 4.0, max(1, int(round(project.gpu_hours_total * share / g_count / 4.0))),
                  METAL_SITE) for node, share in project.gpu_type_shares]
        specs.append((project.baremetal_cpu_type, project.baremetal_cpu_hours / g_count, 1,
                      METAL_SITE))
        specs.append((project.edge_type, project.edge_hours / g_count, 1, EDGE_SITE))
        for node, hours, count, site in specs:
            for _ in range(count):
                leases.append((g, node, calendar.next_start(node, start, hours), hours, site,
                               site == EDGE_SITE))
        storage.append((g, start + jitter, duration - jitter,
                        int(round(project.block_storage_gb / g_count)),
                        project.object_storage_gb / g_count))
    return {"vm": vm, "slot": slots, "pvm": pvm, "pl": leases, "ps": storage}


def table_rows(tables, schema):
    """The planner's tables, decoded into the reference's row tuples."""
    labs, types = schema.lab_names, schema.rtype_names
    return {
        "vm": [(s, labs[lab], t, d, types[f], c, b, o)
               for s, lab, t, d, f, c, b, o in tables.rows("vm")],
        "slot": [(s, labs[lab], types[node], t, h, SITE_NAMES[site], e)
                 for s, lab, node, t, h, site, e in tables.rows("slot")],
        "pvm": [(g, types[f], t, h, fip) for g, f, t, h, fip in tables.rows("pvm")],
        "pl": [(g, types[node], t, h, SITE_NAMES[site], e)
               for g, node, t, h, site, e in tables.rows("pl")],
        "ps": list(tables.rows("ps")),
    }


@pytest.mark.parametrize("size", sorted(SIZES))
@pytest.mark.parametrize("seed", (42, 7, 1337))
def test_raw_tables_match_scalar_reference(seed, size):
    course, config = SIZES[size], CohortConfig(seed=seed)
    tables, schema, _ = _raw_tables(course, config)
    got = table_rows(tables, schema)
    want = reference_rows(course, config)
    assert want["slot"] and want["pl"]  # anti-vacuity: the walk booked slots
    for family in want:
        assert got[family] == want[family], family
