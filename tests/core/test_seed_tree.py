"""The seed-tree reconstruction helpers against numpy's spawn tree.

The planner rebuilds each stream from ``(seed, spawn_key)`` instead of
walking ``SeedSequence(seed).spawn(3)[k].spawn(n)``; the two must agree
bit for bit, or every seed-pinned digest silently changes meaning.
"""

import numpy as np
import pytest

from repro.core.cohort import cohort_seed_sequence, group_seed_sequence, student_seed_sequence

#: Students 0..9,549: the whole 50x cohort of the ``cohort-columnar`` benchmark.
N = 9_550


def state(seq: np.random.SeedSequence) -> list[int]:
    return seq.generate_state(4).tolist()


@pytest.mark.parametrize("seed", (0, 42, 2**63 + 5))
def test_reconstruction_matches_spawn_tree(seed):
    cohort, students, groups = np.random.SeedSequence(seed).spawn(3)
    assert state(cohort_seed_sequence(seed)) == state(cohort)
    assert [state(student_seed_sequence(seed, i)) for i in range(N)] == [
        state(child) for child in students.spawn(N)
    ]
    assert [state(group_seed_sequence(seed, i)) for i in range(N)] == [
        state(child) for child in groups.spawn(N)
    ]
