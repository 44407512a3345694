"""The planner's array replay of the student and group streams, byte for byte.

``_replay_students`` and ``_replay_groups`` run numpy's samplers on the
raw PCG64 words of every stream in a block at once.  Their reference is
the scalar loop each falls back to, which calls ``Generator.random``,
``lognormal``, ``poisson`` and ``uniform`` one draw at a time.  Every
comparison below is of dtype, shape and bytes.
"""

import numpy as np
import pytest

from repro.columnar import planner
from repro.common import numerics
from repro.core.cohort import (
    CohortConfig,
    cohort_seed_sequence,
    draw_cohort_level,
    group_seed_sequence,
    stream_words,
    student_seed_sequence,
)
from repro.core.course import COURSE, scaled_course

SEEDS = (0, 42, 2**40 + 7, 2**63 + 5)
SIZES = {"one": scaled_course(1.0 / 191.0), "paper": COURSE, "fifty": scaled_course(50.0)}


def assert_same(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert got[key].shape == want[key].shape, key
        assert got[key].tobytes() == want[key].tobytes(), key


def assert_same_tables(got, want) -> None:
    for name in want.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def scalar_raw_tables(monkeypatch, course, config):
    """``_raw_tables`` drawn by the scalar loops over one block: the reference."""
    with monkeypatch.context() as patch:
        patch.setattr(planner, "_REPLAY_ROWS", max(course.enrollment, course.project.groups))
        patch.setattr(planner, "_replay_students", planner._scalar_student_draws)
        patch.setattr(planner, "_replay_groups", planner._scalar_group_draws)
        return planner._raw_tables(course, config, workers=1)[0]


def propensity(course, config):
    rng = np.random.default_rng(cohort_seed_sequence(config.seed))
    return draw_cohort_level(course, config, rng)[0]


def student_pair(course, config, lo, hi, prop=None):
    """(replayed, scalar) draws of students [lo, hi)."""
    prop = propensity(course, config)[lo:hi] if prop is None else prop
    got = planner._student_range_draws((course, config, lo, hi, prop))
    return got, planner._scalar_student_draws(course, config, np.arange(lo, hi), prop)


@pytest.fixture
def redrawn(monkeypatch):
    """Records the rows each scalar fallback is called with."""
    rows = {"students": [], "groups": []}
    scalar_students, scalar_groups = planner._scalar_student_draws, planner._scalar_group_draws

    def students(course, config, which, prop):
        rows["students"] += which.tolist()
        return scalar_students(course, config, which, prop)

    def groups(course, config, which):
        rows["groups"] += which.tolist()
        return scalar_groups(course, config, which)

    monkeypatch.setattr(planner, "_scalar_student_draws", students)
    monkeypatch.setattr(planner, "_scalar_group_draws", groups)
    return rows, scalar_students, scalar_groups


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_replay_equals_scalar_loop(seed, size):
    course, config = SIZES[size], CohortConfig(seed=seed)
    n, g = course.enrollment, course.project.groups
    for lo in sorted({0, n // 3}):
        assert_same(*student_pair(course, config, lo, n))
    for lo in sorted({0, g // 3}):
        got = planner._group_range_draws((course, config, lo, g))
        assert_same(got, planner._scalar_group_draws(course, config, np.arange(lo, g)))


def test_block_boundaries_are_invisible(monkeypatch):
    """Seven-row blocks (some with no slot in a lab) reassemble exactly."""
    course, config = COURSE, CohortConfig(seed=3)
    want = scalar_raw_tables(monkeypatch, course, config)
    monkeypatch.setattr(planner, "_REPLAY_ROWS", 7)
    assert_same_tables(planner._raw_tables(course, config, workers=1)[0], want)


@pytest.mark.parametrize("workers", (1, 3))
@pytest.mark.parametrize("seed", (0, 2**63 + 5))
def test_raw_tables_equal_the_scalar_loops_at_any_worker_count(monkeypatch, seed, workers):
    """16-row blocks: three workers share 12 student and 3 group blocks."""
    course, config = COURSE, CohortConfig(seed=seed)
    want = scalar_raw_tables(monkeypatch, course, config)
    monkeypatch.setattr(planner, "_REPLAY_ROWS", 16)
    assert_same_tables(planner._raw_tables(course, config, workers=workers)[0], want)


# -- each way off the fast path -----------------------------------------------------


def test_strip_one_normal_is_redrawn(redrawn):
    """Strip 1's ``KI`` is 0: such a normal always takes numpy's slow path."""
    rows, scalar_students, scalar_groups = redrawn
    assert numerics.ZIGGURAT_KI[1] == 0
    words = np.array([1 | rabs << 9 for rabs in (0, 1, 2**51, 2**52 - 1)], dtype=np.uint64)
    assert not numerics.ziggurat_normals(words)[1].any()

    course, config = scaled_course(50.0), CohortConfig(seed=42)
    n, g = course.enrollment, course.project.groups
    # word 2 is a student's first normal; words 1.. are a group's normals
    strip_one = np.flatnonzero((stream_words(42, 1, np.arange(n), 3)[:, 2] & 0xFF) == 1)
    group_words = stream_words(42, 2, np.arange(g), 1 + len(course.project.vm_flavor_shares))
    group_strip_one = np.flatnonzero(((group_words[:, 1:] & 0xFF) == 1).any(axis=1))
    assert strip_one.size and group_strip_one.size
    prop = propensity(course, config)
    lo, hi = int(strip_one[0]), int(strip_one[-1]) + 1
    got = planner._student_range_draws((course, config, lo, hi, prop[lo:hi]))
    assert set(strip_one.tolist()) <= set(rows["students"])
    assert_same(got, scalar_students(course, config, np.arange(lo, hi), prop[lo:hi]))
    got = planner._group_range_draws((course, config, 0, g))
    assert set(group_strip_one.tolist()) <= set(rows["groups"])
    assert_same(got, scalar_groups(course, config, np.arange(g)))


def test_poisson_mean_at_the_limit_is_redrawn(redrawn):
    """At ``lam >= 10`` numpy samples by transformed rejection; just below,
    the multiplication method must still match it (or run out of words)."""
    rows, scalar_students, _ = redrawn
    course, config = COURSE, CohortConfig(seed=42)
    prop = propensity(course, config)[:60].copy()
    mean_slots = max(lab.mean_slots for lab in course.labs)  # lab5_multi's
    prop[10] = 10.0 / mean_slots
    prop[20] = np.nextafter(prop[10], 0.0)
    prop[30], prop[40] = 9.5 / mean_slots, 14.0 / mean_slots
    assert (mean_slots * prop[10], mean_slots * prop[20]) == (10.0, np.nextafter(10.0, 0.0))
    at_limit = {10, 40}
    got = planner._student_range_draws((course, config, 0, 60, prop))
    assert at_limit <= set(rows["students"])
    assert_same(got, scalar_students(course, config, np.arange(60), prop))


def test_short_word_block_is_redrawn(monkeypatch, redrawn):
    rows, scalar_students, _ = redrawn
    course, config = COURSE, CohortConfig(seed=42)
    prop = propensity(course, config)
    monkeypatch.setattr(planner, "_STUDENT_WORDS", 30)  # the median student uses 36
    got = planner._student_range_draws((course, config, 0, course.enrollment, prop))
    assert len(rows["students"]) > course.enrollment // 2
    assert_same(got, scalar_students(course, config, np.arange(course.enrollment), prop))


# -- the words and the tables the replay reads ------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_block_words_equal_each_streams_raw_words(seed):
    index = np.array([0, 1, 2, 190, 9_549, 1_000_075, 2**32 - 1])
    for key, sequence in ((1, student_seed_sequence), (2, group_seed_sequence)):
        words = stream_words(seed, key, index, 40)
        assert words.shape == (index.size, 40) and words.dtype == np.uint64
        for row, i in enumerate(index.tolist()):
            want = np.random.PCG64(sequence(seed, i)).random_raw(40)
            assert words[row].tobytes() == want.tobytes(), (key, i)


_M = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit multiplier


def _emitting(bit_generator, first: int, second: int) -> int:
    """Set ``bit_generator`` so that its next two words are ``first`` and
    ``second``; return the state after the first.  A state whose high half
    is 0 outputs its low half unrotated, and the increment and start state
    are solved for from the two target states."""
    mask = (1 << 128) - 1
    inc = (second - first * _M) & mask
    start = ((first - inc) * pow(_M, -1, 1 << 128)) & mask
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": start, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return first


def test_embedded_ziggurat_tables_match_installed_numpy():
    """``WI[i]`` is the draw at ``rabs = 1`` (strip 1 accepted in its slow
    path by a zero uniform), ``KI[i]`` the least ``rabs`` that spends a
    second word.  A numpy that changes its sampler fails here first."""
    bit_generator = np.random.PCG64(0)
    draw = np.random.Generator(bit_generator).standard_normal
    wi, ki = [], []
    for strip in range(256):
        after_one = _emitting(bit_generator, strip | 1 << 9, 0)
        wi.append(draw())
        # the second word (0, whose state is 0) is spent only by strip 1
        assert bit_generator.state["state"]["state"] == (0 if strip == 1 else after_one)
        lo, hi = 0, 1 << 52
        while lo < hi:
            mid = (lo + hi) // 2
            after_one = _emitting(bit_generator, strip | mid << 9, 0)
            draw()
            if bit_generator.state["state"]["state"] == after_one:
                lo = mid + 1
            else:
                hi = mid
        ki.append(lo)
    assert np.array(wi).tobytes() == np.array(numerics.ZIGGURAT_WI).tobytes()
    assert ki == list(numerics.ZIGGURAT_KI)


def test_fast_path_normals_match_numpy():
    """20,000 random words: where the fast path holds, numpy spends one
    word and returns the same bits; it holds for about 98.5 % of words."""
    words = np.random.PCG64(11).random_raw(20_000)
    x, final = numerics.ziggurat_normals(words)
    bit_generator = np.random.PCG64(0)
    draw = np.random.Generator(bit_generator).standard_normal
    for w, want, one_word in zip(words.tolist(), x.tolist(), final.tolist()):
        after_one = _emitting(bit_generator, w, 0)
        got = draw()
        assert (bit_generator.state["state"]["state"] == after_one) == one_word
        if one_word:
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert 0.98 < final.mean() < 0.99
