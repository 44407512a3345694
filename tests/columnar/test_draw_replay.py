"""The planner's array replay of the student and group streams, byte for byte.

``_replay_students`` and ``_replay_groups`` run numpy's samplers on the
raw PCG64 words of every stream in a block at once.  Their reference is
the scalar loop each falls back to, which calls ``Generator.random``,
``lognormal``, ``poisson`` and ``uniform`` one draw at a time.  Every
comparison below is of dtype, shape and bytes.  The replay finishes a
normal that leaves the ziggurat's one-word path in place; the scalar
loop redraws only a row with a Poisson mean at or above the limit or a
row whose words run out, and the replay counts each.
"""

import math

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


def uncounted(scalar_draws, names):
    """A scalar loop in the replay's place: its draws, with zero counts."""
    return lambda *args: (scalar_draws(*args), np.zeros(len(names), dtype=np.int64))


def scalar_raw_tables(monkeypatch, course, config):
    """``_raw_tables`` drawn by the scalar loops over one block: the reference."""
    with monkeypatch.context() as patch:
        patch.setattr(planner, "_REPLAY_ROWS", max(course.enrollment, course.project.groups))
        patch.setattr(
            planner,
            "_replay_students",
            uncounted(planner._scalar_student_draws, planner._STUDENT_COUNTS),
        )
        patch.setattr(
            planner, "_replay_groups", uncounted(planner._scalar_group_draws, planner._GROUP_COUNTS)
        )
        return planner._raw_tables(course, config)[0]


def propensity(course, config):
    rng = np.random.default_rng(cohort_seed_sequence(config.seed))
    return draw_cohort_level(course, config, rng)[0]


def student_pair(course, config, lo, hi, prop=None):
    """(replayed, scalar) draws of students [lo, hi)."""
    prop = propensity(course, config)[lo:hi] if prop is None else prop
    got, _ = planner._replay_students(course, config, np.arange(lo, hi), prop)
    return got, planner._scalar_student_draws(course, config, np.arange(lo, hi), prop)


def counted(names, counts) -> dict[str, int]:
    return dict(zip(names, counts.tolist()))


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
        got, _ = planner._replay_groups(course, config, np.arange(lo, g))
        assert_same(got, planner._scalar_group_draws(course, config, np.arange(lo, g)))


def test_block_boundaries_are_invisible(monkeypatch):
    """Seven-row blocks (some with no slot in a lab) reassemble exactly."""
    course, config = COURSE, CohortConfig(seed=3)
    want = scalar_raw_tables(monkeypatch, course, config)
    monkeypatch.setattr(planner, "_REPLAY_ROWS", 7)
    assert_same_tables(planner._raw_tables(course, config)[0], want)


@pytest.mark.parametrize("seed", (0, 2**63 + 5))
def test_16_row_blocks_equal_the_scalar_loops(monkeypatch, seed):
    """16-row blocks: 12 student and 3 group blocks reassemble exactly."""
    course, config = COURSE, CohortConfig(seed=seed)
    want = scalar_raw_tables(monkeypatch, course, config)
    monkeypatch.setattr(planner, "_REPLAY_ROWS", 16)
    assert_same_tables(planner._raw_tables(course, config)[0], want)


# -- each way off the fast path -----------------------------------------------------


def test_strip_one_normal_is_finished_in_place(redrawn):
    """Strip 1's ``KI`` is 0: such a normal always leaves the one-word
    path.  The replay finishes it with the wedge test and never redraws
    its row."""
    rows, scalar_students, scalar_groups = redrawn
    assert numerics.ZIGGURAT_KI[1] == 0
    words = np.array([1 | rabs << 9 for rabs in (0, 1, 2**51, 2**52 - 1)], dtype=np.uint64)
    assert not numerics.ziggurat_normals(words)[1].any()

    course, config = scaled_course(50.0), CohortConfig(seed=42)
    n, g = course.enrollment, course.project.groups
    # word 2 is a student's first normal; word 1 is a group's first normal
    strip_one = np.flatnonzero((stream_words(42, 1, np.arange(n), 3)[:, 2] & 0xFF) == 1)
    group_strip_one = np.flatnonzero((stream_words(42, 2, np.arange(g), 2)[:, 1] & 0xFF) == 1)
    assert strip_one.size and group_strip_one.size
    prop = propensity(course, config)
    lo, hi = int(strip_one[0]), int(strip_one[-1]) + 1
    got, counts = planner._replay_students(course, config, np.arange(lo, hi), prop[lo:hi])
    assert not set(strip_one.tolist()) & set(rows["students"])
    assert counted(planner._STUDENT_COUNTS, counts)["wedge"] >= strip_one.size
    assert_same(got, scalar_students(course, config, np.arange(lo, hi), prop[lo:hi]))
    got, counts = planner._replay_groups(course, config, np.arange(g))
    assert not set(group_strip_one.tolist()) & set(rows["groups"])
    assert counted(planner._GROUP_COUNTS, counts)["wedge"] >= group_strip_one.size
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
    got, counts = planner._replay_students(course, config, np.arange(60), prop)
    assert sorted(rows["students"]) == [10, 40]
    students = counted(planner._STUDENT_COUNTS, counts)
    assert (students["lam_limit"], students["short_block"]) == (2, 0)
    assert_same(got, scalar_students(course, config, np.arange(60), prop))


def test_short_word_block_is_redrawn(monkeypatch, redrawn):
    """Too few words: students past the block and groups with a finished
    normal are redrawn, and counted as such."""
    rows, scalar_students, scalar_groups = redrawn
    course, config = COURSE, CohortConfig(seed=42)
    n = course.enrollment
    prop = propensity(course, config)
    monkeypatch.setattr(planner, "_STUDENT_WORDS", 30)  # the median student uses 36
    got, counts = planner._replay_students(course, config, np.arange(n), prop)
    assert len(rows["students"]) > n // 2
    students = counted(planner._STUDENT_COUNTS, counts)
    assert (students["lam_limit"], students["short_block"]) == (0, len(rows["students"]))
    assert_same(got, scalar_students(course, config, np.arange(n), prop))

    monkeypatch.setattr(planner, "_GROUP_SPARE_WORDS", 0)  # one word per draw
    course = scaled_course(50.0)
    g = course.project.groups
    got, counts = planner._replay_groups(course, config, np.arange(g))
    groups = counted(planner._GROUP_COUNTS, counts)
    assert rows["groups"] and groups["short_block"] == len(rows["groups"])
    assert groups["wedge"] + groups["tail"] == 0  # every finished normal was redrawn
    assert_same(got, scalar_groups(course, config, np.arange(g)))


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


def test_embedded_rejection_tables_match_installed_numpy():
    """``FI`` sits right before ``WI`` in numpy's compiled generator, and
    ``r`` and ``-1/r`` (the compiler folds the sign in) are literals there.
    ``FI`` is numpy's table, not the formula: ``FI[38]`` is one ulp above
    libm's ``exp(-x * x / 2)`` at that strip's edge."""
    import numpy.random._generator as generator

    with open(generator.__file__, "rb") as compiled:
        binary = compiled.read()
    wi = np.array(numerics.ZIGGURAT_WI).tobytes()
    at = binary.find(wi)
    assert at >= 2048 and binary.count(wi) == 1
    assert binary[at - 2048 : at] == np.array(numerics.ZIGGURAT_FI).tobytes()
    assert np.float64(numerics.ZIGGURAT_R).tobytes() in binary
    assert np.float64(-numerics.ZIGGURAT_INV_R).tobytes() in binary
    edge = numerics.ZIGGURAT_WI[38] * 2.0**52
    assert numerics.ZIGGURAT_FI[0] == 1.0
    assert numerics.ZIGGURAT_FI[38] == np.nextafter(math.exp(-0.5 * edge * edge), 1.0)


def _replayed_from_constructed(cases: list[tuple[int, int]]):
    """numpy's normal from streams whose next two words are each case's,
    against :func:`numerics.standard_normals` on the same streams' words:
    the same bits, the same words spent.  Returns ``(end, wedge, tail)``."""
    bit_generator = np.random.PCG64(0)
    draw = np.random.Generator(bit_generator).standard_normal
    probe = np.random.PCG64(0)
    words, want, states = [], [], []
    for first, second in cases:
        _emitting(bit_generator, first, second)
        probe.state = start = bit_generator.state
        words.append(probe.random_raw(64))
        want.append(draw())
        states.append((start, bit_generator.state))
    x, end, wedge, tail = numerics.standard_normals(
        np.stack(words), np.zeros(len(cases), dtype=np.intp)
    )
    assert x.tobytes() == np.array(want).tobytes()
    for (start, after), spent in zip(states, end.tolist()):
        probe.state = start
        probe.advance(spent)
        assert probe.state == after
    return end, wedge, tail


def test_finished_normals_match_numpy_on_every_strip():
    """Every strip's wedge test just below and at the least uniform numpy
    rejects (found by bisection), so one accepts on its second word and
    one starts over from its third; and the tail accepting its first pair
    of uniforms and rejecting it, with either sign."""
    bit_generator = np.random.PCG64(0)
    draw = np.random.Generator(bit_generator).standard_normal
    wedge_cases = []
    for strip in range(1, 256):
        rabs = (numerics.ZIGGURAT_KI[strip] + (1 << 52)) // 2
        first = strip | (strip & 1) << 8 | rabs << 9
        lo, hi = 0, 1 << 53
        while lo < hi:
            mid = (lo + hi) // 2
            _emitting(bit_generator, first, mid << 11)
            draw()
            if bit_generator.state["state"]["state"] == mid << 11:  # kept on its uniform
                lo = mid + 1
            else:
                hi = mid
        assert 0 < lo < 1 << 53
        wedge_cases += [(first, (lo - 1) << 11), (first, lo << 11)]
    end, wedge, tail = _replayed_from_constructed(wedge_cases)
    assert wedge.all() and not tail.any()
    assert end[0::2].tolist() == [2] * 255 and (end[1::2] >= 3).all()

    rng = np.random.default_rng(7)
    rabs = rng.integers(numerics.ZIGGURAT_KI[0], 1 << 52, size=200).tolist()
    seconds = [0, 2**64 - 1, *rng.integers(0, 2**64, size=198, dtype=np.uint64).tolist()]
    tail_cases = [(r << 9, second) for r, second in zip(rabs, seconds)]
    end, wedge, tail = _replayed_from_constructed(tail_cases)
    assert tail.all() and not wedge.any()
    assert end[0] == 3 and end[1] >= 5  # u1 = 0 accepts at once, u1 near 1 never does
    assert {3, 5} <= set(end.tolist())
    assert {r >> 8 & 1 for r in rabs} == {0, 1}


def test_replayed_normals_match_numpy_streams():
    """Forty normals from each of 500 streams, drawn one after another at
    each row's own cursor: numpy's bits, numpy's words, with the wedge and
    the tail both reached."""
    words = np.stack([np.random.PCG64(s).random_raw(120) for s in range(500)])
    cursor = np.zeros(500, dtype=np.intp)
    got, wedges, tails = [], 0, 0
    for _ in range(40):
        x, cursor, wedge, tail = numerics.standard_normals(words, cursor)
        got.append(x)
        wedges, tails = wedges + wedge.sum(), tails + tail.sum()
    assert (cursor <= 120).all() and wedges > 0 and tails > 0
    for s in range(500):
        bit_generator = np.random.PCG64(s)
        want = np.random.Generator(bit_generator).standard_normal(40)
        assert want.tobytes() == np.stack(got, axis=1)[s].tobytes()
        probe = np.random.PCG64(s)
        probe.advance(int(cursor[s]))
        assert probe.state == bit_generator.state


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
