"""Regression tests for the shared exact floating-point rules.

Stable summation: the total both accounting paths rely on is the exactly
rounded sum of the input *multiset* — invariant to permutation,
chunking, and reassociation, even for adversarial magnitude spreads
where naive or pairwise summation drifts by many ulps.  If these break,
the columnar/object byte-equality gate breaks with them.

The standard normal: the ported Cephes ``ndtri`` and ``ndtr`` must equal
``scipy.special``'s bit for bit, so every cohort digest holds without
scipy.  The tests compare bit patterns (``.view(np.int64)``), not values,
so a ``-0.0`` or a NaN's sign counts, over random bulk inputs, the tails
and the neighbours of every branch edge.

The samplers' ``exp`` and ``log1p`` must be the C library's, the ones
numpy's C samplers call, never numpy's SIMD kernels.
"""

import ctypes
import ctypes.util
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from repro.common.numerics import libm_exp, libm_log1p, ndtr, ndtri, stable_sum

#: Magnitudes spanning ~10^32: one big value, a sea of small ones that a
#: running ``+=`` in the wrong order annihilates entirely.
ADVERSARIAL = [1e16, 1.0, -1e16, 1.0] * 500 + [1e-16] * 1000


def test_adversarial_magnitudes_sum_exactly():
    """Naive left-to-right loses the small terms; fsum must not."""
    exact = float(sum(Fraction(v) for v in ADVERSARIAL))
    assert stable_sum(ADVERSARIAL) == exact
    # the case is actually adversarial: the naive loop gets it wrong
    naive = 0.0
    for v in ADVERSARIAL:
        naive += v
    assert naive != exact


def test_permutation_and_chunk_invariance():
    reference = stable_sum(ADVERSARIAL)
    assert stable_sum(reversed(ADVERSARIAL)) == reference
    assert stable_sum(sorted(ADVERSARIAL)) == reference
    # chunked like the columnar merge: per-bucket arrays chained
    chunks = [ADVERSARIAL[i : i + 97] for i in range(0, len(ADVERSARIAL), 97)]
    chained = stable_sum(v for chunk in chunks for v in chunk)
    assert chained == reference


@settings(deadline=None, max_examples=100)
@given(
    st.lists(
        st.floats(
            min_value=-1e18, max_value=1e18, allow_nan=False, allow_infinity=False
        ),
        max_size=60,
    ),
    st.randoms(use_true_random=False),
)
def test_stable_sum_is_multiset_function(values, rnd):
    """Property form: any shuffle of any list lands on the same bits."""
    shuffled = list(values)
    rnd.shuffle(shuffled)
    assert stable_sum(shuffled) == stable_sum(values)
    exact = sum(Fraction(v) for v in values)
    assert stable_sum(values) == float(exact)


def test_numpy_scalars_and_empty():
    arr = np.array(ADVERSARIAL)
    assert stable_sum(arr.tolist()) == stable_sum(ADVERSARIAL)
    assert stable_sum(iter(arr)) == stable_sum(ADVERSARIAL)
    assert stable_sum([]) == 0.0


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _assert_ndtri_matches_scipy(y: np.ndarray) -> None:
    got, want = _bits(ndtri(y)), _bits(special.ndtri(y))
    bad = np.flatnonzero(got != want)
    assert bad.size == 0, f"{bad.size} of {y.size} differ, first at y={y[bad[:3]].tolist()}"


def _assert_ndtr_matches_scipy(a: np.ndarray) -> None:
    got, want = _bits([ndtr(v) for v in a.tolist()]), _bits(special.ndtr(a))
    bad = np.flatnonzero(got != want)
    assert bad.size == 0, f"{bad.size} of {a.size} differ, first at a={a[bad[:3]].tolist()}"


def _neighbours(edges, count: int) -> np.ndarray:
    """``count`` consecutive floats on each side of every edge, the edge included."""
    out = []
    for edge in edges:
        for direction in (-np.inf, np.inf):
            v = np.float64(edge)
            for _ in range(count):
                out.append(v)
                v = np.nextafter(v, direction)
    return np.array(out)


def test_ndtri_matches_scipy_on_uniform_quantiles():
    _assert_ndtri_matches_scipy(np.random.default_rng(20).uniform(size=1_000_000))


def test_ndtri_matches_scipy_in_both_tails():
    tails = 10.0 ** np.random.default_rng(21).uniform(-300.0, 0.0, size=200_000)
    _assert_ndtri_matches_scipy(tails)
    _assert_ndtri_matches_scipy(1.0 - tails)


def test_ndtri_matches_scipy_at_branch_edges_and_limits():
    """The central/tail edge on both sides and the z = 8 edge between the tail tables."""
    edges = (math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0))
    _assert_ndtri_matches_scipy(_neighbours(edges, 256))
    limits = np.array([0.0, 1.0, 5e-324, 2.0**-1022, np.nextafter(1.0, 0.0), 0.5, np.nan])
    _assert_ndtri_matches_scipy(limits)
    assert ndtri(limits[:2]).tolist() == [-math.inf, math.inf]


@pytest.mark.parametrize("y", [-0.25, -5e-324, 1.0 + 2.0**-52, 2.0, -math.inf, math.inf])
def test_ndtri_outside_the_unit_interval_raises(y):
    """scipy returns NaN here; the port stops at libm's domain error instead."""
    assert math.isnan(special.ndtri(y))
    with pytest.raises(ValueError):
        ndtri(np.array([0.5, y]))


def test_ndtr_matches_scipy_over_its_range():
    rng = np.random.default_rng(22)
    _assert_ndtr_matches_scipy(rng.uniform(-40.0, 40.0, size=100_000))
    _assert_ndtr_matches_scipy(np.linspace(-40.0, 40.0, 20_001))


def test_ndtr_matches_scipy_at_branch_edges_and_limits():
    """|a|/sqrt(2) at 1/sqrt(2) (ndtr's erf/erfc split), 1 (erfc's) and 8 (erfc's
    two tables), and where exp(-a^2/2) underflows to Cephes' early return."""
    splits = [e * math.sqrt(2.0) for e in (1.0 / math.sqrt(2.0), 1.0, 8.0)]
    underflow = math.sqrt(2.0 * 7.09782712893383996732e2)
    edges = [s * e for e in (*splits, underflow) for s in (1.0, -1.0)]
    _assert_ndtr_matches_scipy(_neighbours(edges, 256))
    limits = np.array([-math.inf, math.inf, -0.0, 0.0, math.nan, 5e-324, -5e-324, 1e308, -1e308])
    _assert_ndtr_matches_scipy(limits)
    assert [ndtr(-40.0), ndtr(40.0), ndtr(-math.inf), ndtr(math.inf)] == [0.0, 1.0, 0.0, 1.0]


@pytest.mark.skipif(not ctypes.util.find_library("m"), reason="no C math library to load")
def test_sampler_exp_and_log1p_are_the_c_librarys():
    """Over the arguments the replay gives them (``exp`` of ``-x * x / 2``
    and of a lognormal's argument, ``log1p`` of ``-u``), bit for bit,
    shape kept, a ``-0.0`` included."""
    libm = ctypes.CDLL(ctypes.util.find_library("m"))
    for name in ("exp", "log1p"):
        getattr(libm, name).restype = ctypes.c_double
        getattr(libm, name).argtypes = [ctypes.c_double]
    rng = np.random.default_rng(23)
    x = np.concatenate([-rng.uniform(0.0, 1.0, 50_000), [-0.0, 0.0, -5e-324, -(1.0 - 2.0**-53)]])
    assert _bits(libm_log1p(x)).tolist() == _bits([libm.log1p(v) for v in x.tolist()]).tolist()
    y = np.concatenate([rng.uniform(-40.0, 3.0, 50_000), [-0.0, 0.0, -745.2, 709.7]])
    assert _bits(libm_exp(y)).tolist() == _bits([libm.exp(v) for v in y.tolist()]).tolist()
    assert libm_log1p(x.reshape(2, -1)).shape == (2, x.size // 2)
