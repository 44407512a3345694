"""The cohort's two normal-distribution draws are exact, not approximate.

``stratified_lognormal`` and ``capped_mean_compensation`` evaluate the
standard normal through the ``scipy.special`` ufuncs (``ndtri``, ``ndtr``)
that ``scipy.stats.norm`` itself calls at loc 0, scale 1.  Every cohort
digest rests on that being bit-for-bit, so each property compares against
a test-local reference written with ``scipy.stats.norm`` using ``==``,
never a tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from repro.core.cohort import capped_mean_compensation, stratified_lognormal


def _reference_stratified_lognormal(mean, sigma, n, rng):
    mu = np.log(mean) - sigma**2 / 2.0
    quantiles = (np.arange(n) + rng.uniform(0.02, 0.98, size=n)) / n
    draws = np.exp(mu + sigma * norm.ppf(quantiles))
    rng.shuffle(draws)
    return draws


def _reference_capped_mean_compensation(target_mean, sigma, cap):
    def capped_mean(raw_mean):
        mu = np.log(raw_mean) - sigma**2 / 2.0
        z1 = (np.log(cap) - mu - sigma**2) / sigma
        z2 = (np.log(cap) - mu) / sigma
        return float(raw_mean * norm.cdf(z1) + cap * norm.sf(z2))

    lo, hi = target_mean, target_mean * 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if capped_mean(mid) < target_mean:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9 * target_mean:
            break
    return 0.5 * (lo + hi)


@settings(max_examples=60, deadline=None)
@given(
    mean=st.floats(0.01, 500.0),
    sigma=st.floats(0.0, 2.5),
    n=st.integers(1, 5_000),
    seed=st.integers(0, 2**32 - 1),
)
def test_stratified_lognormal_equals_the_norm_ppf_reference(mean, sigma, n, seed):
    got = stratified_lognormal(mean, sigma, n, np.random.default_rng(seed))
    want = _reference_stratified_lognormal(mean, sigma, n, np.random.default_rng(seed))
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(
    target=st.floats(0.1, 400.0),
    sigma=st.floats(0.05, 2.5),
    cap_ratio=st.floats(1.01, 100.0),
)
def test_capped_mean_compensation_equals_the_norm_cdf_sf_reference(target, sigma, cap_ratio):
    cap = target * cap_ratio
    got = capped_mean_compensation(target, sigma, cap)
    assert got == _reference_capped_mean_compensation(target, sigma, cap)
