import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from protoadapt.resampling import (
    _ndtr,
    _ndtri,
    bca_interval,
    bootstrap_indices,
    jackknife_statistics,
)


def _norm_bca_interval(samples, theta_hat, jackknife_stats, level=0.90):
    # bca_interval as it was written with scipy.stats.norm; kept as the oracle
    samples = np.asarray(samples, dtype=float)
    n_boot = samples.shape[0]
    if np.allclose(samples, samples[0]):
        return float(samples[0]), float(samples[0])
    frac_below = np.mean(samples < theta_hat)
    frac_below = min(max(frac_below, 1.0 / (n_boot + 1)), n_boot / (n_boot + 1))
    z0 = norm.ppf(frac_below)
    jack = np.asarray(jackknife_stats, dtype=float)
    jack_mean = jack.mean()
    num = np.sum((jack_mean - jack) ** 3)
    den = 6.0 * np.sum((jack_mean - jack) ** 2) ** 1.5
    accel = num / den if den > 0 else 0.0
    alpha = (1.0 - level) / 2.0
    out = []
    for a in (alpha, 1.0 - alpha):
        za = norm.ppf(a)
        adj = z0 + (z0 + za) / (1.0 - accel * (z0 + za))
        out.append(np.percentile(samples, 100.0 * norm.cdf(adj)))
    lo, hi = sorted(out)
    return float(lo), float(hi)


def _bca_cases(n_cases=200, seed=31):
    # medians of bootstrap resamples, as the coverage certificate draws them,
    # of skewed, symmetric and tied samples; the estimate on either side of
    # every replicate clips the bias correction at both ends
    rng = np.random.default_rng(seed)
    for case in range(n_cases):
        n = int(rng.integers(2, 40))
        kind = case % 3
        if kind == 0:
            values = rng.exponential(size=n)
        elif kind == 1:
            values = rng.normal(size=n)
        else:
            values = np.round(rng.random(n), 1)
        meds = np.median(values[bootstrap_indices(n, int(rng.integers(10, 500)), rng)], axis=1)
        theta_hat = float(np.median(values))
        if case % 10 == 0:
            theta_hat = float(meds.max()) + 1.0
        elif case % 10 == 5:
            theta_hat = float(meds.min()) - 1.0
        yield meds, theta_hat, jackknife_statistics(values, np.median), float(
            rng.choice([0.5, 0.8, 0.9, 0.95, 0.99]))


def test_bca_interval_bytes_equal_scipy_norm_version():
    # ndtri and ndtr are the kernels norm.ppf and norm.cdf call
    for samples, theta_hat, jack, level in _bca_cases():
        got = bca_interval(samples, theta_hat, jack, level)
        want = _norm_bca_interval(samples, theta_hat, jack, level)
        assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("jack", [[1.0, 1.0, 1.0], [0.0, 1.0, 5.0], [3.0, -2.0, 0.5, 0.5]])
def test_bca_interval_zero_or_skewed_acceleration(jack):
    samples = np.linspace(-1.0, 2.0, 41) ** 3
    for theta_hat in (-2.0, 0.0, 0.3, 9.0):
        assert (np.array(bca_interval(samples, theta_hat, jack)).tobytes()
                == np.array(_norm_bca_interval(samples, theta_hat, jack)).tobytes())
    assert bca_interval(np.full(7, 0.25), 0.0, jack) == (0.25, 0.25)


def _ulp_neighbourhood(centre, ulps=2000):
    """centre and the ulps floats on either side of it (of -0.0 and 0.0 at 0)."""
    steps = np.arange(-ulps, ulps + 1) if centre != 0.0 else np.arange(ulps + 1)
    starts = [np.float64(centre)] if centre != 0.0 else [np.float64(0.0), np.float64(-0.0)]
    return np.concatenate([(s.view(np.int64) + steps).view(np.float64) for s in starts])


def _assert_bytes_equal(port, kernel, points):
    ours, theirs = np.array([port(x) for x in points]), kernel(points)
    bad = points[ours.view(np.int64) != theirs.view(np.int64)]
    assert ours.tobytes() == theirs.tobytes(), f"{bad.size} points differ, first {bad[:5]}"


SPECIAL = [np.inf, -np.inf, np.nan, -np.nan]


def test_ndtri_bytes_equal_scipy_special():
    # every branch: the central region, both tails below and above exp(-32),
    # the region boundaries, subnormals and values outside [0, 1]
    rng = np.random.default_rng(27)
    grid = np.concatenate([rng.random(40_000), np.exp(-rng.uniform(0.0, 745.0, 40_000)),
                           1.0 - np.exp(-rng.uniform(0.0, 37.0, 20_000)),
                           rng.uniform(-1.0, 2.0, 1_000)])
    edges = [math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 0.5, 1.0, 0.0]
    points = np.concatenate([grid, *map(_ulp_neighbourhood, edges), SPECIAL])
    assert points.size >= 120_000
    _assert_bytes_equal(_ndtri, ndtri, points)


def test_ndtr_bytes_equal_scipy_special():
    # the erf/erfc split at |x| = 1, erfc's x < 1 and x < 8 branches (x = sqrt(2)
    # and 8 sqrt(2)), its underflow at exp(-x^2 / 2) < exp(-MAXLOG) (37 to 38.5)
    rng = np.random.default_rng(27)
    grid = np.concatenate([rng.normal(0.0, 3.0, 40_000), rng.uniform(-40.0, 40.0, 40_000),
                           rng.uniform(-1.5, 1.5, 20_000)])
    edges = [s * c for c in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 37.0, 38.5)
             for s in (1.0, -1.0)] + [0.0]
    points = np.concatenate([grid, *map(_ulp_neighbourhood, edges), SPECIAL])
    assert points.size >= 140_000
    _assert_bytes_equal(_ndtr, ndtr, points)
