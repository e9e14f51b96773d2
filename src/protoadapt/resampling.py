"""Bootstrap primitives shared by the spectral, prototype, and motif modules.

Everything here is index based. A bootstrap is a statistic evaluated on the
rows of an index matrix: ``bootstrap_indices`` draws a Monte-Carlo one and
``exhaustive_index_tuples`` lists every possible resample of a small dataset.
The exhaustive mode feeds the second to the same code as the first, so its
exact percentiles check the code that Monte-Carlo runs use.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr, ndtri

from .util import require

# n**n resample tuples; 5**5 = 3125 is the intended ceiling for exact checks.
EXHAUSTIVE_LIMIT = 50_000


def exhaustive_index_tuples(n: int) -> np.ndarray:
    """(n**n, n) matrix of every with-replacement index tuple, in lexicographic order."""
    require(n >= 1, "need at least one element to resample")
    require(n**n <= EXHAUSTIVE_LIMIT, f"exhaustive enumeration of {n}**{n} resamples is too large")
    return np.stack(np.unravel_index(np.arange(n**n), (n,) * n), axis=1)


def bootstrap_indices(n: int, n_boot: int, rng: np.random.Generator) -> np.ndarray:
    """(n_boot, n) matrix of with-replacement index draws."""
    require(n >= 1, "need at least one element to resample")
    require(n_boot >= 1, "n_boot must be positive")
    return rng.integers(0, n, size=(n_boot, n))


def bootstrap_statistics(values, statistic, n_boot, rng, exhaustive=False) -> np.ndarray:
    """Statistic evaluated on bootstrap resamples of a 1-d sample.

    With ``exhaustive=True`` every possible with-replacement resample is
    visited once (n_boot is ignored), so percentile endpoints computed from
    the result are exact rather than Monte-Carlo estimates.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    idx = exhaustive_index_tuples(n) if exhaustive else bootstrap_indices(n, n_boot, rng)
    return np.array([statistic(values[row]) for row in idx])


def percentile_interval(samples, level: float = 0.90):
    """Central percentile interval (linear interpolation between order stats)."""
    require(0.0 < level < 1.0, "level must lie in (0, 1)")
    samples = np.asarray(samples, dtype=float)
    alpha = (1.0 - level) / 2.0
    lo, hi = np.percentile(samples, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return float(lo), float(hi)


def bca_interval(samples, theta_hat, jackknife_stats, level: float = 0.90):
    """Bias-corrected and accelerated interval from bootstrap replicates.

    Degenerate replicate distributions (all values equal) collapse to a
    zero-width interval at the point estimate instead of producing infinite
    normal quantiles.
    """
    require(0.0 < level < 1.0, "level must lie in (0, 1)")
    samples = np.asarray(samples, dtype=float)
    n_boot = samples.shape[0]
    if np.allclose(samples, samples[0]):
        return float(samples[0]), float(samples[0])

    # Bias correction from the fraction of replicates below the estimate.
    frac_below = np.mean(samples < theta_hat)
    frac_below = min(max(frac_below, 1.0 / (n_boot + 1)), n_boot / (n_boot + 1))
    z0 = ndtri(frac_below)

    jack = np.asarray(jackknife_stats, dtype=float)
    jack_mean = jack.mean()
    num = np.sum((jack_mean - jack) ** 3)
    den = 6.0 * np.sum((jack_mean - jack) ** 2) ** 1.5
    accel = num / den if den > 0 else 0.0

    alpha = (1.0 - level) / 2.0
    out = []
    for a in (alpha, 1.0 - alpha):
        za = ndtri(a)
        adj = z0 + (z0 + za) / (1.0 - accel * (z0 + za))
        out.append(np.percentile(samples, 100.0 * ndtr(adj)))
    lo, hi = sorted(out)
    return float(lo), float(hi)


def jackknife_statistics(values, statistic) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n == 1:
        return np.array([statistic(values)])
    return np.array([statistic(np.delete(values, i)) for i in range(n)])


def shift_bootstrap_pvalue(diffs, n_boot, rng) -> float:
    """One-sided p-value for H0: mean(diffs) = 0 against mean > 0.

    Uses the shift method: resample the centred differences and count how
    often their mean reaches the observed mean. A degenerate all-zero sample
    yields p = 1 by construction.
    """
    diffs = np.asarray(diffs, dtype=float)
    require(diffs.size >= 1, "empty difference sample")
    observed = diffs.mean()
    centred = diffs - observed
    idx = bootstrap_indices(diffs.size, n_boot, rng)
    means = centred[idx].mean(axis=1)
    exceed = int(np.sum(means >= observed - 1e-15))
    return (1 + exceed) / (n_boot + 1)
