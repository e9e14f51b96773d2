"""Bootstrap primitives shared by the spectral, prototype, and motif modules.

Everything here is index based. A bootstrap is a statistic evaluated on the
rows of an index matrix: ``bootstrap_indices`` draws a Monte-Carlo one and
``exhaustive_index_tuples`` lists every possible resample of a small dataset.
The exhaustive mode feeds the second to the same code as the first, so its
exact percentiles check the code that Monte-Carlo runs use.
"""

from __future__ import annotations

import numpy as np

from .util import require

# n**n resample tuples; 5**5 = 3125 is the intended ceiling for exact checks.
EXHAUSTIVE_LIMIT = 50_000

# percentile_interval's tail mass per side, as the float (1 - 0.90) / 2 = 0.04999999999999999:
# its lower percentile is 100 * that, not 5.0, and the interval's bytes depend on it
_TAIL = (1.0 - 0.90) / 2.0


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


def percentile_interval(samples):
    """Central 90 percent percentile interval (linear interpolation between order stats)."""
    lo, hi = np.percentile(np.asarray(samples, dtype=float), [100.0 * _TAIL, 100.0 * (1.0 - _TAIL)])
    return float(lo), float(hi)


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
