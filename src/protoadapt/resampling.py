"""Bootstrap primitives shared by the spectral, prototype, and motif modules.

Everything here is index based. A bootstrap is a statistic evaluated on the
rows of an index matrix: ``bootstrap_indices`` draws a Monte-Carlo one and
``exhaustive_index_tuples`` lists every possible resample of a small dataset.
The exhaustive mode feeds the second to the same code as the first, so its
exact percentiles check the code that Monte-Carlo runs use.

The BCa interval's normal quantile and CDF are ports of Cephes' ``ndtri`` and
``ndtr`` (S. L. Moshier, Cephes Math Library), the kernels ``scipy.special``
wraps, so the library loads no scipy for them.
"""

from __future__ import annotations

import math

import numpy as np

from .util import require

# n**n resample tuples; 5**5 = 3125 is the intended ceiling for exact checks.
EXHAUSTIVE_LIMIT = 50_000

# Cephes ndtri.c: sqrt(2 pi), exp(-2), and the rational approximations for
# |y - 0.5| <= 3/8 (P0/Q0) and z = sqrt(-2 log y) in [2, 8) (P1/Q1) and [8, 64] (P2/Q2).
# Cephes ndtr.c: erfc for 1 <= x < 8 (P/Q) and x >= 8 (R/S), erf for |x| <= 1 (T/U).
# Each tuple runs from the leading coefficient down; Cephes' p1evl denominators lead with 1.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 0.70710678118654752440


def _polevl(x: float, coef) -> float:
    """Cephes polevl: coef[0] x^N + ... + coef[N] by Horner's rule.

    With coef[0] = 1 it is Cephes' p1evl to the bit: 1.0 * x + c is x + c.
    """
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0) -> float:
    """Cephes ndtri: the standard normal quantile, by its evaluation order.

    Bit for bit ``scipy.special.ndtri``, NaN included: a NaN falls through to
    the tail branch as in C.
    """
    y0 = float(y0)
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if y0 < 0.0 or y0 > 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


def _erf(x: float) -> float:
    """Cephes erf for |x| < 1, the arguments ``_ndtr`` and ``_erfc`` pass.

    Cephes' -erf(-x) for x < 0 gives the same bits: the expression is odd in x.
    """
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U)


def _erfc(a: float) -> float:
    """Cephes erfc for a >= sqrt(1/2), the arguments ``_ndtr`` passes.

    0 where exp(-a^2) underflows, as in Cephes.
    """
    if a < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 0.0
    z = math.exp(z)
    if a < 8.0:
        p = _polevl(a, _P)
        q = _polevl(a, _Q)
    else:
        p = _polevl(a, _R)
        q = _polevl(a, _S)
    return (z * p) / q


def _ndtr(a) -> float:
    """Cephes ndtr: the standard normal CDF, bit for bit ``scipy.special.ndtr``."""
    a = float(a)
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


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
    # a numpy scalar, so a zero denominator in adj gives inf or nan, not ZeroDivisionError
    z0 = np.float64(_ndtri(frac_below))

    jack = np.asarray(jackknife_stats, dtype=float)
    jack_mean = jack.mean()
    num = np.sum((jack_mean - jack) ** 3)
    den = 6.0 * np.sum((jack_mean - jack) ** 2) ** 1.5
    accel = num / den if den > 0 else 0.0

    alpha = (1.0 - level) / 2.0
    out = []
    for a in (alpha, 1.0 - alpha):
        za = _ndtri(a)
        adj = z0 + (z0 + za) / (1.0 - accel * (z0 + za))
        out.append(np.percentile(samples, 100.0 * _ndtr(adj)))
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
