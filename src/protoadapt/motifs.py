"""Two-stage motif testing over a synthetic sequence alphabet.

Channels are planted k-mers scored by their best sliding-window match over a
repertoire. Null repertoires come from a position-aware Markov background;
p-values are adaptive permutation estimates with the plus-one convention,
sharpened by Storey's null-proportion estimate into q-values. Channel
thresholds are calibrated by nested cross-validation with a stability t-test
against the grid centre.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metrics import rank_auc_or_nan
from .resampling import bootstrap_indices, percentile_interval
from .util import ValidationError, check_finite, child_rng, require

# Production permutation floor from the testing protocol; desk-scale runs
# default lower to stay interactive, with this constant kept as the
# documented deployment setting.
PRODUCTION_PERMUTATION_FLOOR = 50_000
DESK_PERMUTATION_FLOOR = 2_000

DEFAULT_TAU_GRID = tuple(np.round(np.arange(0.1, 0.95, 0.1), 10))
GRID_CENTER = 0.5
# threshold calibration: the stratified share of repertoires in the calibration
# fold, and the inner folds it is split into (each needs two repertoires)
CALIB_FRAC = 0.2
N_INNER_FOLDS = 3


class CalibrationError(RuntimeError):
    """Threshold calibration failed within the retry cap; from ``run_motifs``, with its results."""

    def __init__(self, message, calibrations=None, report=None):
        super().__init__(message)
        self.calibrations, self.report = calibrations, report


# ---------------------------------------------------------------------------
# Background model
# ---------------------------------------------------------------------------

@dataclass
class MarkovBackground:
    """Position-aware order-p Markov model with pseudocount smoothing."""

    order: int
    alphabet_size: int
    tables: list = field(repr=False)            # per position: dict context -> prob row
    lengths: np.ndarray = field(repr=False)
    length_probs: np.ndarray = field(repr=False)

    def conditional(self, position: int, context: tuple) -> np.ndarray:
        table = self.tables[min(position, len(self.tables) - 1)]
        row = table.get(context)
        if row is None:
            row = np.full(self.alphabet_size, 1.0 / self.alphabet_size)
        return row

    def sample(self, n: int, rng: np.random.Generator) -> list:
        out = []
        for _ in range(n):
            length = int(rng.choice(self.lengths, p=self.length_probs))
            seq = np.empty(length, dtype=np.int8)
            for pos in range(length):
                ctx = tuple(seq[max(0, pos - self.order):pos])
                seq[pos] = rng.choice(self.alphabet_size, p=self.conditional(pos, ctx))
            out.append(seq)
        return out


def fit_background(sequences, order: int, pseudocount: float,
                   alphabet_size: int) -> MarkovBackground:
    """Per-position conditional frequencies with additive smoothing.

    Sequences are integer arrays over {0, ..., alphabet_size - 1}; symbols
    outside the declared alphabet are rejected. Sampling preserves the
    empirical length distribution and order-p local correlations.
    """
    require(len(sequences) >= 1, "empty corpus")
    require(order >= 0, "order must be nonnegative")
    require(pseudocount >= 0.0, "pseudocount must be nonnegative")
    require(alphabet_size >= 1, "alphabet must be nonempty")
    seqs = [np.asarray(s, dtype=np.int8) for s in sequences]
    for s in seqs:
        if s.size and (s.min() < 0 or s.max() >= alphabet_size):
            raise ValidationError("symbol outside the declared alphabet")

    max_len = max(s.size for s in seqs)
    counts: list[dict] = [dict() for _ in range(max_len)]
    for s in seqs:
        for pos in range(s.size):
            ctx = tuple(s[max(0, pos - order):pos])
            row = counts[pos].setdefault(ctx, np.zeros(alphabet_size))
            row[s[pos]] += 1.0

    tables = []
    for pos_counts in counts:
        table = {}
        for ctx, row in pos_counts.items():
            # a context row holds at least one count, so the total is at least 1
            smoothed = row + pseudocount
            table[ctx] = smoothed / smoothed.sum()
        tables.append(table)

    lengths, freq = np.unique([s.size for s in seqs], return_counts=True)
    return MarkovBackground(order=order, alphabet_size=alphabet_size, tables=tables,
                            lengths=lengths.astype(int),
                            length_probs=freq / freq.sum())


# ---------------------------------------------------------------------------
# Channels and activations
# ---------------------------------------------------------------------------

def make_channels(n_channels: int, k: int, alphabet_size: int, seed: int) -> np.ndarray:
    """Planted k-mer channel bank (n_channels x k integer matrix)."""
    rng = child_rng(seed, "channels")
    return rng.integers(0, alphabet_size, size=(n_channels, k)).astype(np.int8)


def _windows(repertoire, k: int) -> np.ndarray:
    chunks = []
    for seq in repertoire:
        seq = np.asarray(seq, dtype=np.int8)
        if seq.size >= k:
            view = np.lib.stride_tricks.sliding_window_view(seq, k)
            chunks.append(view)
    if not chunks:
        return np.zeros((0, k), dtype=np.int8)
    return np.concatenate(chunks, axis=0)


def channel_activations(channels: np.ndarray, repertoires) -> np.ndarray:
    """Max sliding-window match score per (channel, repertoire).

    The match score of a window is the fraction of agreeing symbols, so
    activations live in [0, 1]. Channels are scored 64 at a time, which bounds
    the broadcast comparison's size.
    """
    chunk = 64
    channels = np.asarray(channels, dtype=np.int8)
    n_channels, k = channels.shape
    out = np.zeros((n_channels, len(repertoires)))
    for j, repertoire in enumerate(repertoires):
        win = _windows(repertoire, k)
        if win.shape[0] == 0:
            continue
        for start in range(0, n_channels, chunk):
            block = channels[start:start + chunk]
            scores = (win[None, :, :] == block[:, None, :]).mean(axis=2)
            out[start:start + chunk, j] = scores.max(axis=1)
    return out


def screen_channels(activations: np.ndarray, top_frac: float) -> np.ndarray:
    """Indices of channels whose max activation is in the top fraction.

    Deterministic tie handling: channels are ranked by (score descending,
    index ascending) and exactly round(C * top_frac) of them (at least one)
    survive. Returned indices are sorted ascending.
    """
    activations = check_finite(activations, "activations")
    require(activations.ndim == 2 and activations.size > 0, "empty activation matrix")
    require(0.0 < top_frac <= 1.0, "top_frac must lie in (0, 1]")
    scores = activations.max(axis=1)
    n = scores.shape[0]
    keep = min(n, max(1, int(round(top_frac * n))))
    order = np.lexsort((np.arange(n), -scores))
    return np.sort(order[:keep])


# ---------------------------------------------------------------------------
# Permutation p-values
# ---------------------------------------------------------------------------

@dataclass
class PermutationResult:
    p_value: float
    b_used: int


def permutation_pvalue(observed: float, null_sampler, rng: np.random.Generator,
                       b_min: int = DESK_PERMUTATION_FLOOR,
                       b_max: int = PRODUCTION_PERMUTATION_FLOOR, block: int = 500,
                       stability_window: float = 5e-4) -> PermutationResult:
    """Adaptive one-sided permutation p-value with the plus-one estimator.

    ``null_sampler(rng, size)`` returns draws of the null statistic. Blocks
    are added until the estimate moves by less than ``stability_window``
    over two consecutive blocks (after the ``b_min`` floor) or ``b_max`` is
    reached. p = (1 + #{null >= observed}) / (B + 1).
    """
    require(np.isfinite(observed), "non-finite statistic")
    require(b_min >= 1, "b_min must be positive")
    require(b_max >= b_min, "b_max must be at least b_min")
    count = 0
    b_used = 0
    prev_p = None
    stable_blocks = 0
    while b_used < b_max:
        size = min(block, b_max - b_used)
        draws = np.asarray(null_sampler(rng, size), dtype=float)
        require(draws.shape[0] == size, "sampler returned the wrong number of draws")
        count += int(np.sum(draws >= observed))
        b_used += size
        p = (1 + count) / (b_used + 1)
        if prev_p is not None and abs(p - prev_p) < stability_window:
            stable_blocks += 1
        else:
            stable_blocks = 0
        prev_p = p
        if b_used >= b_min and stable_blocks >= 2:
            return PermutationResult(p_value=p, b_used=b_used)
    return PermutationResult(p_value=(1 + count) / (b_used + 1), b_used=b_used)


# ---------------------------------------------------------------------------
# Storey estimate and q-values
# ---------------------------------------------------------------------------

@dataclass
class Pi0Estimate:
    pi0: float
    ci90: tuple


def _storey_estimate(p: np.ndarray) -> float:
    """Storey's null proportion min(1, #{p > 1/2} / (m / 2)) of m p-values (lambda = 1/2)."""
    return min(1.0, float(np.sum(p > 0.5)) / (0.5 * p.size))


def storey_pi0(p_values, n_boot: int = 1000, seed: int = 0) -> Pi0Estimate:
    """Storey null-proportion estimate with a bootstrap 90 percent interval."""
    p = check_finite(p_values, "p-values").ravel()
    require(p.size >= 1, "empty p-value set")
    require(np.all((p > 0) & (p <= 1)), "p-values must lie in (0, 1]")
    pi0 = _storey_estimate(p)
    rng = child_rng(seed, "storey")
    idx = bootstrap_indices(p.size, n_boot, rng)
    reps = np.array([_storey_estimate(p[row]) for row in idx])
    return Pi0Estimate(pi0=pi0, ci90=percentile_interval(reps))


def q_values(p_values, pi0: float) -> np.ndarray:
    """Step-up q-values q_(i) = min_{j >= i} pi0 * m * p_(j) / j."""
    p = check_finite(p_values, "p-values").ravel()
    m = p.size
    order = np.argsort(p, kind="stable")
    sorted_p = p[order]
    raw = pi0 * m * sorted_p / np.arange(1, m + 1)
    stepped = np.minimum.accumulate(raw[::-1])[::-1]
    stepped = np.clip(stepped, 0.0, 1.0)
    out = np.empty(m)
    out[order] = stepped
    return out


@dataclass
class MotifTestReport:
    screened: np.ndarray
    p_values: np.ndarray
    q_values: np.ndarray
    pi0: Pi0Estimate
    b_used: np.ndarray

    def significant(self, q_level: float = 0.1) -> np.ndarray:
        return self.screened[self.q_values <= q_level]


def motif_test_report(channels, repertoires, background: MarkovBackground,
                      top_frac: float = 0.05, b_min: int = DESK_PERMUTATION_FLOOR,
                      b_max: int = PRODUCTION_PERMUTATION_FLOOR,
                      null_pool_size: int = 256, seed: int = 0) -> MotifTestReport:
    """Two-stage screen-then-test report over a channel bank.

    Stage one keeps the top activation fraction of channels. Stage two
    compares each kept channel's mean activation across the observed
    repertoires against the same statistic on background-sampled repertoire
    draws, via the adaptive permutation machinery. Null activations are
    computed once on a shared pool of sampled repertoires and the per-test
    null statistic resamples repertoire columns from that pool.
    """
    activations = channel_activations(channels, repertoires)
    screened = screen_channels(activations, top_frac)
    n_rep = activations.shape[1]

    rng_pool = child_rng(seed, "motif-null-pool")
    pool = [background.sample(len(repertoires[i % len(repertoires)]), rng_pool)
            for i in range(null_pool_size)]
    null_acts = channel_activations(channels[screened], pool)

    p_vals = np.empty(screened.size)
    b_used = np.empty(screened.size, dtype=int)
    for i, channel_idx in enumerate(screened):
        observed = float(activations[channel_idx].mean())
        row = null_acts[i]

        def sampler(rng, size, row=row):
            cols = rng.integers(0, row.size, size=(size, n_rep))
            return row[cols].mean(axis=1)

        rng = child_rng(seed, "motif-perm", int(channel_idx))
        res = permutation_pvalue(observed, sampler, rng, b_min=b_min, b_max=b_max)
        p_vals[i] = res.p_value
        b_used[i] = res.b_used

    pi0 = storey_pi0(p_vals, seed=seed)
    q_vals = q_values(p_vals, pi0.pi0)
    return MotifTestReport(screened=screened, p_values=p_vals, q_values=q_vals,
                           pi0=pi0, b_used=b_used)


# ---------------------------------------------------------------------------
# Threshold calibration
# ---------------------------------------------------------------------------

@dataclass
class TauCalibration:
    cohort: str
    tau_bar: float
    se: float
    t_abs: float
    p_value: float
    delta_auc: float
    zero_variance: bool
    n_retries: int
    test_auc: float


def t_statistic_from_summary(tau_bar: float, se: float) -> float:
    """Stability statistic t = (tau_bar - GRID_CENTER) / (SE / sqrt(3))."""
    require(se > 0.0, "standard error must be positive for the t statistic")
    return (tau_bar - GRID_CENTER) / (se / np.sqrt(3.0))


def _threshold_score(activations, tau):
    # fraction of screened channels firing above tau, per repertoire; a vector
    # of thresholds gives one row per threshold
    return (activations > np.asarray(tau)[..., None, None]).mean(axis=-2)


def stratified_part_size(n, frac):
    """How many of a class's n repertoires ``_stratified_split`` puts in its first part.

    round(frac * n), at least 1 and, while the class has two or more, at most
    n - 1. Summed over both classes at ``CALIB_FRAC``, the size of
    ``calibrate_tau``'s calibration fold.
    """
    n_first = max(1, int(round(frac * n)))
    return min(n_first, n - 1) if n > 1 else min(n_first, n)


def _stratified_split(labels, frac, rng):
    labels = np.asarray(labels, dtype=int)
    first, second = [], []
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        n_first = stratified_part_size(idx.size, frac)
        first.extend(idx[:n_first])
        second.extend(idx[n_first:])
    return np.sort(np.array(first, dtype=int)), np.sort(np.array(second, dtype=int))


def _t2_lower_tail(t_abs):
    """P(T <= -t_abs) for Student's t with 2 degrees of freedom.

    Bit for bit ``scipy.special.stdtr(2, -t_abs)`` at every t_abs >= 0 (a NaN
    gives a NaN): the path of Boost's ``students_t`` cdf, which scipy wraps.
    Below t² = 1 the tail is ibetac(1/2, 1, z) / 2 = (1 - z^(1/2)) / 2 with
    z = t² / (2 + t²), and 1/2 at z = 0; otherwise it is ibeta(1, 1/2, z) / 2
    = (1 - (1 - z)^(1/2)) / 2 with z = 2 / (2 + t²). Each 1 - u^(1/2) is
    -expm1(log(u) / 2), with log1p(-z) for log(1 - z) while z < 1/2.
    """
    x2 = t_abs * t_abs
    if x2 < 1.0:
        z = x2 / (2.0 + x2)
        if z == 0.0:
            return 0.5
        p = -math.expm1(0.5 * math.log(z))
    else:
        z = 2.0 / (2.0 + x2)
        p = -math.expm1(0.5 * (math.log1p(-z) if z < 0.5 else math.log(1.0 - z)))
    return p / 2.0


def calibrate_tau(activations, labels, cohort: str = "cohort",
                  calib_frac: float = CALIB_FRAC, gap_bound: float = 0.01,
                  max_retries: int = 5, seed: int = 0) -> TauCalibration:
    """Nested-CV threshold calibration with the grid-centre stability t-test.

    The calibration fold (``calib_frac`` of repertoires, stratified) is split
    into three inner folds; each inner split picks the ``DEFAULT_TAU_GRID``
    threshold maximizing AUC on its training part. The fold optima give
    tau_bar, its standard error, and the two-sided df=2 t-test against the
    grid centre at level 0.05; on failure the grid is narrowed by 20 percent
    around tau_bar and the procedure repeats. Calibration also repeats while
    the calibration-test AUC gap exceeds ``gap_bound``. Identical fold optima
    (zero SE) pass by definition and are flagged.
    """
    activations = check_finite(activations, "activations")
    labels = np.asarray(labels, dtype=int)
    require(activations.ndim == 2 and activations.shape[1] == labels.size,
            "activations must be channels x repertoires aligned with labels")
    require(0.0 < calib_frac < 1.0, "calib_frac must lie in (0, 1)")
    rng = child_rng(seed, "tau-split", cohort)
    calib_idx, test_idx = _stratified_split(labels, calib_frac, rng)
    # the SE's divisor 6 = 3 * 2, the t statistic's sqrt(3) and df = 2 hold for three folds
    require(calib_idx.size >= 2 * N_INNER_FOLDS, "calibration fold too small for nested CV")

    grid = tuple(float(g) for g in DEFAULT_TAU_GRID)
    for retry in range(max_retries):
        fold_assign = np.arange(calib_idx.size) % N_INNER_FOLDS
        fold_assign = fold_assign[child_rng(seed, "tau-folds", cohort, retry).permutation(calib_idx.size)]
        optima = []
        for fold in range(N_INNER_FOLDS):
            train_local = calib_idx[fold_assign != fold]
            aucs = rank_auc_or_nan(_threshold_score(activations[:, train_local], grid),
                                   labels[train_local])
            best_tau, best_auc = None, -np.inf
            for tau, auc in zip(grid, aucs):
                if np.isnan(auc):
                    continue
                # ties prefer the threshold closest to the grid centre
                key = (auc, -abs(tau - GRID_CENTER))
                if best_tau is None or key > (best_auc, -abs(best_tau - GRID_CENTER)):
                    best_tau, best_auc = tau, auc
            optima.append(best_tau if best_tau is not None else GRID_CENTER)

        optima = np.asarray(optima, dtype=float)
        tau_bar = float(optima.mean())
        se = float(np.sqrt(np.sum((optima - tau_bar) ** 2) / 6.0))

        tau_star = tau_bar
        calib_auc = rank_auc_or_nan(_threshold_score(activations[:, calib_idx], tau_star),
                                    labels[calib_idx])
        test_auc = rank_auc_or_nan(_threshold_score(activations[:, test_idx], tau_star),
                                   labels[test_idx])
        delta_auc = abs(calib_auc - test_auc)

        # degenerate: identical inner-fold optima; the test is undefined
        # and calibration passes with the zero-variance flag
        zero_variance = se == 0.0
        t_abs = p_two = float("nan")
        if not zero_variance:
            t_abs = abs(t_statistic_from_summary(tau_bar, se))
            p_two = 2.0 * _t2_lower_tail(t_abs)
        if (zero_variance or p_two >= 0.05) and delta_auc <= gap_bound:
            return TauCalibration(cohort=cohort, tau_bar=tau_bar, se=se, t_abs=t_abs,
                                  p_value=p_two, delta_auc=delta_auc,
                                  zero_variance=zero_variance, n_retries=retry,
                                  test_auc=test_auc)

        # narrow the search interval by 20 percent around tau_bar and retry
        span = (max(grid) - min(grid)) * 0.8
        lo = max(0.01, tau_bar - span / 2.0)
        hi = min(0.99, tau_bar + span / 2.0)
        grid = tuple(np.round(np.linspace(lo, hi, len(grid)), 10))

    raise CalibrationError(f"calibration for {cohort!r} did not pass within "
                           f"{max_retries} retries")


# ---------------------------------------------------------------------------
# Power curves
# ---------------------------------------------------------------------------

def power_curve(effect_sizes, alpha: float, null_sampler, n_trials: int = 100,
                m_channels: int = 40, planted_frac: float = 0.25,
                b_perm: int = 400, seed: int = 0):
    """Monte-Carlo detection rates per effect size.

    Each trial plants ``planted_frac`` of ``m_channels`` with the given
    location shift over the null statistic, computes permutation p-values
    and q-values, and records the detection rate of planted channels at
    level alpha under both the raw p rule and the q rule.
    """
    require(len(effect_sizes) >= 1, "effect grid must be nonempty")
    n_planted = max(1, int(round(planted_frac * m_channels)))
    rows = []
    for effect in effect_sizes:
        hits_p, hits_q, total = 0, 0, 0
        for trial in range(n_trials):
            rng = child_rng(seed, "power", repr(effect), trial)
            observed = np.asarray(null_sampler(rng, m_channels), dtype=float)
            observed[:n_planted] += effect
            null_draws = np.asarray(null_sampler(rng, (b_perm, m_channels)), dtype=float)
            counts = (null_draws >= observed[None, :]).sum(axis=0)
            p_vals = (1 + counts) / (b_perm + 1)
            pi0 = _storey_estimate(p_vals)
            q_vals = q_values(p_vals, pi0 if pi0 > 0 else 1.0)
            hits_p += int(np.sum(p_vals[:n_planted] <= alpha))
            hits_q += int(np.sum(q_vals[:n_planted] <= alpha))
            total += n_planted
        rows.append({"effect": float(effect),
                     "rate_p": hits_p / total,
                     "rate_q": hits_q / total})
    return rows
