"""Spectral rank diagnostics: PCA energy rule, across-task Fisher spectra, bootstrap tests.

Two bootstrap selectors live here. The percentile test on the Fisher energy
ratio Bonferroni-corrects five neighbouring candidate dimensions and comes in
two variants that differ only in how the replicate spectra are made: by
resampling the eigenvalue vector itself, or by resampling tasks and taking
the spectrum of each replicate's corpus Fisher matrix. The second exists
because eigenvalue resampling is uninformative on strongly spiked spectra
(see fisher_energy_test notes). Both feed their replicate spectra to one
ratio test and one decision rule. The task variant draws one replicate set
and reads every candidate's ratio off its spectra: each candidate keeps its
own null distribution, so the Bonferroni bound holds as before, and since a
spectrum's top-r energy ratio cannot fall as r grows, its p-values are
non-increasing in the candidate dimension. The sequential selector compares
reconstruction errors of adjacent PCA dimensions with paired bootstrap tests.
A random-projection check measures the Fisher energy a held-out set of
adapters leaves outside the fitted subspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adapters import adapter_rows
from .resampling import bootstrap_indices, exhaustive_index_tuples, shift_bootstrap_pvalue
from .util import ValidationError, check_finite, child_rng, require, sigmoid, write_csv

BONFERRONI_FAMILY = 5      # the candidate family {r-2, ..., r+2}
DEFAULT_H0_LEVEL = 0.95    # null energy level of the ratio test


# ---------------------------------------------------------------------------
# PCA energy rank rule
# ---------------------------------------------------------------------------

def singular_spectrum(theta) -> np.ndarray:
    return np.linalg.svd(adapter_rows(theta), compute_uv=False)


def pca_rank(theta, rho: float) -> int:
    """Smallest r whose top-r squared singular values reach a fraction rho."""
    require(0.0 < rho < 1.0, "rho must lie in (0, 1)")
    s = singular_spectrum(theta)
    energy = s**2
    total = energy.sum()
    if total <= 0.0:
        raise ValidationError("all-zero adapter matrix has no spectrum")
    cumulative = np.cumsum(energy) / total
    return int(np.searchsorted(cumulative, rho - 1e-12) + 1)


def rank_curve(theta, rho_list, seed: int = 0):
    """r as a function of the number of tasks N, for several rho values.

    N runs over a quarter, a half, three quarters and all of the tasks, at
    least two.
    """
    rows = adapter_rows(theta)
    n = rows.shape[0]
    n_grid = sorted({max(2, n // 4), max(2, n // 2), max(2, (3 * n) // 4), n})
    order = child_rng(seed, "rank-curve").permutation(n)
    out = []
    for n_sub in n_grid:
        require(2 <= n_sub <= n, "subset size out of range")
        subset = rows[order[:n_sub]]
        for rho in rho_list:
            out.append({"n_tasks": n_sub, "rho": rho, "r": pca_rank(subset, rho)})
    return out


# ---------------------------------------------------------------------------
# Fisher spectra
# ---------------------------------------------------------------------------

@dataclass
class FisherSpectrum:
    """Descending nonnegative eigenvalues of a regularized Fisher estimate."""

    eigenvalues: np.ndarray
    ridge_reg: float
    n_support: int

    def __post_init__(self):
        self.eigenvalues = check_finite(self.eigenvalues, "eigenvalues")
        require(np.all(np.diff(self.eigenvalues) <= 1e-12), "eigenvalues must be sorted descending")
        require(np.all(self.eigenvalues >= -1e-12), "eigenvalues must be nonnegative")
        self.eigenvalues = np.clip(self.eigenvalues, 0.0, None)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def _default_reg(trace, d: int):
    # trace-relative floor keeps the energy ratio stable without drowning it;
    # zero for a nonpositive trace; elementwise for an array of traces
    return 1e-6 * np.maximum(trace, 0.0) / d


def _regularized_spectra(fisher: np.ndarray, reg: float | None):
    """Descending eigenvalues of ``fisher + reg I``, clipped at zero, and the ridge.

    ``fisher`` is one (d, d) matrix or a (..., d, d) stack; with ``reg``
    None each matrix gets its own trace-relative default. Returns the
    spectra and the ridge applied (one value per matrix for a default ridge).
    """
    d = fisher.shape[-1]
    if reg is None:
        reg = _default_reg(np.trace(fisher, axis1=-2, axis2=-1), d)
    require(np.all(np.asarray(reg) >= 0.0), "reg must be nonnegative")
    eig = np.linalg.eigvalsh(fisher + np.asarray(reg)[..., None, None] * np.eye(d))
    return np.clip(eig[..., ::-1], 0.0, None), reg


def task_gradients(task, feature_map, at=None) -> np.ndarray:
    """Per-sample probe-loss gradients of the task's linear head.

    The probe loss is the logistic loss of the adapter-parameterized
    classifier; gradients are taken at the reference adapter ``at``
    (zero by default), giving (p - y) * features per sample.
    """
    return feature_gradients(check_finite(feature_map(task.support_x), "support features"),
                             task.support_y, at=at)


def feature_gradients(x: np.ndarray, y, at=None) -> np.ndarray:
    """``task_gradients`` of a support already mapped to features ``x``, labels ``y``."""
    y = np.asarray(y, dtype=float)
    theta0 = np.zeros(x.shape[1]) if at is None else np.asarray(at, dtype=float)
    p = sigmoid(x @ theta0)
    return (p - y)[:, None] * x


@dataclass
class TaskGradientSummary:
    """Per-task mean gradient and within-task gradient covariance."""

    mean: np.ndarray
    within_cov: np.ndarray
    n_support: int

    @classmethod
    def from_task(cls, task, feature_map, at=None) -> "TaskGradientSummary":
        return cls.from_gradients(task_gradients(task, feature_map, at=at))

    @classmethod
    def from_gradients(cls, g: np.ndarray) -> "TaskGradientSummary":
        """The summary of one task's per-sample gradients (``feature_gradients``), n x d."""
        n = g.shape[0]
        mean = g.mean(axis=0)
        if n > 1:
            centred = g - mean
            cov = centred.T @ centred / (n - 1)
        else:
            cov = np.zeros((g.shape[1], g.shape[1]))
        return cls(mean=mean, within_cov=cov, n_support=n)


def corpus_fisher_matrix(summaries, bias_correct: bool) -> np.ndarray:
    """Across-task Fisher matrix: the mean of the per-task outer products.

    With ``bias_correct`` each task with more than one support sample also
    subtracts its within-task covariance divided by its support size.
    """
    d = summaries[0].mean.shape[0]
    fisher = np.zeros((d, d))
    for s in summaries:
        fisher += np.outer(s.mean, s.mean)
        if bias_correct and s.n_support > 1:
            fisher -= s.within_cov / s.n_support
    fisher /= len(summaries)
    return 0.5 * (fisher + fisher.T)


def corpus_fisher_spectrum(tasks, feature_map, reg: float | None = None, at=None,
                           bias_correct: bool = True) -> FisherSpectrum:
    """Across-task Fisher spectrum from per-task mean probe gradients.

    Each task contributes the outer product of its support-averaged gradient;
    with ``bias_correct`` the within-task sampling covariance (scaled by
    1/n_support) is subtracted so the expected matrix is the pure across-task
    second moment. Trailing eigenvalues are clipped at zero.
    """
    require(len(tasks) >= 2, "need at least two tasks")
    summaries = [TaskGradientSummary.from_task(t, feature_map, at=at) for t in tasks]
    eig, reg = _regularized_spectra(corpus_fisher_matrix(summaries, bias_correct), reg)
    n_med = int(np.median([s.n_support for s in summaries]))
    return FisherSpectrum(eigenvalues=eig, ridge_reg=reg, n_support=n_med)


# ---------------------------------------------------------------------------
# Fisher energy ratio test
# ---------------------------------------------------------------------------

def energy_ratio(eigenvalues: np.ndarray, r: int) -> float:
    """Fraction of total spectrum mass in the top r eigenvalues."""
    eigenvalues = np.sort(np.asarray(eigenvalues, dtype=float))[::-1]
    total = eigenvalues.sum()
    if total <= 0.0:
        raise ValidationError("degenerate spectrum: total energy is zero")
    if r <= 0:
        return 0.0
    return float(eigenvalues[: min(r, eigenvalues.shape[0])].sum() / total)


@dataclass
class DimTestRecord:
    r_cand: int
    zeta_emp: float
    p_raw: float
    p_adj: float
    reject: bool
    borderline: bool = False


@dataclass
class DimTestReport:
    records: list
    selected_r: int | None
    n_boot: int
    notes: list = field(default_factory=list)

    def to_csv(self, path) -> None:
        header = ["r_cand", "zeta_emp", "p_raw", "p_adj", "reject", "selected", "borderline"]
        rows = [
            [rec.r_cand, rec.zeta_emp, rec.p_raw, rec.p_adj, rec.reject,
             rec.r_cand == self.selected_r, rec.borderline]
            for rec in self.records
        ]
        write_csv(path, header, rows)


def adjusted_pvalue(p_raw: float) -> float:
    """Bonferroni correction over the five-candidate family."""
    return min(1.0, BONFERRONI_FAMILY * p_raw)


def decision_report_from_pvalues(rows, alpha: float = 0.01, n_boot: int = 1000) -> DimTestReport:
    """Pure arithmetic on (r_cand, zeta_emp, p_raw) triples.

    Applies the five-way Bonferroni correction and the familywise alpha rule;
    rows that miss alpha but would pass 0.05 are flagged as borderline so
    threshold disagreements are visible in the output. The selected dimension
    is the smallest rejecting candidate.
    """
    records = []
    for r_cand, zeta_emp, p_raw in rows:
        p_adj = adjusted_pvalue(p_raw)
        reject = p_adj <= alpha
        records.append(DimTestRecord(
            r_cand=int(r_cand), zeta_emp=float(zeta_emp), p_raw=float(p_raw),
            p_adj=p_adj, reject=reject, borderline=(not reject) and p_adj <= 0.05,
        ))
    rejecting = [rec.r_cand for rec in records if rec.reject]
    selected = min(rejecting) if rejecting else None
    notes = [f"r={rec.r_cand} fails the alpha={alpha} rule but lies below 0.05"
             for rec in records if rec.borderline]
    return DimTestReport(records=records, selected_r=selected, n_boot=n_boot, notes=notes)


def _candidate_set(r_center: int, d: int) -> list:
    cands = [r for r in range(r_center - 2, r_center + 3) if 1 <= r <= d]
    if not cands:
        raise ValidationError("no valid candidate dimensions")
    return cands


def _energy_ratios(spectra: np.ndarray):
    """The replicate energy ratios of (B, d) spectra, one per row, as a function of r.

    A replicate's ratio is its top-r sum after a descending sort over its row
    total, summed in the order given (1.0 for a total at or below zero). The
    sort and the totals are computed once, for every r asked for.
    """
    totals = spectra.sum(axis=1)
    ordered = -np.sort(-spectra, axis=1)

    def at(r: int) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(totals <= 0, 1.0, ordered[:, :r].sum(axis=1) / totals)

    return at


def _ratio_test(eig_full, r_center: int, replicate_ratios, alpha: float, h0_level: float,
                n_boot: int) -> DimTestReport:
    """Energy ratio test of every candidate on its replicate ratios.

    ``replicate_ratios(r_cand)`` gives one ratio per replicate (see
    ``_energy_ratios``); the one-sided p-value counts replicates at or below
    ``h0_level``.
    """
    rows = []
    for r_cand in _candidate_set(r_center, eig_full.shape[0]):
        zeta_b = replicate_ratios(r_cand)
        p_raw = (1 + int(np.sum(zeta_b <= h0_level))) / (zeta_b.shape[0] + 1)
        rows.append((r_cand, energy_ratio(eig_full, r_cand), p_raw))
    return decision_report_from_pvalues(rows, alpha, n_boot)


def fisher_energy_test(spectrum: FisherSpectrum, r_center: int, n_boot: int = 1000,
                       alpha: float = 0.01, h0_level: float = DEFAULT_H0_LEVEL,
                       seed: int = 0, exhaustive: bool = False) -> DimTestReport:
    """Percentile bootstrap test of the energy ratio, eigenvalue resampling.

    For each candidate r the eigenvalue vector is resampled with replacement,
    the ratio is recomputed on the sorted resample, and the one-sided p-value
    counts replicates at or below ``h0_level``. Five-way Bonferroni correction
    and the familywise alpha rule give the decision; the selected dimension is
    the smallest rejecting candidate. With ``exhaustive=True`` every candidate
    sees all d**d resamples instead of ``n_boot`` draws from its own
    ``child_rng(seed, "fisher-test", r_cand)`` stream.

    Note: on strongly spiked spectra (a few eigenvalues carrying nearly all
    mass) the resampled ratio is bimodal and this procedure loses power; the
    task-resampling variant below stays informative there.
    """
    eig = spectrum.eigenvalues
    if eig.sum() <= 0.0:
        raise ValidationError("degenerate spectrum: total energy is zero")
    require(n_boot >= 1, "n_boot must be positive")
    d = spectrum.dim

    def replicate_ratios(r_cand):
        idx = (exhaustive_index_tuples(d) if exhaustive
               else bootstrap_indices(d, n_boot, child_rng(seed, "fisher-test", r_cand)))
        return _energy_ratios(eig[idx])(r_cand)

    return _ratio_test(eig, r_center, replicate_ratios, alpha, h0_level, n_boot)


def fisher_energy_test_tasks(summaries, r_center: int, n_boot: int = 1000,
                             alpha: float = 0.01, h0_level: float = DEFAULT_H0_LEVEL,
                             seed: int = 0, reg: float | None = None,
                             bias_correct: bool = True) -> DimTestReport:
    """Energy ratio test with task-level resampling.

    Resamples tasks with replacement and takes each replicate's spectrum from
    its corpus Fisher matrix; the ratio test and the decision rule are the
    ones the eigenvalue variant uses, so the two tests differ only in how the
    replicate spectra are made. Informative on spiked spectra, where the
    eigenvalue-resampling procedure cannot reject.

    Every candidate reads its ratio off one shared replicate set. The draws
    are one ``(n_boot, n_tasks)`` block from the single stream
    ``child_rng(seed, "fisher-test-tasks")``, the same stream as drawing the
    replicates one row at a time. Sharing the set leaves each candidate's
    p-value the tail of its own null distribution, so the Bonferroni bound
    over the family holds unchanged; and since adding an eigenvalue (clipped
    at zero) cannot lower a replicate's top-r ratio, ``p_raw`` is
    non-increasing in ``r_cand``. A replicate's Fisher matrix is the
    count-weighted sum of the per-task matrices ``m m^T - C / n`` (``m m^T``
    alone without ``bias_correct`` or for a single support sample), so all
    replicates come from one count matrix product and one batched
    eigendecomposition of n_boot matrices.
    """
    require(len(summaries) >= 2, "need at least two task summaries")
    require(n_boot >= 1, "n_boot must be positive")
    d = summaries[0].mean.shape[0]

    eig_full, _ = _regularized_spectra(corpus_fisher_matrix(summaries, bias_correct), reg)
    if eig_full.sum() <= 0:
        raise ValidationError("degenerate corpus spectrum")
    n_tasks = len(summaries)
    task_terms = np.stack([
        np.outer(s.mean, s.mean)
        - (s.within_cov / s.n_support if bias_correct and s.n_support > 1 else 0.0)
        for s in summaries
    ]).reshape(n_tasks, d * d)
    picks = child_rng(seed, "fisher-test-tasks").integers(0, n_tasks, size=(n_boot, n_tasks))
    row_offsets = np.arange(n_boot)[:, None] * n_tasks
    counts = np.bincount((picks + row_offsets).ravel(),
                         minlength=n_boot * n_tasks).reshape(n_boot, n_tasks)
    fishers = (counts @ task_terms).reshape(n_boot, d, d) / n_tasks
    spectra = _regularized_spectra(0.5 * (fishers + fishers.transpose(0, 2, 1)), reg)[0]
    return _ratio_test(eig_full, r_center, _energy_ratios(spectra), alpha, h0_level, n_boot)


# ---------------------------------------------------------------------------
# Random-projection leakage check
# ---------------------------------------------------------------------------

@dataclass
class ProjectionEnergyReport:
    fractions: np.ndarray
    upper95: float
    threshold: float
    accept: bool
    r: int


def jl_outside_energy(theta_holdout, fisher_matrix, r: int, s: int,
                      n_maps: int = 20, threshold: float = 0.05,
                      seed: int = 0) -> ProjectionEnergyReport:
    """Fisher energy outside the top-r subspace after random projection.

    Gaussian maps project the held-out adapters and the Fisher quadratic
    form to s dimensions; per map, the outside-subspace energy fraction is
    recorded, and the 95 percent upper bound of the mean fraction over 500
    bootstrap resamples is compared against the acceptance threshold.
    """
    rows = adapter_rows(theta_holdout)
    fisher = check_finite(fisher_matrix, "fisher matrix")
    d = rows.shape[1]
    require(s < d, "projection dimension must be below d_theta")
    require(s > r, "projection must exceed the tested subspace dimension")
    require(n_maps >= 1, "need at least one map")
    require(0.0 < threshold < 1.0, "threshold must lie in (0, 1)")

    fractions = np.empty(n_maps)
    for m in range(n_maps):
        rng = child_rng(seed, "jl-map", m)
        proj = rng.normal(size=(s, d)) / np.sqrt(s)
        projected = rows @ proj.T
        _, _, vt = np.linalg.svd(projected, full_matrices=False)
        v_r = vt[:r].T                      # s x r top directions of projected adapters
        fisher_p = proj @ fisher @ proj.T
        total = float(np.trace(fisher_p))
        inside = float(np.trace(v_r.T @ fisher_p @ v_r))
        fractions[m] = 0.0 if total <= 0 else max(0.0, 1.0 - inside / total)

    rng_b = child_rng(seed, "jl-boot")
    idx = bootstrap_indices(n_maps, 500, rng_b)
    means = fractions[idx].mean(axis=1)
    upper = float(np.percentile(means, 95.0))
    return ProjectionEnergyReport(fractions=fractions, upper95=upper,
                                  threshold=threshold, accept=upper <= threshold, r=r)


# ---------------------------------------------------------------------------
# Sequential paired-bootstrap selection
# ---------------------------------------------------------------------------

@dataclass
class SequentialRecord:
    r: int
    mean_improvement: float
    p_value: float
    significant: bool


@dataclass
class SequentialSelection:
    selected_r: int | None
    records: list
    alpha: float


def reconstruction_errors(rows: np.ndarray, r: int, basis: np.ndarray) -> np.ndarray:
    if r <= 0:
        return np.linalg.norm(rows, axis=1)
    v_r = basis[:, :r]
    resid = rows - (rows @ v_r) @ v_r.T
    return np.linalg.norm(resid, axis=1)


def sequential_r_selection(theta, r_center: int, n_boot: int = 1000,
                           alpha: float = 0.05, seed: int = 0) -> SequentialSelection:
    """Smallest candidate r whose r -> r+1 improvement is insignificant.

    Per-task reconstruction errors come from nested global PCA subspaces.
    For each candidate the paired improvement of adding one dimension is
    tested with a shift bootstrap of the mean; the selected dimension is the
    first whose improvement test fails to reject no-improvement (adding a
    dimension beyond it buys nothing statistically).
    """
    rows = adapter_rows(theta)
    require(rows.shape[0] >= 3, "need at least three tasks")
    d = rows.shape[1]
    _, _, vt = np.linalg.svd(rows, full_matrices=False)
    basis = vt.T

    records = []
    selected = None
    for r_cand in _candidate_set(r_center, d):
        err_r = reconstruction_errors(rows, r_cand, basis)
        err_next = (reconstruction_errors(rows, r_cand + 1, basis)
                    if r_cand + 1 <= basis.shape[1] else err_r)
        diffs = err_r - err_next
        if np.allclose(diffs, 0.0):
            p = 1.0
        else:
            rng = child_rng(seed, "seqr", r_cand)
            p = shift_bootstrap_pvalue(diffs, n_boot, rng)
        significant = p < alpha
        records.append(SequentialRecord(r=r_cand, mean_improvement=float(diffs.mean()),
                                        p_value=float(p), significant=significant))
        if not significant and selected is None:
            selected = r_cand
    if selected is None:
        selected = records[-1].r
    return SequentialSelection(selected_r=selected, records=records, alpha=alpha)
