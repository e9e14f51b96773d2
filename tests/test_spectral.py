from itertools import product

import numpy as np
import pytest
import scipy.linalg

from protoadapt.adapters import assemble_theta, ridge_adapter
from protoadapt.spectral import (
    DEFAULT_H0_LEVEL,
    _regularized_spectra,
    DimTestRecord,
    DimTestReport,
    FisherSpectrum,
    TaskGradientSummary,
    adjusted_pvalue,
    corpus_fisher_matrix,
    corpus_fisher_spectrum,
    decision_report_from_pvalues,
    energy_ratio,
    fisher_energy_test,
    fisher_energy_test_tasks,
    jl_outside_energy,
    pca_rank,
    rank_curve,
    sequential_r_selection,
    task_gradients,
)
from protoadapt.synthdata import GeneratorConfig, generate_corpus
from protoadapt.util import ValidationError, child_rng


class _Task:
    def __init__(self, x, y):
        self.support_x = np.asarray(x, dtype=float)
        self.support_y = np.asarray(y, dtype=int)


def identity_map(x):
    return np.atleast_2d(np.asarray(x, dtype=float))


class _Rows:
    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)


class TestPcaRank:
    def test_rank_one_spectrum(self):
        rows = np.outer(np.arange(1.0, 5.0), np.array([1.0, 2.0, 0.0]))
        for rho in (0.1, 0.5, 0.9, 0.999):
            assert pca_rank(_Rows(rows), rho) == 1

    def test_uniform_spectrum(self):
        # four equal singular values, rho = 0.5 -> r = 2
        rows = np.eye(4)
        assert pca_rank(_Rows(rows), 0.5) == 2
        assert pca_rank(_Rows(rows), 0.74) == 3
        assert pca_rank(_Rows(rows), 0.76) == 4

    def test_planted_corpus(self):
        cfg = GeneratorConfig(d_theta=8, q=16, r_true=2, n_tasks=150,
                              seed=51)
        corpus = generate_corpus(cfg)
        theta = assemble_theta([t.theta_true for t in corpus.tasks])
        assert pca_rank(theta, 0.99) == 2

    def test_monotone_in_rho(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(20, 6)) * np.array([5, 3, 2, 1, 0.5, 0.1])
        rhos = np.linspace(0.05, 0.99, 17)
        ranks = [pca_rank(_Rows(rows), rho) for rho in rhos]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValidationError):
            pca_rank(_Rows(np.zeros((3, 3))), 0.9)

    def test_rank_curve_shape(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(40, 5))
        out = rank_curve(_Rows(rows), rho_list=(0.9, 0.99), seed=1)
        assert {row["rho"] for row in out} == {0.9, 0.99}
        assert all(1 <= row["r"] <= 5 for row in out)


class TestFisherSpectrum:
    def test_zero_gradients_all_reg(self):
        task = _Task(np.zeros((4, 3)), [0, 1, 0, 1])
        # zero features give zero gradients
        spec = corpus_fisher_spectrum([task, task], identity_map, reg=0.1)
        assert np.allclose(spec.eigenvalues, 0.1)

    def test_single_gradient_rank_one(self):
        g = np.array([3.0, 4.0, 0.0])
        eig, reg = _regularized_spectra(np.outer(g, g), 0.0)
        assert reg == 0.0
        assert eig[0] == pytest.approx(25.0)
        assert np.allclose(eig[1:], 0.0, atol=1e-12)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(5)
        grads = rng.normal(size=(3, 50, 6))
        fishers = grads.transpose(0, 2, 1) @ grads / 50
        eig, _ = _regularized_spectra(fishers, 0.0)
        for one, fisher in zip(eig, fishers):
            oracle = scipy.linalg.eigh(fisher, eigvals_only=True)[::-1]
            assert np.max(np.abs(one - oracle)) < 1e-8

    def test_gradient_formula(self):
        x = np.array([[1.0, 0.0], [0.0, 2.0]])
        task = _Task(x, [1, 0])
        g = task_gradients(task, identity_map)
        # at theta = 0 the predicted probability is 0.5
        assert np.allclose(g, (0.5 - np.array([1.0, 0.0]))[:, None] * x)

    def test_non_finite_rejected(self):
        task = _Task([[np.inf, 0.0]], [1])
        with pytest.raises(ValidationError):
            task_gradients(task, identity_map)


class TestEnergyTest:
    def test_trailing_zero_certain_rejection(self):
        # candidate r equal to the spectrum length: every resample has ratio 1
        spec = FisherSpectrum(eigenvalues=np.array([3.0, 2.0, 1.0, 0.0, 0.0]),
                              ridge_reg=0.0, n_support=10)
        report = fisher_energy_test(spec, r_center=3, n_boot=1000, seed=0)
        rec = {r.r_cand: r for r in report.records}[5]
        assert rec.p_raw == pytest.approx(1.0 / 1001.0)
        assert rec.reject

    def test_reference_arithmetic(self):
        assert adjusted_pvalue(0.089) == pytest.approx(0.445)
        assert adjusted_pvalue(0.366) == pytest.approx(1.0)
        report = decision_report_from_pvalues(
            [(18, 0.942, 0.366), (19, 0.949, 0.089)], alpha=0.01)
        recs = {r.r_cand: r for r in report.records}
        assert recs[18].p_adj == pytest.approx(1.0)
        assert recs[19].p_adj == pytest.approx(0.445)
        assert report.selected_r is None

    def test_exhaustive_enumeration_matches_oracle(self):
        eig = np.array([5.0, 2.5, 1.0, 0.5])
        spec = FisherSpectrum(eigenvalues=eig, ridge_reg=0.0, n_support=4)
        report = fisher_energy_test(spec, r_center=2, n_boot=7, seed=0, exhaustive=True)
        for rec in report.records:
            count = 0
            n_total = 0
            for idx in product(range(4), repeat=4):
                sample = np.sort(eig[list(idx)])[::-1]
                zeta = sample[: rec.r_cand].sum() / sample.sum()
                count += zeta <= 0.95
                n_total += 1
            assert rec.p_raw == pytest.approx((1 + count) / (n_total + 1))

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        eig = np.sort(rng.uniform(0.1, 3.0, size=6))[::-1]
        spec1 = FisherSpectrum(eigenvalues=eig, ridge_reg=0.0, n_support=5)
        spec2 = FisherSpectrum(eigenvalues=17.3 * eig, ridge_reg=0.0, n_support=5)
        rep1 = fisher_energy_test(spec1, r_center=3, n_boot=300, seed=9)
        rep2 = fisher_energy_test(spec2, r_center=3, n_boot=300, seed=9)
        for a, b in zip(rep1.records, rep2.records):
            assert a.zeta_emp == pytest.approx(b.zeta_emp)
            assert a.p_raw == b.p_raw
            assert a.reject == b.reject

    def test_bonferroni_and_alpha_nesting(self):
        rng = np.random.default_rng(7)
        eig = np.sort(rng.uniform(0.0, 1.0, size=8))[::-1]
        spec = FisherSpectrum(eigenvalues=eig, ridge_reg=0.0, n_support=5)
        strict = fisher_energy_test(spec, r_center=4, n_boot=400, alpha=0.01, seed=2)
        loose = fisher_energy_test(spec, r_center=4, n_boot=400, alpha=0.05, seed=2)
        for s_rec, l_rec in zip(strict.records, loose.records):
            assert s_rec.p_adj >= s_rec.p_raw
            if s_rec.reject:
                assert l_rec.reject

    def test_degenerate_spectrum_rejected(self):
        spec = FisherSpectrum(eigenvalues=np.zeros(4), ridge_reg=0.0, n_support=3)
        with pytest.raises(ValidationError):
            fisher_energy_test(spec, r_center=2)

    def test_task_mode_selects_planted_rank(self):
        cfg = GeneratorConfig(d_theta=8, q=16, r_true=2, n_tasks=120,
                              n_support=200, seed=42)
        corpus = generate_corpus(cfg)
        fmap = corpus.feature_map()
        summaries = [TaskGradientSummary.from_task(corpus.full_support(t), fmap)
                     for t in corpus.tasks]
        # rejection at alpha = 0.01 needs p_adj = 5 p_raw <= 0.01, so the
        # resample count must be at least 1000 for the floor 5/(B+1) to fit
        report = fisher_energy_test_tasks(summaries, r_center=2, n_boot=1000, seed=0)
        assert report.selected_r == 2


def _loop_fisher_energy_test(spectrum, r_center, n_boot=1000, alpha=0.01,
                             h0_level=DEFAULT_H0_LEVEL, seed=0, exhaustive=False):
    """The per-tuple loop and Monte-Carlo block the shared ratio test replaced,
    kept as its oracle."""
    eig = spectrum.eigenvalues
    d = spectrum.dim
    records = []
    for r_cand in [r for r in range(r_center - 2, r_center + 3) if 1 <= r <= d]:
        zeta_emp = energy_ratio(eig, r_cand)
        if exhaustive:
            replicates = []
            for idx in product(range(d), repeat=d):
                sample = eig[list(idx)]
                total = sample.sum()
                replicates.append(1.0 if total <= 0 else
                                  np.sort(sample)[::-1][:r_cand].sum() / total)
            replicates = np.asarray(replicates)
            used = replicates.shape[0]
        else:
            rng = child_rng(seed, "fisher-test", r_cand)
            samples = eig[rng.integers(0, d, size=(n_boot, d))]
            sums = samples.sum(axis=1)
            part = -np.sort(-samples, axis=1)[:, :r_cand].sum(axis=1)
            with np.errstate(invalid="ignore", divide="ignore"):
                replicates = np.where(sums > 0, part / np.maximum(sums, 1e-300), 1.0)
            used = n_boot
        p_raw = (1 + int(np.sum(replicates <= h0_level))) / (used + 1)
        p_adj = adjusted_pvalue(p_raw)
        reject = p_adj <= alpha
        records.append(DimTestRecord(
            r_cand=r_cand, zeta_emp=zeta_emp, p_raw=p_raw, p_adj=p_adj,
            reject=reject, borderline=(not reject) and p_adj <= 0.05,
        ))
    rejecting = [rec.r_cand for rec in records if rec.reject]
    return DimTestReport(records=records, selected_r=min(rejecting) if rejecting else None,
                         n_boot=n_boot)


def _assert_matches_oracle(spectrum, **kwargs):
    report = fisher_energy_test(spectrum, **kwargs)
    oracle = _loop_fisher_energy_test(spectrum, **kwargs)
    assert report.selected_r == oracle.selected_r
    assert [vars(rec) for rec in report.records] == [vars(rec) for rec in oracle.records]
    return report


def _spiked_spectrum(rng):
    d = int(rng.integers(3, 13))
    n_spikes = int(rng.integers(1, d))
    spikes = rng.uniform(2.0, 50.0, size=n_spikes)
    tail = rng.uniform(0.0, 1.0, size=d - n_spikes) * rng.choice([0.01, 0.1, 1.0, 5.0])
    eig = np.sort(np.concatenate([spikes, tail]))[::-1]
    return FisherSpectrum(eigenvalues=eig, ridge_reg=0.0, n_support=10)


class TestEigenvalueResamplingOracle:
    @pytest.mark.parametrize("seed", [42, 2023, 777])
    def test_planted_spectra(self, seed):
        cfg = GeneratorConfig(d_theta=8, q=16, r_true=2, n_tasks=120,
                              n_support=200, seed=seed)
        corpus = generate_corpus(cfg)
        spectrum = corpus_fisher_spectrum([corpus.full_support(t) for t in corpus.tasks],
                                          corpus.feature_map())
        _assert_matches_oracle(spectrum, r_center=2, n_boot=1000, seed=seed)

    def test_random_spiked_spectra(self):
        rng = np.random.default_rng(20)
        n_boot = 200
        mixed = 0
        for case in range(200):
            spectrum = _spiked_spectrum(rng)
            report = _assert_matches_oracle(
                spectrum, r_center=int(rng.integers(1, spectrum.dim + 1)), n_boot=n_boot,
                alpha=float(rng.choice([0.01, 0.05])),
                h0_level=float(rng.choice([0.5, 0.8, 0.9, DEFAULT_H0_LEVEL, 0.99])), seed=case)
            mixed += sum(1.0 / (n_boot + 1) < rec.p_raw < 1.0 for rec in report.records)
        assert mixed > 0

    @pytest.mark.parametrize("eig", [
        [5.0, 2.5, 1.0, 0.5],
        [3.0, 2.0, 1.0, 0.0, 0.0],
        [4.0, 1.0, 0.0],
        [1.0, 1.0, 1.0, 1.0, 1.0],
        [9.0, 0.3],
        [7.5, 2.25, 0.75, 0.5, 0.125],
    ])
    def test_exhaustive_spectra(self, eig):
        spectrum = FisherSpectrum(eigenvalues=np.array(eig), ridge_reg=0.0, n_support=4)
        for h0_level in (0.6, 0.8, DEFAULT_H0_LEVEL):
            report = _assert_matches_oracle(spectrum, r_center=2, n_boot=7, seed=0,
                                            h0_level=h0_level, exhaustive=True)
            assert report.n_boot == 7


def _loop_fisher_energy_test_tasks(summaries, r_center, n_boot, alpha, h0_level,
                                   seed, reg, bias_correct):
    """The per-replicate loop the batched test replaced, kept as its oracle: one
    replicate set, drawn row by row from the shared stream, for every candidate."""
    d = summaries[0].mean.shape[0]

    def spectrum_of(subset):
        fisher = corpus_fisher_matrix(subset, bias_correct)
        trace = float(np.trace(fisher))
        reg_use = (1e-6 * trace / d if trace > 0 else 0.0) if reg is None else reg
        return np.clip(np.linalg.eigvalsh(fisher + reg_use * np.eye(d))[::-1], 0.0, None)

    eig_full = spectrum_of(summaries)
    n_tasks = len(summaries)
    rng = child_rng(seed, "fisher-test-tasks")
    replicates = []
    for _ in range(n_boot):
        pick = rng.integers(0, n_tasks, size=n_tasks)
        replicates.append(spectrum_of([summaries[i] for i in pick]))
    rows = []
    for r_cand in range(max(1, r_center - 2), min(d, r_center + 2) + 1):
        count = 0
        for eig_b in replicates:
            total = eig_b.sum()
            zeta_b = 1.0 if total <= 0 else eig_b[:r_cand].sum() / total
            count += int(zeta_b <= h0_level)
        rows.append((r_cand, energy_ratio(eig_full, r_cand), (1 + count) / (n_boot + 1)))
    return decision_report_from_pvalues(rows, alpha=alpha, n_boot=n_boot)


def _planted_summaries(seed):
    cfg = GeneratorConfig(d_theta=8, q=16, r_true=2, n_tasks=40, n_support=60,
                          seed=seed)
    corpus = generate_corpus(cfg)
    fmap = corpus.feature_map()
    return [TaskGradientSummary.from_task(corpus.full_support(t), fmap) for t in corpus.tasks]


def _mixed_support_summaries():
    # rank-two means plus noise; covariances large enough that bias correction
    # leaves negative eigenvalues to clip; about half of the tasks have one
    # support sample, whose covariance the bias correction must ignore
    rng = np.random.default_rng(0)
    basis = rng.normal(size=(6, 2))
    summaries = []
    for n_support in rng.choice([1, 1, 2, 5], size=30):
        mean = basis @ rng.normal(size=2) + 0.1 * rng.normal(size=6)
        a = 0.3 * rng.normal(size=(6, 6))
        cov = a @ a.T
        summaries.append(TaskGradientSummary(mean=mean, within_cov=cov, n_support=int(n_support)))
    assert any(s.n_support == 1 for s in summaries)
    return summaries


class TestTaskResamplingOracle:
    # (summaries, h0_level, reg, bias_correct, alpha, some replicate count
    # strictly between 0 and n_boot)
    CASES = [
        (("planted", 42), DEFAULT_H0_LEVEL, None, True, 0.01, False),
        (("planted", 2023), 0.99, None, True, 0.05, True),
        (("planted", 777), 0.999, None, True, 0.05, True),
        (("planted", 42), DEFAULT_H0_LEVEL, 1e-3, True, 0.01, True),
        (("planted", 2023), 0.9, None, False, 0.05, True),
        (("mixed", 3), 0.8, None, True, 0.05, True),
        (("mixed", 5), 0.9, 0.2, False, 0.05, True),
    ]

    @pytest.mark.parametrize("source,h0_level,reg,bias_correct,alpha,mixed_counts", CASES)
    def test_matches_loop_oracle(self, source, h0_level, reg, bias_correct, alpha, mixed_counts):
        kind, seed = source
        summaries = _planted_summaries(seed) if kind == "planted" else _mixed_support_summaries()
        kwargs = dict(r_center=2, n_boot=200, alpha=alpha, h0_level=h0_level,
                      seed=seed, reg=reg, bias_correct=bias_correct)
        report = fisher_energy_test_tasks(summaries, **kwargs)
        oracle = _loop_fisher_energy_test_tasks(summaries, **kwargs)
        assert report.selected_r == oracle.selected_r
        assert [vars(rec) for rec in report.records] == [vars(rec) for rec in oracle.records]
        floor = 1.0 / (kwargs["n_boot"] + 1)
        assert any(floor < rec.p_raw < 1.0 for rec in report.records) == mixed_counts

    @pytest.mark.parametrize("source,h0_level,reg,bias_correct", [
        (("planted", 42), DEFAULT_H0_LEVEL, None, True),
        (("planted", 2023), 0.99, None, True),
        (("planted", 2023), 0.9, None, False),
        (("mixed", 3), 0.8, None, True),
        (("mixed", 5), 0.9, 0.2, False),
    ])
    def test_p_raw_nonincreasing_in_r_cand(self, source, h0_level, reg, bias_correct):
        # one replicate set: a replicate's top-r ratio cannot fall as r grows
        kind, seed = source
        summaries = _planted_summaries(seed) if kind == "planted" else _mixed_support_summaries()
        drops = 0
        for r_center in (2, 3, 4):
            report = fisher_energy_test_tasks(summaries, r_center=r_center, n_boot=200,
                                              h0_level=h0_level, seed=seed, reg=reg,
                                              bias_correct=bias_correct)
            r_cands = [rec.r_cand for rec in report.records]
            p_raw = [rec.p_raw for rec in report.records]
            assert r_cands == sorted(r_cands)
            assert all(a >= b for a, b in zip(p_raw, p_raw[1:])), p_raw
            drops += sum(a > b for a, b in zip(p_raw, p_raw[1:]))
        # the ordering is tested where it bites: some p-value falls as r grows
        assert drops > 0

    def test_all_zero_summaries_rejected(self):
        zero = TaskGradientSummary(mean=np.zeros(4), within_cov=np.zeros((4, 4)), n_support=3)
        with pytest.raises(ValidationError):
            fisher_energy_test_tasks([zero, zero, zero], r_center=2, n_boot=10)


class TestCorpusFisher:
    def test_negative_ridge_rejected_by_every_entry_point(self):
        cfg = GeneratorConfig(d_theta=8, q=16, r_true=2, n_tasks=20, n_support=30,
                              seed=3)
        corpus = generate_corpus(cfg)
        fmap = corpus.feature_map()
        episodes = [corpus.full_support(t) for t in corpus.tasks]
        summaries = [TaskGradientSummary.from_task(t, fmap) for t in episodes]
        with pytest.raises(ValidationError, match="reg"):
            corpus_fisher_spectrum(episodes, fmap, reg=-1e-3)
        with pytest.raises(ValidationError, match="reg"):
            fisher_energy_test_tasks(summaries, r_center=2, n_boot=10, reg=-1e-3)

    def test_bias_correction_concentrates_planted_energy(self):
        cfg = GeneratorConfig(d_theta=8, q=16, r_true=2, n_tasks=120,
                              n_support=100, seed=13)
        corpus = generate_corpus(cfg)
        fmap = corpus.feature_map()
        spec = corpus_fisher_spectrum([corpus.full_support(t) for t in corpus.tasks], fmap)
        assert energy_ratio(spec.eigenvalues, 2) >= 0.95
        assert energy_ratio(spec.eigenvalues, 1) <= 0.8


class TestProjectionEnergy:
    def test_fisher_inside_span_gives_zero(self):
        rng = np.random.default_rng(9)
        basis, _ = np.linalg.qr(rng.normal(size=(10, 2)))
        rows = rng.normal(size=(30, 2)) @ basis.T
        fisher = basis @ basis.T
        report = jl_outside_energy(_Rows(rows), fisher, r=2, s=5, n_maps=10, seed=3)
        assert report.upper95 < 1e-10
        assert report.accept

    def test_isotropic_fraction_matches_analytic(self):
        # rank-r adapters with an isotropic quadratic form: the expected
        # outside fraction after projection is (d - r)(s - r) / (d s)
        rng = np.random.default_rng(10)
        coords = rng.normal(size=(200, 2))
        basis, _ = np.linalg.qr(rng.normal(size=(10, 2)))
        rows = coords @ basis.T
        report = jl_outside_energy(_Rows(rows), np.eye(10), r=2, s=6, n_maps=100, seed=4)
        analytic = (10 - 2) * (6 - 2) / (10 * 6)
        assert report.fractions.mean() == pytest.approx(analytic, abs=0.06)

    def test_threshold_interpretation(self):
        rng = np.random.default_rng(11)
        basis, _ = np.linalg.qr(rng.normal(size=(10, 2)))
        rows = rng.normal(size=(40, 2)) @ basis.T
        mid = basis @ basis.T + 0.04 * (np.eye(10) - basis @ basis.T)
        loose = jl_outside_energy(_Rows(rows), mid, r=2, s=6, n_maps=24, seed=5, threshold=0.5)
        tight = jl_outside_energy(_Rows(rows), mid, r=2, s=6, n_maps=24, seed=5, threshold=1e-6)
        assert loose.upper95 == tight.upper95
        assert loose.accept and not tight.accept
        assert loose.accept == (loose.upper95 <= loose.threshold)

    def test_projection_dim_validation(self):
        rows = np.random.default_rng(0).normal(size=(10, 6))
        with pytest.raises(ValidationError):
            jl_outside_energy(_Rows(rows), np.eye(6), r=3, s=3)
        with pytest.raises(ValidationError):
            jl_outside_energy(_Rows(rows), np.eye(6), r=2, s=6)


class TestSequentialSelection:
    def test_exact_rank_two(self):
        rng = np.random.default_rng(12)
        coords = rng.normal(size=(30, 2)) * np.array([3.0, 2.0])
        basis, _ = np.linalg.qr(rng.normal(size=(7, 2)))
        rows = coords @ basis.T
        sel = sequential_r_selection(_Rows(rows), r_center=2, n_boot=400, seed=6)
        assert sel.selected_r == 2
        by_r = {r.r: r for r in sel.records}
        assert by_r[2].p_value == pytest.approx(1.0)
        assert by_r[1].significant

    def test_duplicated_columns_degenerate(self):
        rng = np.random.default_rng(13)
        half = rng.normal(size=(20, 3))
        rows = np.hstack([half, half])
        sel = sequential_r_selection(_Rows(rows), r_center=4, n_boot=200, seed=7)
        by_r = {r.r: r for r in sel.records}
        # improvements beyond rank three are exactly zero
        assert by_r[4].p_value == 1.0
        assert by_r[5].p_value == 1.0

    def test_matches_independent_bootstrap_reimplementation(self):
        rng = np.random.default_rng(14)
        rows = rng.normal(size=(20, 5)) * np.array([4.0, 3.0, 0.3, 0.2, 0.1])
        n_boot, seed = 300, 8
        sel = sequential_r_selection(_Rows(rows), r_center=2, n_boot=n_boot, seed=seed)

        _, _, vt = np.linalg.svd(rows, full_matrices=False)
        basis = vt.T
        for rec in sel.records:
            def err(r):
                if r == 0:
                    return np.linalg.norm(rows, axis=1)
                v = basis[:, :r]
                return np.linalg.norm(rows - (rows @ v) @ v.T, axis=1)

            r = rec.r
            diffs = err(r) - err(min(r + 1, basis.shape[1]))
            if np.allclose(diffs, 0.0):
                assert rec.p_value == 1.0
                continue
            observed = diffs.mean()
            centred = diffs - observed
            rng_b = child_rng(seed, "seqr", r)
            idx = rng_b.integers(0, len(diffs), size=(n_boot, len(diffs)))
            means = centred[idx].mean(axis=1)
            p = (1 + int(np.sum(means >= observed - 1e-15))) / (n_boot + 1)
            assert rec.p_value == pytest.approx(p)

    def test_needs_three_tasks(self):
        with pytest.raises(ValidationError):
            sequential_r_selection(_Rows(np.ones((2, 3))), r_center=1)
