import math

import numpy as np
import pytest
from scipy.special import stdtr
from scipy.stats import t as t_dist

from protoadapt import motifs
from protoadapt.metrics import rank_auc_or_nan
from protoadapt.motifs import (
    CalibrationError,
    DESK_PERMUTATION_FLOOR,
    PRODUCTION_PERMUTATION_FLOOR,
    calibrate_tau,
    channel_activations,
    fit_background,
    make_channels,
    motif_test_report,
    permutation_pvalue,
    power_curve,
    q_values,
    screen_channels,
    storey_pi0,
    stratified_part_size,
    t_statistic_from_summary,
)
from protoadapt.util import ValidationError, child_rng


class TestBackground:
    def test_order_zero_single_symbol(self):
        bg = fit_background([np.zeros(4, dtype=int)], order=0, pseudocount=0.0,
                            alphabet_size=1)
        for pos in range(4):
            assert np.allclose(bg.conditional(pos, ()), [1.0])

    def test_order_zero_frequencies(self):
        # symbol counts (3, 1) at one position, no smoothing
        seqs = [np.array([0]), np.array([0]), np.array([0]), np.array([1])]
        bg = fit_background(seqs, order=0, pseudocount=0.0, alphabet_size=2)
        assert np.allclose(bg.conditional(0, ()), [0.75, 0.25])

    def test_order_one_hand_tabulated(self):
        seqs = [np.array([0, 0, 1]), np.array([0, 1, 1]), np.array([1, 1, 0]),
                np.array([0, 0, 0]), np.array([1, 0, 1])]
        c = 0.5
        bg = fit_background(seqs, order=1, pseudocount=c, alphabet_size=2)
        # position 1 conditionals, counted by hand from the corpus
        counts = {(0,): np.zeros(2), (1,): np.zeros(2)}
        for s in seqs:
            counts[(s[0],)][s[1]] += 1
        for ctx, row in counts.items():
            expected = (row + c) / (row.sum() + 2 * c)
            assert np.allclose(bg.conditional(1, ctx), expected)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        seqs = [rng.integers(0, 4, size=rng.integers(5, 12)) for _ in range(30)]
        bg = fit_background(seqs, order=2, pseudocount=0.5, alphabet_size=4)
        for table in bg.tables:
            for row in table.values():
                assert abs(row.sum() - 1.0) < 1e-10
                assert np.all(row > 0)

    def test_sampling_preserves_lengths(self):
        rng = np.random.default_rng(1)
        seqs = [rng.integers(0, 3, size=ln) for ln in (6, 6, 9, 9, 9, 12)]
        bg = fit_background(seqs, order=1, pseudocount=0.5, alphabet_size=3)
        draws = bg.sample(50, np.random.default_rng(2))
        assert {d.size for d in draws} <= {6, 9, 12}

    def test_foreign_symbol_rejected(self):
        with pytest.raises(ValidationError):
            fit_background([np.array([0, 5])], order=0, pseudocount=0.5,
                           alphabet_size=3)


class TestActivations:
    def test_exact_match_scores_one(self):
        channels = np.array([[0, 1, 2]], dtype=np.int8)
        repertoire = [np.array([3, 0, 1, 2, 3], dtype=np.int8)]
        acts = channel_activations(channels, [repertoire])
        assert acts[0, 0] == pytest.approx(1.0)

    def test_partial_match_fraction(self):
        channels = np.array([[0, 1, 2]], dtype=np.int8)
        repertoire = [np.array([0, 1, 3], dtype=np.int8)]
        acts = channel_activations(channels, [repertoire])
        assert acts[0, 0] == pytest.approx(2.0 / 3.0)


class TestScreening:
    def test_top_frac_one_keeps_all(self):
        acts = np.random.default_rng(3).random(size=(20, 5))
        assert screen_channels(acts, 1.0).size == 20

    def test_dominant_channel(self):
        acts = np.full((10, 4), 0.2)
        acts[7] = 0.9
        screened = screen_channels(acts, 0.05)
        assert np.array_equal(screened, [7])

    def test_hundred_channels_top_five_match_sort_oracle(self):
        rng = np.random.default_rng(4)
        acts = rng.random(size=(100, 6))
        screened = screen_channels(acts, 0.05)
        assert screened.size == 5
        oracle = np.argsort(-acts.max(axis=1), kind="stable")[:5]
        assert set(screened) == set(oracle)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValidationError):
            screen_channels(np.zeros((0, 3)), 0.5)


class TestPermutationPvalue:
    def test_observed_below_all_nulls(self):
        res = permutation_pvalue(-10.0, lambda rng, size: np.ones(size),
                                 np.random.default_rng(0), b_min=200, b_max=200, block=100)
        assert res.p_value == pytest.approx(1.0)

    def test_plus_one_estimator_floor(self):
        res = permutation_pvalue(10.0, lambda rng, size: np.zeros(size),
                                 np.random.default_rng(0), b_min=999, b_max=999, block=999)
        assert res.p_value == pytest.approx(1.0 / 1000.0)
        assert res.b_used == 999

    def test_enumerable_null_matches_exhaustive(self):
        null_stats = np.array([0.1, 0.4, 0.2, 0.9, 0.5, 0.3, 0.8, 0.6])
        observed = 0.45

        def sampler(rng, size):
            assert size == 8
            return null_stats

        res = permutation_pvalue(observed, sampler, np.random.default_rng(0),
                                 b_min=8, b_max=8, block=8)
        exact = (1 + int(np.sum(null_stats >= observed))) / (8 + 1)
        assert res.p_value == pytest.approx(exact)

    def test_adaptive_stop_between_floors(self):
        res = permutation_pvalue(0.0, lambda rng, size: rng.normal(size=size),
                                 b_min=1000, b_max=PRODUCTION_PERMUTATION_FLOOR,
                                 block=500, stability_window=0.05,
                                 rng=child_rng(1, "permutation"))
        # short of b_max, so the stability rule stopped it
        assert 1000 <= res.b_used < PRODUCTION_PERMUTATION_FLOOR

    def test_production_floor_documented(self):
        assert PRODUCTION_PERMUTATION_FLOOR == 50_000
        assert DESK_PERMUTATION_FLOOR < PRODUCTION_PERMUTATION_FLOOR

    def test_super_uniform_under_null(self):
        rng = np.random.default_rng(5)
        m = 400
        p_vals = np.empty(m)
        for i in range(m):
            observed = rng.normal()
            child = np.random.default_rng(1000 + i)
            res = permutation_pvalue(observed, lambda r, size: r.normal(size=size),
                                     b_min=200, b_max=200, block=200, rng=child)
            p_vals[i] = res.p_value
        for level in (0.01, 0.05, 0.1):
            slack = 3.0 * np.sqrt(level * (1 - level) / m)
            assert np.mean(p_vals <= level) <= level + slack


class TestStorey:
    def test_all_large_pvalues_clip_to_one(self):
        p = np.linspace(0.51, 1.0, 20)
        est = storey_pi0(p, n_boot=100)
        assert est.pi0 == pytest.approx(1.0)

    def test_all_small_pvalues_zero(self):
        p = np.linspace(0.01, 0.5, 20)
        est = storey_pi0(p, n_boot=100)
        assert est.pi0 == pytest.approx(0.0)

    def test_qvalues_match_stepup_oracle(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(0.001, 1.0, size=10)
        pi0 = 0.7
        q = q_values(p, pi0)
        order = np.argsort(p)
        m = 10
        oracle = np.empty(m)
        running = np.inf
        for rank in range(m, 0, -1):
            running = min(running, pi0 * m * p[order[rank - 1]] / rank)
            oracle[order[rank - 1]] = min(1.0, running)
        assert np.allclose(q, oracle, atol=1e-12)

    def test_qvalues_monotone_in_p_order(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(0.001, 1.0, size=25)
        q = q_values(p, 0.9)
        order = np.argsort(p)
        assert np.all(np.diff(q[order]) >= -1e-12)

    def test_all_null_concentrates_near_one(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            p = np.clip(rng.uniform(size=250), 1e-9, 1.0)
            est = storey_pi0(p, n_boot=50, seed=seed)
            hits += 0.8 <= est.pi0 <= 1.0
        assert hits >= 18


class TestMotifReportPipeline:
    def test_screen_then_test_shapes(self):
        rng = np.random.default_rng(8)
        seqs = [rng.integers(0, 4, size=10) for _ in range(60)]
        bg = fit_background(seqs, order=1, pseudocount=0.5, alphabet_size=4)
        channels = make_channels(30, k=3, alphabet_size=4, seed=0)
        repertoires = [bg.sample(8, np.random.default_rng(100 + i))
                       for i in range(6)]
        report = motif_test_report(channels, repertoires, bg, top_frac=0.2,
                                   b_min=200, b_max=400, null_pool_size=64, seed=1)
        assert report.screened.size == 6
        assert np.all((report.p_values > 0) & (report.p_values <= 1))
        assert report.q_values.size == 6
        order = np.argsort(report.p_values)
        assert np.all(np.diff(report.q_values[order]) >= -1e-12)


class TestTauCalibration:
    def test_reference_t_arithmetic(self):
        # two summary rows with known statistics: 1.63 and 0.09 at 3 s.f.
        assert abs(t_statistic_from_summary(0.483, 0.018)) == pytest.approx(1.63, abs=0.01)
        assert abs(t_statistic_from_summary(0.501, 0.019)) == pytest.approx(0.09, abs=0.01)

    def test_two_sided_pvalue_df2(self):
        t = abs(t_statistic_from_summary(0.483, 0.018))
        p = 2 * t_dist.sf(t, df=2)
        assert p == pytest.approx(0.245, abs=0.01)

    def test_p_value_bytes_equal_scipy_t_sf(self):
        # calibrate_tau takes stdtr(2, -|t|), the kernel t.sf(|t|, df=2) calls
        tested = 0
        for acts, labels, seed, gap_bound in _calibration_cases():
            try:
                cal = calibrate_tau(acts, labels, cohort="c", calib_frac=0.4,
                                    gap_bound=gap_bound, seed=seed)
            except CalibrationError:
                continue
            if cal.zero_variance:
                assert np.isnan(cal.p_value)
                continue
            oracle = float(2.0 * t_dist.sf(cal.t_abs, df=2))
            assert np.float64(cal.p_value).tobytes() == np.float64(oracle).tobytes()
            tested += 1
        assert tested >= 20

    def test_t2_tail_bytes_equal_scipy_stdtr(self):
        # the port of Boost's students_t cdf against the kernel it replaces, on a
        # dense grid over [0, 1e15] and the edges of each branch and of the float range
        xs = np.concatenate([
            np.linspace(0.0, 10.0, 200_001),
            np.geomspace(1e-12, 1e15, 500_000),
            [0.0, 5e-324, 1e-300, 1e-154, 1.0, np.nextafter(1.0, 0.0), math.sqrt(2.0),
             1e154, 1e155, 1.8e308, np.inf],
        ])
        ours = np.array([motifs._t2_lower_tail(float(x)) for x in xs])
        assert ours.tobytes() == stdtr(2, -xs).tobytes()
        assert math.isnan(motifs._t2_lower_tail(math.nan))

    def _separable_activations(self, seed=9, n_rep=40, n_channels=12, noise=0.0):
        rng = np.random.default_rng(seed)
        labels = np.array([0, 1] * (n_rep // 2))
        acts = np.empty((n_channels, n_rep))
        for j, lab in enumerate(labels):
            base = 0.72 if lab == 1 else 0.28
            acts[:, j] = np.clip(base + noise * rng.normal(size=n_channels), 0.0, 1.0)
        return acts, labels

    def test_zero_variance_auto_pass(self):
        acts, labels = self._separable_activations(noise=0.0)
        cal = calibrate_tau(acts, labels, cohort="clean", calib_frac=0.4, seed=0)
        assert cal.zero_variance
        assert np.isnan(cal.t_abs)

    def test_noisy_calibration_passes_with_t_test(self):
        acts, labels = self._separable_activations(noise=0.08, n_rep=60)
        cal = calibrate_tau(acts, labels, cohort="noisy", calib_frac=0.4, seed=3)
        assert cal.delta_auc <= 0.01
        if not cal.zero_variance:
            assert cal.p_value >= 0.05

    def test_fold_size_is_the_split_size(self):
        # the size validate() checks is the calibration fold calibrate_tau splits
        for frac in (0.2, 0.4):
            for n_pos in range(0, 31):
                for n_neg in range(0, 31):
                    labels = np.array([1] * n_pos + [0] * n_neg)
                    first, second = motifs._stratified_split(labels, frac,
                                                             np.random.default_rng(0))
                    assert first.size == (stratified_part_size(n_pos, frac)
                                          + stratified_part_size(n_neg, frac))
                    assert first.size + second.size == labels.size
        assert stratified_part_size(20, 0.2) + stratified_part_size(20, 0.2) == 8

    def test_unseparable_data_raises_after_retries(self):
        rng = np.random.default_rng(10)
        acts = rng.random(size=(8, 40))
        labels = np.array([0, 1] * 20)
        with pytest.raises(CalibrationError):
            calibrate_tau(acts, labels, cohort="flat", calib_frac=0.4,
                          gap_bound=1e-6, max_retries=2, seed=4)


def _calibration_cases():
    # (activations, labels, seed, gap_bound): flat, separable and saturated
    # channels like real motif activations, where most entries are 1.0
    rng = np.random.default_rng(21)
    for case in range(60):
        n_rep = int(rng.choice([20, 24, 32, 40, 60]))
        n_channels = int(rng.integers(3, 40))
        labels = rng.permutation(np.arange(n_rep) % 2)
        kind = case % 3
        if kind == 0:
            acts = rng.random(size=(n_channels, n_rep))
        elif kind == 1:
            base = np.where(labels == 1, 0.62, 0.38)
            acts = np.clip(base + 0.15 * rng.normal(size=(n_channels, n_rep)), 0.0, 1.0)
        else:
            acts = np.where(rng.random(size=(n_channels, n_rep)) < 0.94, 1.0,
                            np.round(rng.random(size=(n_channels, n_rep)), 1))
        yield acts, labels, int(rng.integers(0, 1000)), float(rng.choice([0.01, 0.1, 1.0]))


class TestCalibrationMatchesThresholdLoop:
    """One rank call per fold against the per-threshold AUC loop it replaced."""

    @staticmethod
    def _threshold_loop(monkeypatch):
        one_threshold = motifs._threshold_score

        def scores_per_threshold(activations, tau):
            if np.ndim(tau) == 0:
                return one_threshold(activations, tau)
            return np.stack([(activations > t).mean(axis=0) for t in tau])

        def auc_per_threshold(scores, labels):
            if scores.ndim == 1:
                return rank_auc_or_nan(scores, labels)
            return np.array([rank_auc_or_nan(row, labels) for row in scores])

        monkeypatch.setattr(motifs, "_threshold_score", scores_per_threshold)
        monkeypatch.setattr(motifs, "rank_auc_or_nan", auc_per_threshold)

    @staticmethod
    def _run(acts, labels, seed, gap_bound):
        try:
            return repr(calibrate_tau(acts, labels, cohort="c", calib_frac=0.4,
                                      gap_bound=gap_bound, seed=seed))
        except CalibrationError as exc:
            return f"CalibrationError: {exc}"

    def test_every_field_and_failure_identical(self, monkeypatch):
        cases = list(_calibration_cases())
        fast = [self._run(*case) for case in cases]
        self._threshold_loop(monkeypatch)
        loop = [self._run(*case) for case in cases]
        assert fast == loop
        outcomes = " ".join(fast)
        assert "CalibrationError" in outcomes
        assert "zero_variance=True" in outcomes and "zero_variance=False" in outcomes
        assert any("n_retries=0" not in out and "Error" not in out for out in fast)


class TestPowerCurve:
    def test_null_effect_matches_alpha(self):
        rows = power_curve([0.0], alpha=0.1,
                           null_sampler=lambda rng, size: rng.normal(size=size),
                           n_trials=60, m_channels=30, b_perm=300, seed=5)
        n = 60 * max(1, int(round(0.25 * 30)))
        slack = 3.0 * np.sqrt(0.1 * 0.9 / n)
        assert rows[0]["rate_p"] == pytest.approx(0.1, abs=slack + 0.01)
        assert rows[0]["rate_q"] <= rows[0]["rate_p"] + 0.02

    def test_large_effect_detects_everything(self):
        rows = power_curve([8.0], alpha=0.05,
                           null_sampler=lambda rng, size: rng.normal(size=size),
                           n_trials=20, m_channels=20, b_perm=300, seed=6)
        assert rows[0]["rate_p"] >= 0.99
        assert rows[0]["rate_q"] >= 0.95

    def test_mid_effect_replicates_across_seeds(self):
        kwargs = dict(alpha=0.05, null_sampler=lambda rng, size: rng.normal(size=size),
                      n_trials=80, m_channels=25, b_perm=250)
        a = power_curve([1.5], seed=7, **kwargs)[0]["rate_p"]
        b = power_curve([1.5], seed=77, **kwargs)[0]["rate_p"]
        n = 80 * max(1, int(round(0.25 * 25)))
        sigma = np.sqrt(max(a * (1 - a), 0.01) / n)
        assert abs(a - b) <= 6 * sigma + 0.02
