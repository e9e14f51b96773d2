import numpy as np
import pytest

from protoadapt import pipeline, prototypes
from protoadapt.adapters import Canonicalizer, fit_canonicalizer, ridge_adapter, assemble_theta
from protoadapt.prototypes import (
    PrototypeMemory,
    ProjectionChain,
    cluster_prototypes,
    coverage_certificate,
    coverage_fits,
)
from protoadapt.riskbound import (
    check_bound,
    check_bounds_over_tasks,
    empirical_risk,
    feature_radius_of,
)
from protoadapt.metrics import binary_cross_entropy
from protoadapt.synthdata import GeneratorConfig, generate_corpus, partition_tags
from protoadapt.util import ValidationError, sigmoid


def identity_map(x):
    return np.atleast_2d(np.asarray(x, dtype=float))


class TestLipschitz:
    """The logistic loss's Lipschitz constant in the adapter is the feature radius."""

    def test_unbounded_rejected(self, monkeypatch):
        # run_riskbound takes the largest feature radius, over the supports and each
        # report's query set, as the global constant; it must be finite and positive
        corpus = type("Corpus", (), {"tasks": [], "feature_map": lambda self: identity_map})()
        artifacts = type("Artifacts", (), {"corpus": corpus, "memory": None,
                                           "certificate": None})()
        for radius in (np.inf, 0.0):
            report = type("Report", (), {"lipschitz": radius})()
            summary = type("Summary", (), {"reports": [report]})()
            monkeypatch.setattr(pipeline, "check_bounds_over_tasks", lambda *args: summary)
            monkeypatch.setattr(pipeline, "feature_radius_of", lambda *args: radius)
            with pytest.raises(ValidationError, match="finite and positive"):
                pipeline.run_riskbound(pipeline.desk_config(), artifacts)

    def test_monte_carlo_supremum_never_exceeded(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 3))
        x /= np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1.0)  # radius <= 1
        lipschitz = 1.0  # the feature radius
        for _ in range(200):
            theta_a = rng.normal(size=3)
            theta_b = rng.normal(size=3)
            y = rng.integers(0, 2, size=40)
            risk_a, risk_b = empirical_risk([theta_a, theta_b], x, y)
            gap = abs(risk_a - risk_b)
            assert gap <= lipschitz * np.linalg.norm(theta_a - theta_b) + 1e-12


class _FixedTask:
    def __init__(self, theta, rng, n_query=20, task_id="t"):
        self.task_id = task_id
        self.theta_true = theta
        self.query_x = rng.normal(size=(n_query, theta.shape[0]))
        logits = self.query_x @ theta
        self.query_y = (rng.random(n_query) < sigmoid(logits)).astype(int)
        self.support_x = self.query_x[:2]
        self.support_y = self.query_y[:2]


def _memory(atoms, r=None):
    atoms = np.asarray(atoms, dtype=float)
    d = atoms.shape[1]
    chain = ProjectionChain(canonicalizer=Canonicalizer.identity(d), r=r or d)
    return PrototypeMemory(m_rows=atoms, chain=chain, centroids=chain.project(atoms))


def _certify(memory, theta_pre, r_sparse, **kwargs):
    return coverage_certificate(coverage_fits(memory.chain, memory.centroids, theta_pre,
                                              r_sparse), **kwargs)


class TestCheckBound:
    def test_row_norms_computed_once_per_memory(self, monkeypatch):
        rng = np.random.default_rng(11)
        atoms = rng.normal(size=(5, 4))
        memory = _memory(atoms)
        cert = _certify(memory, rng.normal(size=(8, 4)), 2, n_boot=50, seed=0)
        calls = []
        build = prototypes.Atoms.of.__func__

        def counting(cls, rows):
            calls.append(rows.shape)
            return build(cls, rows)

        monkeypatch.setattr(prototypes.Atoms, "of", classmethod(counting))
        tasks = [_FixedTask(rng.normal(size=4), rng, task_id=f"t{i}") for i in range(100)]
        reports = [check_bound(task, memory, cert, identity_map) for task in tasks]
        assert calls == [(5, 4)]
        monkeypatch.undo()
        # the cached dictionary fits exactly as the array does
        for task, report in zip(tasks, reports):
            u = memory.chain.subspace_project(task.theta_true)
            _, eps = prototypes.l0_fit(u, memory.M, 2)
            assert report.eps_coverage == eps

    def test_prototype_row_exact_zero(self):
        rng = np.random.default_rng(1)
        atoms = np.vstack([np.eye(3) * 2.0])
        memory = _memory(atoms)
        cert = _certify(memory, np.vstack([atoms, atoms]), 2, n_boot=100, seed=0)
        task = _FixedTask(atoms[1].copy(), rng)
        report = check_bound(task, memory, cert, identity_map)
        assert report.eps_app == pytest.approx(0.0, abs=1e-12)
        assert report.eps_coverage == pytest.approx(0.0, abs=1e-12)
        assert report.emp_gap == pytest.approx(0.0, abs=1e-12)
        assert report.triangle_holds and report.per_task_bound_holds

    def test_in_subspace_off_dictionary_split(self):
        rng = np.random.default_rng(2)
        atoms = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        memory = _memory(atoms, r=3)
        cert = _certify(memory, np.vstack([atoms, atoms]), 1, n_boot=100, seed=0)
        theta = np.array([0.8, 0.6, 0.0])  # spans both atoms, 1-sparse fit misses
        task = _FixedTask(theta, rng)
        report = check_bound(task, memory, cert, identity_map)
        assert report.eps_app == pytest.approx(0.0, abs=1e-12)
        assert report.eps_coverage > 0.1
        assert report.triangle_holds
        assert report.per_task_bound_holds

    def test_missing_ground_truth_rejected(self):
        memory = _memory(np.eye(2))
        cert = _certify(memory, np.eye(2), 1, n_boot=50, seed=0)
        task = _FixedTask(np.ones(2), np.random.default_rng(3))
        task.theta_true = None
        with pytest.raises(ValidationError):
            check_bound(task, memory, cert, identity_map)

    def test_planted_corpus_identities_hold_everywhere(self):
        cfg = GeneratorConfig(d_theta=6, q=10, r_true=2, n_tasks=50,
                              n_support=40, n_query=25, seed=9, off_subspace_norm=0.05)
        corpus = generate_corpus(cfg, partition_tags(cfg.n_tasks, 0))
        fmap = corpus.feature_map()
        seed_tasks = [corpus.full_support(t) for t in corpus.tasks_in("Pre-Seed")]
        theta = assemble_theta([ridge_adapter(t, fmap, 1e-2) for t in seed_tasks])
        chain = ProjectionChain(canonicalizer=fit_canonicalizer(theta), r=2)
        memory = cluster_prototypes(theta, chain, k=4, n_restarts=4, seed=1)
        pre = [corpus.full_support(t) for t in corpus.tasks_in("Pre-Seed", "Pre-Rest")]
        theta_pre = assemble_theta([ridge_adapter(t, fmap, 1e-2) for t in pre])
        cert = _certify(memory, theta_pre, 2, n_boot=300, seed=2)

        summary = check_bounds_over_tasks(corpus.tasks, memory, cert, fmap, tol=1e-9)
        assert summary.triangle_rate == 1.0
        assert summary.per_task_rate == 1.0
        assert summary.max_triangle_violation <= 1e-9
        # the certified (median-based) bound holds for at least 9 in 10 tasks
        assert summary.certified_rate >= 0.9

    @pytest.mark.parametrize("profile", ["fewshot_benchmark_config", "desk_config"])
    def test_fused_risk_matches_separate_calls(self, profile):
        art = pipeline.run_phase1(getattr(pipeline, profile)(seed=42))
        memory, cert = art.memory, art.certificate
        fmap = art.corpus.feature_map()
        summary = check_bounds_over_tasks(art.corpus.tasks, memory, cert, fmap)
        r_sparse = min(cert.r_sparse, memory.K)
        for task, report in zip(art.corpus.tasks, summary.reports):
            # oracle: one sigmoid and one log loss per adapter, row norms by norm()
            theta = task.theta_true
            u_star = memory.chain.subspace_project(theta)
            w_star, eps_cov = prototypes.l0_fit(u_star, memory.M, r_sparse)
            approx = w_star @ memory.M
            feats = fmap(task.query_x)
            risk_mem = binary_cross_entropy(sigmoid(feats @ approx), task.query_y)
            risk_oracle = binary_cross_entropy(sigmoid(feats @ theta), task.query_y)
            emp_gap = abs(risk_mem - risk_oracle)
            lipschitz = float(np.max(np.linalg.norm(feats, axis=1)))
            assert report.emp_gap == emp_gap
            # einsum and norm() round the row norms differently in the last bit
            assert abs(report.lipschitz - lipschitz) <= 1e-12 * (1.0 + lipschitz)
            assert report.eps_app == float(np.linalg.norm(theta - u_star))
            assert report.eps_coverage == eps_cov
            assert report.adapter_gap == float(np.linalg.norm(theta - approx))
        for rate, flag in ((summary.triangle_rate, "triangle_holds"),
                           (summary.per_task_rate, "per_task_bound_holds"),
                           (summary.certified_rate, "certified_bound_holds")):
            assert rate == np.mean([getattr(r, flag) for r in summary.reports])


class TestCapacityTerm:
    """The sqrt(1/n) decay a sample-size capacity term assumes, on measured gaps."""

    def test_measured_gap_scales_no_slower_than_sqrt(self):
        # regression against measured generalization gaps on synthetic tasks
        rng = np.random.default_rng(5)
        theta = np.array([2.0, -1.0, 0.5])
        pop_x = rng.normal(size=(200_000, 3))
        pop_y = (rng.random(200_000) < sigmoid(pop_x @ theta)).astype(int)
        pop_risk = empirical_risk([theta], pop_x, pop_y)[0]
        sizes = (50, 100, 200, 400)
        gaps = []
        for n in sizes:
            trial_gaps = []
            for rep in range(60):
                idx = rng.integers(0, pop_x.shape[0], size=n)
                trial_gaps.append(abs(empirical_risk([theta], pop_x[idx], pop_y[idx])[0]
                                      - pop_risk))
            gaps.append(np.mean(trial_gaps))
        # anchor a sqrt(1/n) fit at the first point; measured decay must stay
        # within a factor two of the fit
        anchor = gaps[0] * np.sqrt(sizes[0])
        for n, gap in zip(sizes, gaps):
            fit = anchor / np.sqrt(n)
            assert gap <= 2.0 * fit
            assert gap >= fit / 2.0


def test_feature_radius_over_tasks():
    rng = np.random.default_rng(6)
    cfg = GeneratorConfig(d_theta=4, q=6, n_tasks=6, seed=11)
    corpus = generate_corpus(cfg)
    fmap = corpus.feature_map()
    episodes = [corpus.full_support(t) for t in corpus.tasks]
    radius = feature_radius_of((block for t in episodes for block in (t.support_x, t.query_x)),
                               fmap)
    direct = max(
        float(np.linalg.norm(fmap(block), axis=1).max())
        for t in episodes for block in (t.support_x, t.query_x)
    )
    assert radius == pytest.approx(direct)
