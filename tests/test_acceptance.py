"""Acceptance suite: every primary criterion at its stated tolerance.

Each test prints one pass line with its runtime; a failed assertion marks the
criterion failed. Expensive planted-corpus artifacts are shared via
module-scoped fixtures.
"""

import time
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest
import scipy.optimize

from protoadapt.adapters import Canonicalizer, assemble_theta, ridge_adapter
from protoadapt.metrics import rank_auc
from protoadapt.motifs import (
    fit_background,
    make_channels,
    motif_test_report,
    t_statistic_from_summary,
)
from protoadapt.node import SolveConfig, VectorField, adjoint_gradient, integrate
from protoadapt.pipeline import (
    DEFAULT_SEEDS,
    WarpConfig,
    desk_config,
    fewshot_benchmark_config,
    make_transform,
    run_baselines,
    run_motifs,
    run_penalty_sweep,
    run_phase1,
    run_phase2,
    run_riskbound,
    run_support_sweep,
)
from protoadapt.prototypes import (
    PrototypeMemory,
    ProjectionChain,
    coverage_certificate,
    coverage_fits,
    l0_fit,
)
from protoadapt.resampling import bootstrap_statistics, percentile_interval
from protoadapt.retrieval import (
    Episodes,
    ProximalConfig,
    RetrievalNet,
    _episode_block,
    minibatch_gradients,
    objective_trace,
    softmax,
    solve_proximal,
)
from protoadapt.spectral import (
    TaskGradientSummary,
    decision_report_from_pvalues,
    fisher_energy_test_tasks,
    pca_rank,
)
from protoadapt.synthdata import GeneratorConfig, generate_corpus
from protoadapt.util import sigmoid

# reference summary rows for the rank-test arithmetic check:
# (candidate, observed ratio, raw p-value) with the published adjusted
# p-values and the documented alpha = 0.01 familywise rule
ENERGY_TEST_ROWS = [
    (18, 0.942, 0.366),
    (19, 0.949, 0.089),
    (20, 0.951, 0.006),
    (21, 0.955, 0.002),
    (22, 0.957, 0.0008),
]
ENERGY_TEST_EXPECTED_PADJ = {18: 1.000, 19: 0.445, 20: 0.030, 21: 0.010, 22: 0.004}

# reference threshold-calibration summaries: (cohort, tau_bar, SE, |t|)
TAU_ROWS = [
    ("cohortA", 0.483, 0.018, 1.63),
    ("cohortB", 0.477, 0.021, 1.89),
    ("cohortC", 0.492, 0.016, 0.87),
    ("cohortD", 0.501, 0.019, 0.09),
    ("cohortE", 0.488, 0.020, 1.04),
]


def _announce(name, started, detail=""):
    elapsed = time.time() - started
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.1f}s){' - ' + detail if detail else ''}")


@pytest.fixture(scope="module")
def fewshot_run():
    cfg = fewshot_benchmark_config(seed=42)
    artifacts = run_phase1(cfg)
    baselines = run_baselines(cfg, artifacts)
    result = run_phase2(cfg, artifacts, seed=42)
    sweep = run_support_sweep(cfg, artifacts, result)
    return cfg, artifacts, baselines, result, sweep


def test_fisher_test_arithmetic():
    started = time.time()
    report = decision_report_from_pvalues(ENERGY_TEST_ROWS, alpha=0.01)
    by_r = {rec.r_cand: rec for rec in report.records}
    for r_cand, expected in ENERGY_TEST_EXPECTED_PADJ.items():
        assert by_r[r_cand].p_adj == pytest.approx(expected, abs=5e-4), r_cand
    # the alpha = 0.01 familywise rule admits only the two smallest p rows
    assert [rec.r_cand for rec in report.records if rec.reject] == [21, 22]
    assert report.selected_r == 21
    # the 0.030 row misses the familywise level and must be flagged
    assert by_r[20].borderline and not by_r[20].reject
    assert any("r=20" in note for note in report.notes)
    assert time.time() - started < 1.0
    _announce("fisher-test arithmetic", started, "p_adj column reproduced, r=20 flagged")


def test_tau_t_statistics():
    started = time.time()
    for cohort, tau_bar, se, expected_t in TAU_ROWS:
        t_abs = abs(t_statistic_from_summary(tau_bar, se))
        assert t_abs == pytest.approx(expected_t, abs=0.01), cohort
    assert time.time() - started < 1.0
    _announce("threshold t-statistics", started, "all five rows within 0.01")


def _proximal_oracle(m_rows, theta_hat, p, lam, gamma):
    k = m_rows.shape[0]

    def fun(w):
        recon = w @ m_rows - theta_hat
        val = 0.5 * recon @ recon + lam * np.sum(w) + gamma * np.sum((w - p) ** 2)
        grad = m_rows @ recon + lam + 2 * gamma * (w - p)
        return val, grad

    best = np.inf
    for start in (np.zeros(k), p.copy(), np.ones(k) / k):
        res = scipy.optimize.minimize(fun, start, jac=True, method="L-BFGS-B",
                                      bounds=[(0, None)] * k,
                                      options={"ftol": 1e-18, "gtol": 1e-14,
                                               "maxiter": 50_000})
        best = min(best, res.fun)
    if gamma > 0:
        # exact nonnegative least squares after completing the square
        stacked = np.vstack([m_rows.T, np.sqrt(2 * gamma) * np.eye(k)])
        target = np.concatenate([theta_hat,
                                 np.sqrt(2 * gamma) * (p - lam / (2 * gamma))])
        w_nnls, _ = scipy.optimize.nnls(stacked, target)
        recon = w_nnls @ m_rows - theta_hat
        val = (0.5 * recon @ recon + lam * np.sum(w_nnls)
               + gamma * np.sum((w_nnls - p) ** 2))
        best = min(best, val)
    return best


def test_proximal_solver_vs_oracle():
    started = time.time()
    from protoadapt.adapters import Canonicalizer
    from protoadapt.prototypes import PrototypeMemory, ProjectionChain

    rng = np.random.default_rng(314)
    worst = 0.0
    for trial in range(100):
        k = int(rng.integers(2, 7))
        d = int(rng.integers(2, 5))
        m_rows = rng.normal(size=(k, d))
        chain = ProjectionChain(canonicalizer=Canonicalizer.identity(d), r=d)
        memory = PrototypeMemory(m_rows=m_rows, chain=chain,
                                 centroids=chain.project(m_rows))
        theta_hat = rng.normal(size=d)
        v = rng.normal(size=k)
        lam = float(rng.uniform(0.0, 0.5))
        gamma = float(rng.uniform(0.0, 1.0))
        cfg = ProximalConfig(lam=lam, gamma=gamma)
        sol = solve_proximal(theta_hat, memory, v, cfg, k)
        # the trace takes each active-set iterate clipped to w >= 0: none lies below the last
        trace = objective_trace(theta_hat, memory, sol.p, lam, sol.gamma)
        assert np.all(trace >= trace[-1] - 1e-12), f"trace ends above its minimum on trial {trial}"
        p = softmax(v)
        recon = sol.w @ m_rows - theta_hat
        ours = 0.5 * recon @ recon + lam * np.sum(sol.w) + gamma * np.sum((sol.w - p) ** 2)
        assert abs(ours - trace[-1]) <= 1e-12 * (1.0 + abs(ours)), trial
        oracle = _proximal_oracle(m_rows, theta_hat, p, lam, gamma)
        worst = max(worst, abs(ours - oracle))
        assert abs(ours - oracle) <= 1e-6, f"trial {trial}: {ours} vs {oracle}"
    assert time.time() - started < 30.0
    _announce("proximal solver vs oracle", started,
              f"100 instances, worst objective gap {worst:.2e}")


def test_l0_exact_vs_brute_force():
    started = time.time()
    rng = np.random.default_rng(2718)
    for trial in range(100):
        k = int(rng.integers(3, 9))
        dim = int(rng.integers(3, 7))
        r_sparse = int(rng.integers(1, 4))
        r_sparse = min(r_sparse, k, dim)
        atoms = rng.normal(size=(k, dim))
        u = rng.normal(size=dim)
        w_exact, resid_exact = l0_fit(u, atoms, r_sparse, exact=True)
        _, resid_omp = l0_fit(u, atoms, r_sparse)
        # independent enumeration over all supports up to the sparsity cap
        best = float(np.linalg.norm(u))
        for size in range(1, r_sparse + 1):
            for support in combinations(range(k), size):
                sub = atoms[list(support)]
                coef, _, _, _ = np.linalg.lstsq(sub.T, u, rcond=None)
                best = min(best, float(np.linalg.norm(u - coef @ sub)))
        assert resid_exact == pytest.approx(best, abs=1e-9), trial
        assert resid_omp >= resid_exact - 1e-10, trial
        assert np.count_nonzero(w_exact) <= r_sparse
    assert time.time() - started < 30.0
    _announce("sparse coverage fit vs brute force", started, "100 instances exact")


def test_adjoint_gradients():
    started = time.time()
    rng = np.random.default_rng(1618)
    cfg = SolveConfig(rtol=1e-10, atol=1e-12)
    worst = 0.0
    for trial in range(20):
        m = int(rng.integers(2, 6))
        field = VectorField(m=m, hidden=4, seed=trial, scale=0.8)
        assert field.n_params <= 60
        z0 = 0.5 * rng.normal(size=m)
        target = rng.normal(size=m)

        def loss_for(f, z_init):
            out = integrate(f, z_init, cfg).z1
            return 0.5 * float(np.sum((out - target) ** 2))

        fwd = integrate(field, z0, cfg)
        res = adjoint_gradient(field, z0, cfg, fwd.z1 - target, forward_result=fwd)

        eps = 1e-5
        fd_z0 = np.array([
            (loss_for(field, z0 + eps * np.eye(m)[j])
             - loss_for(field, z0 - eps * np.eye(m)[j])) / (2 * eps)
            for j in range(m)
        ])
        params = field.params_vector()
        fd_p = np.empty(params.size)
        for j in range(params.size):
            dp = np.zeros(params.size)
            dp[j] = eps
            fd_p[j] = (loss_for(field.with_params(params + dp), z0)
                       - loss_for(field.with_params(params - dp), z0)) / (2 * eps)
        err_z = np.linalg.norm(res.grad_z0 - fd_z0) / max(np.linalg.norm(fd_z0), 1e-12)
        err_p = np.linalg.norm(res.grad_params - fd_p) / max(np.linalg.norm(fd_p), 1e-12)
        worst = max(worst, err_z, err_p)
        assert err_z < 1e-4 and err_p < 1e-4, trial

    # linear-field flow against the matrix exponential
    a_mat = np.array([[0.0, 1.1], [-1.1, -0.2]])
    import scipy.linalg
    res = integrate(lambda z, t: a_mat @ z, np.array([0.8, -0.3]), cfg)
    oracle = scipy.linalg.expm(a_mat) @ np.array([0.8, -0.3])
    flow_err = float(np.max(np.abs(res.z1 - oracle)))
    assert flow_err < 1e-6
    assert time.time() - started < 60.0
    _announce("adjoint gradients", started,
              f"worst finite-difference error {worst:.2e}, flow error {flow_err:.2e}")


class _Task:
    def __init__(self, task_id, query_x, query_y, n_support):
        self.task_id, self.query_x, self.query_y = task_id, query_x, query_y
        self.n_support = n_support


def _identity_map(x):
    return x


def _outer_loss(query_x, query_y, adapter, w_tilde, lam, eta):
    """One task's outer loss by the per-task formula, apart from the block code.

    The finite differences take their reference loss from here, so the check
    does not call ``outer_terms``, which it tests.
    """
    p = np.clip(sigmoid(query_x @ adapter), 1e-12, 1.0 - 1e-12)
    y = np.asarray(query_y, dtype=float)
    ce = float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
    ent, mass = 0.0, float(np.sum(w_tilde))
    if mass > 0.0:
        u = w_tilde[w_tilde > 0] / mass
        ent = float(-np.sum(u * np.log(u)))
    return ce + lam * float(np.sum(np.abs(w_tilde))) + eta * ent


def test_training_gradient_vs_finite_differences():
    """The gradient phase 2 trains with, against central differences.

    ``minibatch_gradients`` takes the net and warp arrays through the block
    solve, the outer loss on the block, ``backward_block`` and the two VJPs.
    r_keep = K, so the top-r rule drops nothing and its straight-through
    gradient is the true one; the solve is exact, so ``backward_block``
    differentiates the loss the central differences see.
    """
    started = time.time()
    rng = np.random.default_rng(2718)
    eps, eta = 1e-6, 0.01
    worst = 0.0
    for trial in range(20):
        k, d, d_z = (int(n) for n in rng.integers(2, 6, size=3))
        atoms = rng.normal(size=(k, d))
        chain = ProjectionChain(canonicalizer=Canonicalizer.identity(d), r=d)
        memory = PrototypeMemory(m_rows=atoms, chain=chain,
                                 centroids=chain.project(atoms))
        tasks = [_Task(f"t{i}", rng.normal(size=(8, d)), rng.integers(0, 2, size=8),
                       int(rng.choice([5, 10, 20]))) for i in range(int(rng.integers(2, 6)))]
        z = np.stack([rng.normal(size=d_z) for _ in tasks])
        theta_hats = np.stack([rng.normal(size=d) for _ in tasks])
        episodes = Episodes.of(tasks, z, theta_hats, memory, _identity_map)

        # gamma at 5 support examples: each task solves with 0.5 * 5 / n_support
        pcfg = ProximalConfig(lam=1e-3, gamma=0.5)

        net = RetrievalNet(d_z, k, seed=trial)
        warp = make_transform(d_z, WarpConfig(hidden=4, init_scale=0.5), seed=trial)

        def mean_loss():
            solution, _ = _episode_block(episodes, memory, net, pcfg, k, transform=warp)
            return float(np.mean([
                _outer_loss(t.query_x, t.query_y, w_tilde @ memory.M,
                            w_tilde, pcfg.lam, eta)
                for t, w_tilde in zip(tasks, solution.w_tilde)]))

        _, _, grads = minibatch_gradients(episodes, memory, net, pcfg, k, eta, transform=warp)
        ours, fd = [], []
        for (name, key), grad in grads.items():
            arr = (net if name == "net" else warp).params[key]
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + eps
                up = mean_loss()
                arr[idx] = orig - eps
                down = mean_loss()
                arr[idx] = orig
                ours.append(grad[idx])
                fd.append((up - down) / (2 * eps))
        err = np.linalg.norm(np.subtract(ours, fd)) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, err)
        assert err < 1e-4, trial
    assert time.time() - started < 120.0
    _announce("training gradient", started,
              f"20 minibatches, worst finite-difference error {worst:.2e}")


def test_planted_rank_recovery():
    started = time.time()
    for seed in (42, 2023, 777):
        cfg = GeneratorConfig(d_theta=8, q=16, r_true=2, n_tasks=150,
                              n_support=800, seed=seed)
        corpus = generate_corpus(cfg)
        fmap = corpus.feature_map()
        episodes = [corpus.full_support(t) for t in corpus.tasks]
        theta = assemble_theta([ridge_adapter(t, fmap, 1e-2) for t in episodes])
        assert pca_rank(theta, 0.99) == 2, f"seed {seed}"
        summaries = [TaskGradientSummary.from_task(t, fmap) for t in episodes]
        report = fisher_energy_test_tasks(summaries, r_center=2, n_boot=1000, seed=seed)
        assert report.selected_r == 2, f"seed {seed}"
    assert time.time() - started < 60.0
    _announce("planted-rank recovery", started, "r=2 under seeds 42, 2023, 777")


def test_bootstrap_exhaustive_exactness():
    started = time.time()
    rng = np.random.default_rng(99)
    # generic machinery on a 5-element sample
    values = rng.normal(size=5)
    meds = bootstrap_statistics(values, np.median, n_boot=10, rng=rng, exhaustive=True)
    oracle = np.array([np.median(values[list(idx)])
                       for idx in product(range(5), repeat=5)])
    assert np.array_equal(meds, oracle)
    assert percentile_interval(meds) == percentile_interval(oracle)

    # coverage certificate on five tasks
    from protoadapt.adapters import Canonicalizer
    from protoadapt.prototypes import PrototypeMemory, ProjectionChain
    atoms = rng.normal(size=(4, 3))
    chain = ProjectionChain(canonicalizer=Canonicalizer.identity(3), r=3)
    memory = PrototypeMemory(m_rows=atoms, chain=chain,
                             centroids=chain.project(atoms))
    rows = rng.normal(size=(5, 3))
    fits = coverage_fits(memory.chain, memory.centroids, rows, 2)
    cert = coverage_certificate(fits, seed=0, exhaustive=True)
    canon = fits.canon
    med_oracle = [np.median(canon[list(idx)]) for idx in product(range(5), repeat=5)]
    lo, hi = np.percentile(med_oracle, [5.0, 95.0])
    assert cert.pct90 == (float(lo), float(hi))
    _announce("bootstrap exhaustive exactness", started, "5-element problems exact")


def test_null_motif_calibration():
    started = time.time()
    rng = np.random.default_rng(7)
    base_seqs = [rng.integers(0, 4, size=rng.integers(9, 14)) for _ in range(200)]
    background = fit_background(base_seqs, order=2, pseudocount=0.5, alphabet_size=4)
    channels = make_channels(500, k=3, alphabet_size=4, seed=11)
    repertoires = [background.sample(20, np.random.default_rng(5000 + i))
                   for i in range(24)]
    report = motif_test_report(channels, repertoires, background, top_frac=1.0,
                               b_min=2_000, b_max=4_000, null_pool_size=256,
                               seed=3)
    assert report.p_values.size == 500
    fpr = float(np.mean(report.q_values <= 0.1))
    assert fpr <= 0.1 + 0.03, f"false positive rate {fpr}"
    assert 0.8 <= report.pi0.pi0 <= 1.0, report.pi0
    assert time.time() - started < 180.0
    _announce("null motif calibration", started,
              f"FPR at q<=0.1 is {fpr:.3f}, pi0 {report.pi0.pi0:.3f}")


def test_risk_bound_identity():
    started = time.time()
    cfg = desk_config(seed=42)
    gen = replace(cfg.generator, n_tasks=60, n_support=200, off_subspace_norm=0.05)
    cfg = replace(cfg, generator=gen, epochs=2)
    artifacts = run_phase1(cfg)
    summary = run_riskbound(cfg, artifacts)
    assert summary.n_tasks == 60
    assert summary.max_triangle_violation <= 1e-9
    assert summary.triangle_rate == 1.0
    assert summary.per_task_rate == 1.0
    assert time.time() - started < 30.0
    _announce("risk-bound identity", started,
              f"triangle slack bounded by {summary.max_triangle_violation:.2e}")


def test_fewshot_scaling_shape(fewshot_run):
    started = time.time()
    cfg, artifacts, baselines, result, sweep = fewshot_run
    aucs = [row["auc"] for row in sweep]
    sizes = [row["support_size"] for row in sweep]
    assert sizes == [5, 10, 20, 50]
    for lo, hi in zip(aucs, aucs[1:]):
        assert hi >= lo - 1e-9, f"support curve decreased: {aucs}"
    oracle = baselines["oracle_ridge"].auc
    # phase2 reports the 5-shot operating point; it matches the sweep's head
    assert result.metrics["test"].auc == pytest.approx(aucs[0], abs=1e-12)
    ratio = aucs[0] / oracle
    assert ratio >= 0.95, f"5-shot ratio {ratio:.4f} (oracle {oracle:.4f})"
    _announce("few-shot scaling shape", started,
              f"AUC curve {np.round(aucs, 4).tolist()}, 5-shot/oracle {ratio:.4f}")


def test_seed_stability(fewshot_run):
    started = time.time()
    cfg, artifacts, _, result42, _ = fewshot_run
    aucs = [result42.metrics["test"].auc]
    for seed in (2023, 777):
        res = run_phase2(cfg, artifacts, seed=seed)
        aucs.append(res.metrics["test"].auc)
    std = float(np.std(aucs))
    assert std <= 0.02, f"AUC std across seeds {std:.4f}"
    _announce("seed stability", started,
              f"5-shot AUC std {std:.4f} across seeds {DEFAULT_SEEDS}")


def test_determinism_byte_identical(tmp_path):
    started = time.time()
    outputs = []
    for run in ("a", "b"):
        cfg = desk_config(seed=42)
        gen = replace(cfg.generator, n_tasks=60, n_support=150, n_query=30)
        cfg = replace(cfg, generator=gen, epochs=4, patience=4, coverage_n_boot=200)
        outdir = tmp_path / run
        artifacts = run_phase1(cfg, outdir=outdir)
        result = run_phase2(cfg, artifacts, outdir=outdir)
        run_penalty_sweep(cfg, artifacts, result, outdir=outdir)
        run_support_sweep(cfg, artifacts, result, outdir=outdir, sizes=(5, 10))
        run_baselines(cfg, artifacts, outdir=outdir, support_size=5)
        run_riskbound(cfg, artifacts, outdir=outdir)
        # the JSON files too: config.json holds the config, not the directory it went to
        outputs.append(sorted([*outdir.glob("*.csv"), *outdir.glob("*.json")]))
    names_a = [p.name for p in outputs[0]]
    names_b = [p.name for p in outputs[1]]
    assert names_a == names_b and len(names_a) >= 8
    assert {"sweep_lambda_eta.csv", "config.json"} <= set(names_a)
    for pa, pb in zip(outputs[0], outputs[1]):
        assert pa.read_bytes() == pb.read_bytes(), pa.name
    _announce("determinism", started,
              f"{len(names_a)} CSV and JSON artifacts byte-identical across reruns")
