import dataclasses
from itertools import combinations, product

import numpy as np
import pytest

from protoadapt import pipeline, prototypes
from protoadapt.adapters import Canonicalizer, adapter_rows, fit_canonicalizer
from protoadapt.prototypes import (
    Atoms,
    DegenerateAtomError,
    PrototypeMemory,
    ProjectionChain,
    _kmeans_pp_init,
    _lloyd_restarts,
    cluster_prototypes,
    coverage_certificate,
    coverage_fits,
    kappa_of,
    l0_fit,
    merge_prototypes,
    mu_of,
    pairwise_ari,
    silhouette_score,
)
from protoadapt.resampling import bootstrap_indices, percentile_interval
from protoadapt.util import ValidationError, child_rng


def _loop_adjusted_rand_index(a, b):
    """The contingency-table loop the vectorized ARI replaced, kept as its oracle."""
    a, b = np.asarray(a), np.asarray(b)
    labels_a, labels_b = np.unique(a), np.unique(b)
    table = np.zeros((labels_a.size, labels_b.size))
    for i, la in enumerate(labels_a):
        for j, lb in enumerate(labels_b):
            table[i, j] = np.sum((a == la) & (b == lb))

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    total = comb2(a.shape[0])
    expected = sum_rows * sum_cols / total if total > 0 else 0.0
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def _ari(a, b):
    """``pairwise_ari`` of two label vectors with any label values."""
    _, codes_a = np.unique(a, return_inverse=True)
    _, codes_b = np.unique(b, return_inverse=True)
    k = int(max(codes_a.max(), codes_b.max())) + 1
    return float(pairwise_ari(np.stack([codes_a, codes_b]), k)[0])


def _loop_lloyd(points, centroids):
    """One restart's Lloyd loop with a per-cluster mean, which the restart block
    replaced, kept as its oracle."""
    k = centroids.shape[0]
    labels = None
    for _ in range(300):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        for j in range(k):
            mask = new_labels == j
            if np.any(mask):
                centroids[j] = points[mask].mean(axis=0)
            else:
                far = int(np.argmax(d2.min(axis=1)))
                centroids[j] = points[far]
                new_labels[far] = j
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    sse = float(d2[np.arange(points.shape[0]), labels].sum())
    return centroids, labels, sse


def _loop_cluster(points, k, n_restarts, seed):
    """cluster_prototypes' restart loop as it was: one ``_loop_lloyd`` per restart and
    one ``_loop_adjusted_rand_index`` per restart pair. Returns the best restart's
    centroids, labels and SSE, and the restart stability."""
    best, assignments = None, []
    for restart in range(n_restarts):
        init = _kmeans_pp_init(points.copy(), k, child_rng(seed, "kmeans", restart))
        centroids, labels, sse = _loop_lloyd(points, init)
        assignments.append(labels)
        if best is None or sse < best[2] - 1e-12:
            best = (centroids, labels, sse)
    pairs = [_loop_adjusted_rand_index(x, y) for x, y in combinations(assignments, 2)]
    return best, float(np.mean(pairs)) if pairs else 1.0


def _loop_silhouette_score(points, labels):
    """The per-point loop the vectorized silhouette replaced, kept as its oracle."""
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    if uniq.size < 2:
        return 0.0
    dists = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    scores = np.zeros(points.shape[0])
    for i in range(points.shape[0]):
        own = labels == labels[i]
        n_own = own.sum()
        if n_own <= 1:
            continue
        a = dists[i, own].sum() / (n_own - 1)
        b = np.inf
        for other in uniq:
            if other == labels[i]:
                continue
            mask = labels == other
            b = min(b, dists[i, mask].mean())
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(scores.mean())


def _loop_coverage_intervals(memory, theta_pre, r_sparse, n_boot, seed, exhaustive):
    """The two bootstrap runs the shared index matrix replaced, kept as their oracle:
    the canonical and the raw residuals each from a fresh "coverage" stream."""
    fits = coverage_fits(memory.chain, memory.centroids, theta_pre, r_sparse)
    canon, raw = fits.canon, fits.raw_residuals()
    n = canon.shape[0]

    def run_boot(values):
        if exhaustive:
            meds = np.array([np.median(values[list(idx)])
                             for idx in product(range(n), repeat=n)])
        else:
            rng = child_rng(seed, "coverage")
            idx = bootstrap_indices(n, n_boot, rng)
            meds = np.median(values[idx], axis=1)
        return meds

    return percentile_interval(run_boot(canon)), percentile_interval(run_boot(raw))


class _Rows:
    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)


def identity_chain(d, r):
    return ProjectionChain(canonicalizer=Canonicalizer.identity(d), r=r)


def make_memory(m_rows, r=None):
    m_rows = np.asarray(m_rows, dtype=float)
    d = m_rows.shape[1]
    chain = identity_chain(d, r or d)
    return PrototypeMemory(m_rows=m_rows, chain=chain,
                           centroids=chain.project(m_rows))


def certify(memory, theta_pre, r_sparse, **kwargs):
    """The certificate of the pretraining adapters' sparse fits in the memory's centroids."""
    return coverage_certificate(coverage_fits(memory.chain, memory.centroids, theta_pre,
                                              r_sparse), **kwargs)


class TestProjectionChain:
    def test_project_lift_roundtrip_on_subspace(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(20, 5)) * np.array([4.0, 2.0, 1.0, 0.02, 0.01])
        canon = fit_canonicalizer(rows)
        chain = ProjectionChain(canonicalizer=canon, r=2)
        coords = chain.project(rows)
        assert coords.shape == (20, 2)
        # lift then project is the identity on coordinates
        again = chain.project(chain.lift(coords))
        assert np.max(np.abs(again - coords)) < 1e-10

    def test_raw_basis_orthonormal_and_spans_lift(self):
        # subspace_project is an orthogonal projector onto the lifted coordinates
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(15, 4)) * np.array([3.0, 2.0, 0.5, 0.1])
        chain = ProjectionChain(canonicalizer=fit_canonicalizer(rows), r=2)
        proj = np.stack([chain.subspace_project(e) for e in np.eye(4)], axis=1)
        assert np.allclose(proj, proj.T, atol=1e-10)
        assert np.allclose(proj @ proj, proj, atol=1e-10)
        assert np.trace(proj) == pytest.approx(2.0, abs=1e-10)
        lifted = chain.lift(np.eye(2))
        for vec in lifted:
            assert np.max(np.abs(chain.subspace_project(vec) - vec)) < 1e-10

    def test_raw_basis_cached_after_one_qr(self, monkeypatch):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(15, 4)) * np.array([3.0, 2.0, 0.5, 0.1])
        chain = ProjectionChain(canonicalizer=fit_canonicalizer(rows), r=2)
        # the uncached basis: one lift of the coordinate axes and one QR
        uncached = np.linalg.qr(chain.lift(np.eye(2)).T)[0][:, :2]
        real_qr, calls = np.linalg.qr, []

        def counting_qr(*args, **kwargs):
            calls.append(1)
            return real_qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        for vec in rng.normal(size=(100, 4)):
            expected = uncached @ (uncached.T @ vec)
            assert chain.subspace_project(vec).tobytes() == expected.tobytes()
        assert len(calls) == 1
        assert not chain._raw_basis.flags.writeable

    def test_chain_is_frozen(self):
        chain = identity_chain(3, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            chain.r = 1


class TestClustering:
    def test_k_equals_n_zero_sse(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(6, 3))
        memory = cluster_prototypes(_Rows(rows), identity_chain(3, 3), k=6,
                                    n_restarts=3, seed=0)
        assert memory.sse == pytest.approx(0.0, abs=1e-18)
        # every adapter equals some prototype
        for row in rows:
            dists = np.linalg.norm(memory.M - row, axis=1)
            assert dists.min() < 1e-10

    def test_two_blobs_recovers_means(self):
        rng = np.random.default_rng(3)
        blob_a = np.array([5.0, 0.0]) + 1e-3 * rng.normal(size=(25, 2))
        blob_b = np.array([-5.0, 1.0]) + 1e-3 * rng.normal(size=(25, 2))
        rows = np.vstack([blob_a, blob_b])
        memory = cluster_prototypes(_Rows(rows), identity_chain(2, 2), k=2,
                                    n_restarts=5, seed=1)
        got = memory.M[np.argsort(memory.M[:, 0])]
        want = np.stack([blob_b.mean(axis=0), blob_a.mean(axis=0)])
        assert np.max(np.abs(got - want)) < 1e-6
        assert memory.restart_stability == pytest.approx(1.0)

    def test_k_greater_than_n_rejected(self):
        rows = np.eye(3)
        with pytest.raises(ValidationError):
            cluster_prototypes(_Rows(rows), identity_chain(3, 3), k=4)

    def test_ari_bounds(self):
        a = np.array([0, 0, 1, 1])
        assert _ari(a, a) == pytest.approx(1.0)
        assert _ari(a, np.array([1, 1, 0, 0])) == pytest.approx(1.0)
        scrambled = _ari(np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1]))
        assert scrambled < 0.5

    def test_ari_matches_loop_oracle(self):
        rng = np.random.default_rng(15)
        for trial in range(300):
            n = int(rng.integers(1, 40))
            a = rng.integers(0, rng.integers(1, 6), size=n)
            b = rng.choice([-3, 2, 7, 11], size=n)
            assert _ari(a, b) == _loop_adjusted_rand_index(a, b)

    def test_block_ari_matches_per_pair_loop(self):
        # labels absent from some rows, and from all of them, as the restarts leave them
        rng = np.random.default_rng(17)
        for trial in range(300):
            n_runs, n = int(rng.integers(2, 9)), int(rng.integers(1, 40))
            k = int(rng.integers(1, 9))
            labels = rng.integers(0, rng.integers(1, k + 1), size=(n_runs, n))
            got = pairwise_ari(labels, k)
            want = [_loop_adjusted_rand_index(x, y) for x, y in combinations(labels, 2)]
            assert got.tolist() == want
            assert float(np.mean(got)) == float(np.mean(want))

    @pytest.mark.parametrize("case", ["gaussian", "blobs", "ties", "empty", "line"])
    def test_restart_block_matches_per_restart_loop(self, case, monkeypatch):
        rng = np.random.default_rng(18)
        sets = []
        for _ in range(6):
            n, dim = int(rng.integers(8, 80)), int(rng.integers(2, 6))
            if case == "line":
                points = rng.normal(size=(n, 1))
            elif case == "gaussian":
                points = rng.normal(size=(n, dim))
            elif case == "blobs":
                centres = 4.0 * rng.normal(size=(3, dim))
                points = centres[rng.integers(0, 3, size=n)] + 0.3 * rng.normal(size=(n, dim))
            elif case == "ties":
                points = np.round(rng.normal(size=(n, dim)), 1)
            else:
                # three distinct points: a fourth centroid doubles one and is left empty
                points = rng.normal(size=(3, dim))[np.arange(n) % 3]
            sets.append((points, int(rng.integers(1, 9)) if case != "empty" else 4))
        alone = []
        monkeypatch.setattr(prototypes, "_lloyd",
                            lambda p, c: alone.append(1) or _loop_lloyd(p, c))
        for points, k in sets:
            k = min(k, points.shape[0])
            n_restarts = 8
            inits = np.stack([_kmeans_pp_init(points, k, child_rng(3, "kmeans", restart))
                              for restart in range(n_restarts)])
            centroids, labels, sse = _lloyd_restarts(points, inits.copy())
            for run in range(n_restarts):
                c_loop, l_loop, sse_loop = _loop_lloyd(points, inits[run].copy())
                assert centroids[run].tobytes() == c_loop.tobytes()
                assert np.array_equal(labels[run], l_loop)
                assert float(sse[run]) == sse_loop
            chain = identity_chain(points.shape[1], points.shape[1])
            memory = cluster_prototypes(_Rows(points), chain, k=k, n_restarts=n_restarts, seed=3)
            (c_best, l_best, sse_best), stability = _loop_cluster(points, k, n_restarts, 3)
            assert memory.centroids.tobytes() == c_best.tobytes()
            assert memory.M.tobytes() == chain.lift(c_best).tobytes()
            assert memory.sse == sse_best
            assert memory.silhouette == silhouette_score(points, l_best)
            assert memory.restart_stability == stability
        # only the restarts that leave a cluster empty, or on one-dimensional points, run alone
        assert bool(alone) == (case in ("empty", "line"))

    def test_silhouette_matches_loop_oracle(self):
        rng = np.random.default_rng(16)
        cases = [
            # two clusters, each point's own cluster closer
            (np.array([[0.0], [0.1], [5.0], [5.2]]), np.array([0, 0, 1, 1])),
            # singleton clusters score zero
            (np.array([[0.0], [1.0], [1.5], [9.0]]), np.array([3, 1, 1, 7])),
            # every cluster a singleton
            (np.array([[0.0], [1.0], [2.0]]), np.array([0, 1, 2])),
            # ties: duplicated points, a zero denominator across clusters
            (np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]), np.array([0, 0, 1, 1])),
            (np.array([[0.0], [0.0], [2.0], [2.0], [4.0]]), np.array([0, 1, 0, 1, 1])),
        ]
        for _ in range(60):
            n = int(rng.integers(2, 30))
            points = np.round(rng.normal(size=(n, 3)), 1)
            cases.append((points, rng.integers(0, rng.integers(2, 6), size=n)))
        for points, labels in cases:
            got = silhouette_score(points, labels)
            assert abs(got - _loop_silhouette_score(points, labels)) <= 1e-12

    def test_silhouette_single_cluster_is_zero(self):
        assert silhouette_score(np.eye(3), np.zeros(3, dtype=int)) == 0.0


def _l0_fit_loop(u, atoms, r_sparse):
    # OMP as it was before the last fit was reused: it refits the final active
    # set after the loop; kept as the oracle
    norms = np.linalg.norm(atoms, axis=1)

    def ls(support):
        sub = atoms[support]
        coef, _, _, _ = np.linalg.lstsq(sub.T, u, rcond=None)
        return coef, float(np.linalg.norm(u - coef @ sub))

    w = np.zeros(atoms.shape[0])
    residual = u.copy()
    active = []
    u_norm = np.linalg.norm(u)
    for _ in range(r_sparse):
        corr = np.abs(atoms @ residual) / norms
        corr[active] = -np.inf
        best_atom = int(np.argmax(corr))
        if corr[best_atom] <= 1e-12 * max(u_norm, 1e-300):
            break
        active.append(best_atom)
        coef, _ = ls(active)
        residual = u - coef @ atoms[active]
    if active:
        coef, resid = ls(active)
        w[active] = coef
    else:
        resid = float(np.linalg.norm(u))
    return w, resid


def _conditioned_rows(rng, k, dim, kappa):
    """k x dim rows whose singular values run geometrically from 1 to kappa."""
    n = min(k, dim)
    left, _ = np.linalg.qr(rng.normal(size=(k, n)))
    right, _ = np.linalg.qr(rng.normal(size=(dim, n)))
    return left * np.geomspace(1.0, kappa, n) @ right.T


def _coherent_rows(rng, k, dim, mu):
    """Gaussian rows, one pair of which is rebuilt at absolute cosine mu."""
    rows = rng.normal(size=(k, dim))
    i, j = rng.choice(k, size=2, replace=False)
    unit = rows[i] / np.linalg.norm(rows[i])
    other = rows[j] - (rows[j] @ unit) * unit
    other /= np.linalg.norm(other)
    rows[j] = rng.uniform(0.5, 2.0) * (mu * unit + np.sqrt(1.0 - mu * mu) * other)
    return rows


def _assert_fit_matches_loop(u, atoms, r_sparse, dictionary=None):
    """The Gram-form fit returns the loop oracle's bytes; True when it stopped early."""
    w, resid = l0_fit(u, atoms if dictionary is None else dictionary, r_sparse)
    w_loop, resid_loop = _l0_fit_loop(u, atoms, r_sparse)
    assert w.tobytes() == w_loop.tobytes()
    assert resid == resid_loop
    return np.count_nonzero(w) < r_sparse


class TestL0Fit:
    @pytest.mark.parametrize("kappa", [1.0, 1e1, 1e2, 1e3, 1e4])
    def test_gram_selection_bit_equal_on_conditioned_rows(self, kappa):
        # up to the merge rule's kappa_threshold; planted targets end in early stops
        rng = np.random.default_rng(int(kappa))
        breaks = 0
        for trial in range(200):
            k, dim = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            atoms = _conditioned_rows(rng, k, dim, kappa)
            assert kappa_of(atoms) == pytest.approx(kappa, rel=1e-6)
            u = (rng.normal(size=dim) if trial % 2 else
                 rng.random(k) * (rng.random(k) < 0.5) @ atoms)
            breaks += _assert_fit_matches_loop(u, atoms, int(rng.integers(1, min(k, dim) + 1)))
        assert breaks >= 10

    @pytest.mark.parametrize("mu", [0.5, 0.8, 0.9, 0.95])
    def test_gram_selection_bit_equal_on_coherent_pairs(self, mu):
        # up to the merge rule's mu_threshold
        rng = np.random.default_rng(int(100 * mu))
        for trial in range(200):
            k, dim = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            atoms = _coherent_rows(rng, k, dim, mu)
            assert mu_of(atoms) >= mu - 1e-12
            u = (rng.normal(size=dim) if trial % 2 else
                 rng.random(k) * (rng.random(k) < 0.5) @ atoms)
            _assert_fit_matches_loop(u, atoms, int(rng.integers(1, min(k, dim) + 1)))

    @pytest.mark.parametrize("profile", ["fewshot_benchmark_config", "desk_config"])
    def test_gram_selection_bit_equal_on_phase1_memories(self, profile):
        # the coverage fits of every pretraining adapter and every task's bound-check fit
        art = pipeline.run_phase1(getattr(pipeline, profile)(seed=42))
        memory, r_sparse = art.memory, art.certificate.r_sparse
        centroids = Atoms.of(memory.centroids)
        for u in memory.chain.project(adapter_rows(art.theta_pre)):
            _assert_fit_matches_loop(u, memory.centroids, r_sparse, centroids)
        for task in art.corpus.tasks:
            u = memory.chain.subspace_project(task.theta_true)
            _assert_fit_matches_loop(u, memory.M, min(r_sparse, memory.K), memory.row_atoms)

    def test_omp_bit_equal_to_refitting_loop(self):
        rng = np.random.default_rng(6)
        breaks = 0
        for trial in range(300):
            k, dim = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            atoms = rng.normal(size=(k, dim))
            kind = trial % 4
            if kind == 0:
                u = rng.normal(size=dim)
            elif kind == 1:     # one atom explains u: the loop breaks after one step
                u = 2.5 * atoms[int(rng.integers(0, k))]
            elif kind == 2:     # u orthogonal to every atom: the loop breaks at once
                atoms[:, -1] = 0.0
                u = np.zeros(dim)
                u[-1] = 1.0
                if dim == 1:
                    atoms[:, -1] = 1.0
            else:               # a planted sparse combination
                u = rng.random(k) * (rng.random(k) < 0.5) @ atoms
            if not np.all(np.linalg.norm(atoms, axis=1) > 1e-12):
                continue
            r_sparse = int(rng.integers(1, min(k, dim) + 1))
            w, resid = l0_fit(u, atoms, r_sparse)
            w_loop, resid_loop = _l0_fit_loop(u, atoms, r_sparse)
            assert w.tobytes() == w_loop.tobytes(), trial
            assert resid == resid_loop, trial
            breaks += np.count_nonzero(w) < r_sparse
        assert breaks >= 50

    def test_greedy_residual_norm_bytes_equal_linalg_norm(self):
        # the residual of the final least-squares fit, measured by np.linalg.norm; the
        # active set's order is the order in which growing r_sparse adds atoms
        rng = np.random.default_rng(37)
        for trial in range(200):
            k, dim = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            atoms = rng.normal(size=(k, dim))
            u = rng.normal(size=2 * dim)[::2] if trial % 2 else rng.normal(size=dim)
            order = []
            for r_sparse in range(1, min(k, dim) + 1):
                w, resid = l0_fit(u, atoms, r_sparse)
                order += [j for j in np.flatnonzero(w) if j not in order]
                sub = atoms[order]
                coef, _, _, _ = np.linalg.lstsq(sub.T, u, rcond=None)
                assert resid == float(np.linalg.norm(u - coef @ sub)), (trial, r_sparse)
        zero = np.zeros(3)
        zero[-1] = 2.5
        _, resid = l0_fit(zero, np.eye(3)[:2], r_sparse=2)
        assert resid == float(np.linalg.norm(zero))

    def test_exact_prototype_row(self):
        atoms = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [1.0, 1.0, 1.0]])
        w, resid = l0_fit(atoms[1], atoms, r_sparse=1)
        assert resid == pytest.approx(0.0, abs=1e-12)
        assert w[1] == pytest.approx(1.0)
        assert np.count_nonzero(w) == 1

    def test_orthogonal_target_zero_fit(self):
        atoms = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        u = np.array([0.0, 0.0, 2.5])
        w, resid = l0_fit(u, atoms, r_sparse=2)
        assert np.allclose(w, 0.0)
        assert resid == pytest.approx(2.5)

    def test_omp_never_beats_exact(self):
        rng = np.random.default_rng(4)
        for trial in range(40):
            atoms = rng.normal(size=(6, 5))
            u = rng.normal(size=5)
            w_omp, r_omp = l0_fit(u, atoms, r_sparse=2)
            w_ex, r_ex = l0_fit(u, atoms, r_sparse=2, exact=True)
            assert r_omp >= r_ex - 1e-10
            # oracle: full enumeration over C(6, 2) supports plus singletons
            best = np.linalg.norm(u)
            for size in (1, 2):
                for support in combinations(range(6), size):
                    sub = atoms[list(support)]
                    coef, _, _, _ = np.linalg.lstsq(sub.T, u, rcond=None)
                    best = min(best, np.linalg.norm(u - coef @ sub))
            assert r_ex == pytest.approx(best, abs=1e-10)

    def test_residual_nonincreasing_in_sparsity(self):
        rng = np.random.default_rng(5)
        atoms = rng.normal(size=(8, 6))
        u = rng.normal(size=6)
        resids = [l0_fit(u, atoms, r_sparse=r)[1] for r in range(1, 6)]
        assert all(a >= b - 1e-10 for a, b in zip(resids, resids[1:]))

    def test_zero_atom_rejected(self):
        atoms = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateAtomError):
            l0_fit(np.array([1.0, 1.0]), atoms, r_sparse=1)


class TestCoverage:
    def test_inside_span_zero_certificate(self):
        rng = np.random.default_rng(6)
        atoms = np.vstack([np.eye(3), rng.normal(size=(2, 3))])
        coeffs = rng.normal(size=(12, 3))
        rows = coeffs @ atoms[:3]
        cert = certify(make_memory(atoms), _Rows(rows), 3, n_boot=200, seed=0)
        assert cert.eps_hat == pytest.approx(0.0, abs=1e-9)
        assert cert.pct90 == pytest.approx((0.0, 0.0), abs=1e-9)
        assert cert.eps_upper == pytest.approx(0.0, abs=1e-9)

    def test_single_task_zero_width(self):
        rows = np.array([[0.3, 0.4, 1.2]])
        cert = certify(make_memory(np.eye(3)[:2]), _Rows(rows), 2, n_boot=64, seed=1)
        assert cert.pct90[0] == pytest.approx(cert.pct90[1])
        assert cert.eps_hat == pytest.approx(1.2)

    def test_exhaustive_bootstrap_matches_enumeration(self):
        rng = np.random.default_rng(7)
        atoms = rng.normal(size=(4, 3))
        rows = rng.normal(size=(5, 3))
        memory = make_memory(atoms, r=3)
        cert = certify(memory, _Rows(rows), 2, seed=0, exhaustive=True)
        canon = coverage_fits(memory.chain, memory.centroids, _Rows(rows), 2).canon
        meds = [np.median(canon[list(idx)]) for idx in product(range(5), repeat=5)]
        lo, hi = np.percentile(meds, [5, 95])
        assert cert.pct90[0] == pytest.approx(float(lo))
        assert cert.pct90[1] == pytest.approx(float(hi))

    @pytest.mark.parametrize("n_tasks,n_boot,exhaustive", [
        (5, 10, True), (4, 10, True), (9, 300, False), (12, 1000, False), (1, 64, False),
    ])
    def test_matches_two_stream_oracle(self, n_tasks, n_boot, exhaustive):
        rng = np.random.default_rng(n_tasks)
        atoms = rng.normal(size=(4, 3))
        rows = _Rows(rng.normal(size=(n_tasks, 3)))
        memory = make_memory(atoms, r=3)
        cert = certify(memory, rows, 2, n_boot=n_boot, seed=5, exhaustive=exhaustive)
        pct, raw_pct = _loop_coverage_intervals(memory, rows, 2, n_boot, 5, exhaustive)
        assert cert.pct90 == pct
        assert cert.raw_pct90 == raw_pct
        assert cert.n_boot == (n_tasks**n_tasks if exhaustive else n_boot)

    def test_certificate_deterministic(self):
        rng = np.random.default_rng(8)
        atoms = rng.normal(size=(5, 4))
        rows = rng.normal(size=(9, 4))
        c1 = certify(make_memory(atoms), _Rows(rows), 2, n_boot=300, seed=11)
        c2 = certify(make_memory(atoms), _Rows(rows), 2, n_boot=300, seed=11)
        assert c1.pct90 == c2.pct90


class TestDiagnostics:
    def test_orthonormal_rows(self):
        memory = make_memory(np.eye(4)[:3])
        assert memory.kappa == pytest.approx(1.0)
        assert memory.mu == pytest.approx(0.0)
        assert kappa_of(memory.M) == pytest.approx(1.0)

    def test_duplicate_row_full_coherence(self):
        rows = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        assert mu_of(rows) == pytest.approx(1.0)

    def test_matches_svd_gram_oracle(self):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(5, 3))
        kappa, mu = kappa_of(rows), mu_of(rows)
        s = np.linalg.svd(rows.T, compute_uv=False)
        assert kappa == pytest.approx(s.max() / s.min(), abs=1e-10)
        best = 0.0
        for i in range(5):
            for j in range(i + 1, 5):
                c = abs(rows[i] @ rows[j]) / (np.linalg.norm(rows[i]) * np.linalg.norm(rows[j]))
                best = max(best, c)
        assert mu == pytest.approx(best, abs=1e-10)

    def test_singular_gives_inf_sentinel(self):
        rows = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        assert np.isinf(kappa_of(rows))

    def test_invariances(self):
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(6, 4))
        kappa, mu = kappa_of(rows), mu_of(rows)
        perm = rng.permutation(6)
        assert kappa_of(rows[perm]) == pytest.approx(kappa)
        assert mu_of(rows[perm]) == pytest.approx(mu)
        scales = rng.uniform(0.5, 3.0, size=6)
        assert mu_of(rows * scales[:, None]) == pytest.approx(mu)


class TestMerge:
    def test_threshold_one_no_merges(self):
        rng = np.random.default_rng(11)
        memory = make_memory(rng.normal(size=(5, 3)))
        merged, log, fits = merge_prototypes(memory, mu_threshold=1.0, kappa_threshold=np.inf)
        assert merged.K == 5
        assert log == []
        assert fits is None

    def test_identical_rows_merge_to_duplicate(self):
        rows = np.array([[1.0, 2.0, 2.0], [1.0, 2.0, 2.0], [0.0, 0.0, 3.0]])
        memory = make_memory(rows)
        merged, log, _ = merge_prototypes(memory, mu_threshold=0.99, kappa_threshold=np.inf)
        assert merged.K == 2
        assert len(log) == 1
        dists = np.linalg.norm(merged.M - rows[0], axis=1)
        assert dists.min() < 1e-10

    def test_coherent_triple_lands_below_threshold(self):
        base = np.array([1.0, 0.0, 0.0])
        mk = lambda ang: np.array([np.cos(ang), np.sin(ang), 0.0])
        rows = np.stack([base, mk(0.14), mk(0.28)]) * 2.0
        memory = make_memory(rows)
        merged, log, _ = merge_prototypes(memory, mu_threshold=0.95, kappa_threshold=np.inf)
        assert mu_of(merged.M) <= 0.95
        assert len(log) >= 1

    def test_coverage_runs_once_per_merge_plus_one(self, monkeypatch):
        rng = np.random.default_rng(12)
        base = rng.normal(size=(3, 4))
        rows = np.vstack([base, base + 0.01 * rng.normal(size=(3, 4))])
        theta_pre = _Rows(rng.normal(size=(20, 4)))
        calls = []

        def counted(chain, centroids, theta, r_sparse):
            calls.append(centroids.copy())  # the rows: make_memory's chain is the identity
            return coverage_fits(chain, centroids, theta, r_sparse)

        monkeypatch.setattr(prototypes, "coverage_fits", counted)
        merged, log, fits = merge_prototypes(make_memory(rows), mu_threshold=0.95,
                                             kappa_threshold=np.inf, theta_pre=theta_pre,
                                             r_sparse=2)
        assert len(log) >= 2
        assert len(calls) == len(log) + 1
        for before, after in zip(log, log[1:]):
            assert after.coverage_before == before.coverage_after
        # the certificate takes the final rows' fits from the merge and fits nothing
        cert = coverage_certificate(fits, n_boot=50, seed=1)
        assert len(calls) == len(log) + 1
        # each event's coverage is that of the rows it names
        monkeypatch.undo()
        for evt, m_rows in zip(log, calls[1:]):
            memory = make_memory(m_rows)
            canon = coverage_fits(memory.chain, memory.centroids, theta_pre, 2).canon
            assert evt.coverage_after == float(np.median(canon))
        refit = certify(make_memory(merged.M), theta_pre, 2, n_boot=50, seed=1)
        assert cert.as_dict() == refit.as_dict()

        # a whole phase 1 with merges: each dictionary's sparse fits run once, the
        # raw-unit residuals are lifted once per Pre task, and the rank test's
        # replicate spectra come from one eigvalsh call over n_boot matrices
        monkeypatch.undo()
        fits, lifts, stacks = [], [], []
        l0, lift, eigvalsh = prototypes.l0_fit, ProjectionChain.lift, np.linalg.eigvalsh
        monkeypatch.setattr(prototypes, "l0_fit", lambda *a: fits.append(1) or l0(*a))
        monkeypatch.setattr(ProjectionChain, "lift",
                            lambda chain, c: (np.ndim(c) == 1 and lifts.append(1)) or lift(chain, c))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: (np.ndim(a) == 3 and stacks.append(a.shape)) or eigvalsh(a))
        cfg = pipeline.desk_config()
        cfg = dataclasses.replace(
            cfg, coverage_n_boot=200, n_restarts=3,
            generator=dataclasses.replace(cfg.generator, n_tasks=60, n_support=120, n_query=30))
        art = pipeline.run_phase1(cfg)
        n_pre = art.theta_pre.n_tasks
        assert len(art.merge_log) >= 1
        assert len(fits) == n_pre * (len(art.merge_log) + 1)
        assert len(lifts) == 2 * n_pre
        assert stacks == [(1000, cfg.generator.d_theta, cfg.generator.d_theta)]

    def test_memories_are_read_only_from_construction(self):
        rng = np.random.default_rng(13)
        rows, centroids = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        built = PrototypeMemory(m_rows=rows, chain=identity_chain(3, 3), centroids=centroids)
        clustered = cluster_prototypes(_Rows(rng.normal(size=(12, 3))), identity_chain(3, 2),
                                       k=3, n_restarts=2, seed=0)
        base = rng.normal(size=(3, 3))
        merged, log, _ = merge_prototypes(make_memory(np.vstack([base, base + 1e-3])),
                                          mu_threshold=0.95, kappa_threshold=np.inf)
        assert log
        for memory in (built, clustered, merged):
            for arr in (memory.M, memory.centroids):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0, 0] = 5.0
        # the arrays the caller passed stay writable and apart from the memory's
        rows[0, 0] = centroids[0, 0] = 5.0
        assert built.M[0, 0] != 5.0 and built.centroids[0, 0] != 5.0
        # a read-only memory merges into a new one and is left as it was
        k, m_rows = merged.K, merged.M.copy()
        again, _, _ = merge_prototypes(merged, mu_threshold=0.0, kappa_threshold=np.inf)
        assert again.K == 1 < k == merged.K
        assert merged.M.tobytes() == m_rows.tobytes()
