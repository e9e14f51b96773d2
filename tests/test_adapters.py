import numpy as np
import pytest

from protoadapt.adapters import (
    Canonicalizer,
    assemble_theta,
    fit_canonicalizer,
    ridge_adapter,
    ridge_fit,
)
from protoadapt.synthdata import GeneratorConfig, generate_corpus
from protoadapt.util import ValidationError


class _Task:
    def __init__(self, x, y):
        self.support_x = np.asarray(x, dtype=float)
        self.support_y = np.asarray(y, dtype=int)


def identity_map(x):
    return np.atleast_2d(np.asarray(x, dtype=float))


class TestRidge:
    def test_large_alpha_shrinks_to_zero(self):
        task = _Task([[1.0, 0.0]], [1])
        theta = ridge_adapter(task, identity_map, alpha=1e9)
        assert np.linalg.norm(theta) < 1e-6

    def test_orthonormal_design_closed_form(self):
        # X orthonormal 2x2, alpha=1: theta = X^T y / 2 componentwise
        x = np.eye(2)
        y = np.array([1, 0])
        task = _Task(x, y)
        theta = ridge_adapter(task, identity_map, alpha=1.0)
        target = x.T @ (2.0 * y - 1.0) / 2.0
        assert np.allclose(theta, target, atol=1e-12)

    def test_deterministic(self):
        # the same bytes on every call, for a corpus's int8 labels as for int64
        rng = np.random.default_rng(0)
        task = _Task(rng.normal(size=(6, 3)), rng.integers(0, 2, size=6))
        a = ridge_adapter(task, identity_map, alpha=0.05)
        for dtype in (np.int64, np.int8):
            task.support_y = task.support_y.astype(dtype)
            b = ridge_adapter(task, identity_map, alpha=0.05)
            assert a.tobytes() == b.tobytes()

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(1)
        for alpha in (1e-3, 1e-1, 1.0):
            task = _Task(rng.normal(size=(9, 4)), rng.integers(0, 2, size=9))
            theta = ridge_adapter(task, identity_map, alpha=alpha)
            x = task.support_x
            y = 2.0 * task.support_y - 1.0
            lhs = (x.T @ x + alpha * np.eye(4)) @ theta
            rhs = x.T @ y
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)

    def test_bit_equal_to_the_eye_form(self):
        """``ridge_fit`` adds alpha to the Gram diagonal in place; the oracle adds alpha I."""
        rng = np.random.default_rng(2)
        for n in (1, 2, 5, 10, 50, 800):
            for d in (1, 3, 8, 16):
                for alpha in (1e-2, 0.05 * n, 1e-9, 1e3):
                    x = rng.normal(size=(n, d)) * rng.choice([1e-3, 1.0, 1e3])
                    y = rng.integers(0, 2, size=n).astype(np.int8)
                    oracle = np.linalg.solve(x.T @ x + alpha * np.eye(d),
                                             x.T @ (2.0 * np.asarray(y, dtype=float) - 1.0))
                    assert ridge_fit(x, y, alpha).tobytes() == oracle.tobytes(), (n, d, alpha)
                    got = ridge_adapter(_Task(x, y), identity_map, alpha)
                    assert got.tobytes() == oracle.tobytes(), (n, d, alpha)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError, match="empty"):
            ridge_fit(np.zeros((0, 2)), np.zeros(0), 0.1)
        task = _Task([[1.0, np.nan]], [1])
        with pytest.raises(ValidationError):
            ridge_adapter(task, identity_map, alpha=0.1)
        with pytest.raises(ValidationError):
            ridge_adapter(_Task([[1.0, 0.0]], [1]), identity_map, alpha=0.0)


class TestAssemble:
    def test_single_adapter(self):
        vec = np.array([1.0, 2.0, 3.0])
        theta = assemble_theta([vec])
        assert theta.rows.shape == (1, 3)
        assert np.array_equal(theta.rows[0], vec)

    def test_order_preserved_under_permutation(self):
        rng = np.random.default_rng(2)
        vecs = [rng.normal(size=4) for _ in range(3)]
        ids = ["a", "b", "c"]
        perm = [2, 0, 1]
        theta = assemble_theta([vecs[i] for i in perm], task_ids=[ids[i] for i in perm])
        for row, i in zip(theta.rows, perm):
            assert np.array_equal(row, vecs[i])
        assert theta.task_ids == ["c", "a", "b"]

    def test_planted_corpus_top2_energy(self):
        # zero-noise corpus: assembling the 200 planted adapters concentrates
        # at least 99 percent of spectral energy in the top two directions
        cfg = GeneratorConfig(d_theta=8, q=16, r_true=2, n_tasks=200,
                              seed=19)
        corpus = generate_corpus(cfg)
        theta = assemble_theta([t.theta_true for t in corpus.tasks],
                               task_ids=[t.task_id for t in corpus.tasks])
        s = np.linalg.svd(theta.rows, compute_uv=False)
        assert (s[:2] ** 2).sum() / (s**2).sum() >= 0.99

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            assemble_theta([np.zeros(3), np.zeros(4)])


class TestCanonicalizer:
    def _random_matrix(self, seed, n=10, d=4):
        rng = np.random.default_rng(seed)
        scales = np.linspace(0.3, 5.0, d)
        return rng.normal(size=(n, d)) * scales

    def test_roundtrip(self):
        rows = self._random_matrix(3)
        canon = fit_canonicalizer(rows)
        back = canon.invert(canon.apply(rows))
        assert np.max(np.abs(back - rows)) < 1e-10

    def test_basis_orthonormal(self):
        canon = fit_canonicalizer(self._random_matrix(4))
        gram = canon.basis.T @ canon.basis
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10

    def test_output_unit_coordinate_scale(self):
        rows = self._random_matrix(5, n=30, d=4)
        canon = fit_canonicalizer(rows)
        out = canon.apply(rows)
        rms = np.sqrt(np.mean(out**2, axis=0))
        assert np.allclose(rms, 1.0, atol=1e-10)

    def test_idempotent_on_own_output(self):
        rows = self._random_matrix(6, n=25, d=5)
        first = fit_canonicalizer(rows)
        out = first.apply(rows)
        second = fit_canonicalizer(out)
        # refit transform is the identity
        assert np.allclose(second.scale, 1.0, atol=1e-8)
        assert np.allclose(second.basis, np.eye(5), atol=1e-8)
        assert np.allclose(second.pc_scale, 1.0, atol=1e-8)
        assert np.max(np.abs(second.apply(out) - out)) < 1e-8

    def test_sign_convention_fixes_negated_directions(self):
        # two factorizations of the same data differing by a column sign of V
        # must canonicalize to one representative with positive first loadings
        rng = np.random.default_rng(7)
        v, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        coords = rng.normal(size=(40, 4)) * np.array([4.0, 2.0, 1.0, 0.5])
        x1 = coords @ v.T
        flipped = v.copy()
        flipped[:, 0] = -flipped[:, 0]
        x2 = (coords * np.array([-1.0, 1.0, 1.0, 1.0])) @ flipped.T
        assert np.allclose(x1, x2)
        c1, c2 = fit_canonicalizer(x1), fit_canonicalizer(x2)
        assert np.allclose(c1.basis, c2.basis, atol=1e-10)
        for j in range(4):
            col = c1.basis[:, j]
            first = col[np.nonzero(np.abs(col) > 1e-9)[0][0]]
            assert first > 0
        # double application is stable: refit on output is the identity
        out = c1.apply(x1)
        refit = fit_canonicalizer(out)
        assert np.max(np.abs(refit.apply(out) - out)) < 1e-8

    def test_zero_variance_coordinate_flagged(self):
        rows = self._random_matrix(8, n=12, d=4)
        rows[:, 2] = 0.0
        canon = fit_canonicalizer(rows)
        assert canon.scale[2] == 1.0
        back = canon.invert(canon.apply(rows))
        assert np.max(np.abs(back - rows)) < 1e-10

    def test_global_rescaling_invariance(self):
        rows = self._random_matrix(9)
        c1 = fit_canonicalizer(rows)
        c2 = fit_canonicalizer(3.7 * rows)
        assert np.allclose(c1.apply(rows), c2.apply(3.7 * rows), atol=1e-10)

    def test_identity_constructor(self):
        canon = Canonicalizer.identity(3)
        rows = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(canon.apply(rows), rows)
        assert np.array_equal(canon.invert(rows), rows)
