import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protoadapt import retrieval
from protoadapt.adapters import Canonicalizer
from protoadapt.prototypes import PrototypeMemory, ProjectionChain
from protoadapt.retrieval import (
    FULL_EXCHANGE_ITERATIONS,
    GAMMA_REF_SIZE,
    MAX_ACTIVE_SET_ITERATIONS,
    Adam,
    Episodes,
    ProximalConfig,
    RetrievalNet,
    RetrievalSolution,
    TrainConfig,
    active_set_solve,
    backward_block,
    backward_through_solve,
    hard_top_r,
    objective_trace,
    outer_terms,
    predict_task,
    predict_tasks,
    softmax,
    solve_block,
    solve_proximal,
    sweep_lambda_eta,
    train_retrieval,
)
from protoadapt.metrics import rank_auc_or_nan
from protoadapt.pipeline import WarpConfig, make_transform
from protoadapt.tanhmap import KEYS, TanhMap, flatten
from protoadapt.util import ValidationError, check_finite, child_rng, require, sigmoid


def make_memory(m_rows, r=None):
    m_rows = np.asarray(m_rows, dtype=float)
    d = m_rows.shape[1]
    chain = ProjectionChain(canonicalizer=Canonicalizer.identity(d), r=r or d)
    return PrototypeMemory(m_rows=m_rows, chain=chain,
                           centroids=chain.project(m_rows))


def identity_map(x):
    return np.atleast_2d(np.asarray(x, dtype=float))


def total_objective(w, memory, theta_hat, p, lam, gamma):
    recon = w @ memory.M - theta_hat
    return (0.5 * recon @ recon + lam * np.sum(w) + gamma * np.sum((w - p) ** 2))


def lbfgsb_oracle(memory, theta_hat, p, lam, gamma):
    k = memory.K

    def fun(w):
        recon = w @ memory.M - theta_hat
        val = 0.5 * recon @ recon + lam * np.sum(w) + gamma * np.sum((w - p) ** 2)
        grad = memory.M @ recon + lam + 2 * gamma * (w - p)
        return val, grad

    best = None
    for start in (np.zeros(k), p.copy(), np.ones(k) / k):
        res = scipy.optimize.minimize(fun, start, jac=True, method="L-BFGS-B",
                                      bounds=[(0, None)] * k,
                                      options={"ftol": 1e-18, "gtol": 1e-14, "maxiter": 20000})
        if best is None or res.fun < best:
            best = res.fun
    return best


def _quadratic(memory, theta_hat, v, cfg):
    """One task's H = G + 2 gamma I and c = lam - M theta_hat - 2 gamma p, from the definitions."""
    p = softmax(v)
    hessian = memory.M @ memory.M.T + 2.0 * cfg.gamma * np.eye(memory.K)
    return hessian, cfg.lam - memory.M @ theta_hat - 2.0 * cfg.gamma * p


def _cholesky_nnls(hessian, linear):
    """argmin over w >= 0 of 0.5 w H w + c w by ``scipy.optimize.nnls``: the oracle.

    With H = L L^T, 0.5 w H w + c w = 0.5 ||L^T w + L^{-1} c||^2 - 0.5 ||L^{-1} c||^2.
    """
    chol = np.linalg.cholesky(hessian)
    return scipy.optimize.nnls(chol.T, -np.linalg.solve(chol, linear))[0]


def _support_loop(hessian, linear):
    """The same argmin by a loop over all 2^K supports: the oracle for K <= 5.

    The minimizer over w >= 0 minimizes the objective on its own support, so it
    is the best of the supports whose unconstrained minimizer is nonnegative.
    """
    k = len(linear)
    best_f, best_w = np.inf, None
    for support in itertools.product([False, True], repeat=k):
        free = np.array(support)
        w = np.zeros(k)
        w[free] = np.linalg.solve(hessian[np.ix_(free, free)], -linear[free])
        f = 0.5 * w @ hessian @ w + linear @ w
        if (w >= 0.0).all() and f < best_f:
            best_f, best_w = f, w
    return best_w


def _one_task_solve(theta_hat, memory, v, cfg):
    """One task's exact solve, ``active_set_solve`` called at T = 1: the per-row oracle.

    This was ``solve_proximal``'s body before ``solve_proximal`` became row 0 of
    a one-row ``solve_block``. Returns the solution before the top-r rule.
    """
    cfg.validate()
    theta_hat = check_finite(theta_hat, "theta_hat")
    v = check_finite(v, "retrieval logits")
    require(v.shape[0] == memory.K, "logit length must equal K")
    p = softmax(v)
    linear = cfg.lam - memory.M @ theta_hat - 2.0 * cfg.gamma * p
    w, free, iterations, _ = active_set_solve(memory, np.array([cfg.gamma]), linear[None])
    return RetrievalSolution(w=w[0], w_tilde=None, active_set=[], iterations=int(iterations[0]),
                             free=free[0], p=p, gamma=cfg.gamma)


def _problem(seed, k, d, lam, gamma, scale):
    rng = np.random.default_rng(seed)
    memory = make_memory(rng.normal(size=(k, d)))
    return memory, scale * rng.normal(size=d), 2.0 * rng.normal(size=k), ProximalConfig(lam, gamma)


def _assert_solver_matches_oracles(seed, k, d, lam, gamma, scale):
    """``solve_proximal`` against nnls on the Cholesky form and, at K <= 5, the support loop.

    Both within 1e-6 in w. A solve settles on F = {w > 0}, never restarts and
    counts at most MAX_ACTIVE_SET_ITERATIONS iterations; its free set and
    iterations are the one-task kernel call's (``_one_task_solve``), and w lies
    within 1e-12 (1 + ||w||_inf) of it. gamma = 0 on a memory of rank below K
    raises instead on both, naming the rank and K. Returns the solution.
    """
    memory, theta_hat, v, cfg = _problem(seed, k, d, lam, gamma, scale)
    if gamma == 0.0 and np.linalg.matrix_rank(memory.M) < k:
        for solve in (lambda: solve_proximal(theta_hat, memory, v, cfg, k),
                      lambda: _one_task_solve(theta_hat, memory, v, cfg)):
            with pytest.raises(ValidationError,
                               match=rf"gamma = 0 on a memory of rank \d+ < K = {k}"):
                solve()
        return None
    sol = solve_proximal(theta_hat, memory, v, cfg, k)
    ref = _one_task_solve(theta_hat, memory, v, cfg)
    assert (sol.iterations, sol.free.tolist()) == (ref.iterations, ref.free.tolist())
    assert np.max(np.abs(sol.w - ref.w)) <= 1e-12 * (1.0 + np.max(np.abs(ref.w)))
    hessian, linear = _quadratic(memory, theta_hat, v, cfg)
    oracles = [_cholesky_nnls(hessian, linear)] + ([_support_loop(hessian, linear)] if k <= 5
                                                   else [])
    for oracle in oracles:
        assert np.max(np.abs(sol.w - oracle)) <= 1e-6
    assert np.array_equal(sol.free, sol.w > 0.0)
    assert (sol.restarts, sol.converged) == (0, True)
    assert 1 <= sol.iterations <= MAX_ACTIVE_SET_ITERATIONS
    return sol


class TestSolverMatchesLoop:
    """The exact solve against the support loop and nnls (the oracles above)."""

    @pytest.mark.parametrize("case,args", [
        ("one prototype", dict(seed=1, k=1, d=3, lam=1e-3, gamma=0.1, scale=1.0)),
        ("all-zero solution", dict(seed=2, k=5, d=3, lam=1e3, gamma=0.1, scale=1.0)),
        # the ill-conditioned problem the accelerated solver needed restarts on
        ("restarts", dict(seed=3, k=5, d=3, lam=1e-3, gamma=1e-3, scale=1.0)),
        ("gamma zero", dict(seed=4, k=6, d=8, lam=1e-4, gamma=0.0, scale=1.0)),
        ("eight prototypes, large adapter", dict(seed=5, k=8, d=8, lam=1e-4, gamma=0.5,
                                                 scale=10.0)),
    ])
    def test_edge_case(self, case, args):
        sol = _assert_solver_matches_oracles(**args)
        if case == "one prototype":
            assert sol.w.shape == (1,)
        if case == "all-zero solution":
            assert not np.any(sol.w) and not sol.free.any()
        if case == "restarts":
            assert sol.restarts == 0
        if case == "gamma zero":
            assert sol.gamma == 0.0 and sol.w.any()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8), d=st.integers(1, 8),
           lam=st.sampled_from([0.0, 1e-4, 1e-2, 0.3, 1e3]),
           gamma=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
           scale=st.sampled_from([0.1, 1.0, 10.0]))
    @example(seed=0, k=1, d=1, lam=0.0, gamma=0.0, scale=1.0)
    @example(seed=0, k=3, d=2, lam=0.0, gamma=0.0, scale=1.0)  # rank 2 < K = 3
    def test_random_problems(self, seed, k, d, lam, gamma, scale):
        _assert_solver_matches_oracles(seed, k, d, lam, gamma, scale)


def _block_problem(seed, n_rows, k, d, scale):
    """A memory and T rows of mixed lam and gamma, one config.

    Some rows have gamma = 0 when the memory has full rank, where that is legal.
    """
    rng = np.random.default_rng(seed)
    memory = make_memory(rng.normal(size=(k, d)))
    theta_hats = scale * rng.normal(size=(n_rows, d))
    logits = 2.0 * rng.normal(size=(n_rows, k))
    lams = rng.choice([0.0, 1e-4, 1e-2, 0.3, 1e3], size=n_rows)
    zero = (rng.random(n_rows) < 0.25) & (np.linalg.matrix_rank(memory.M) == k)
    gammas = np.where(zero, 0.0, rng.uniform(1e-3, 2.0, size=n_rows))
    return memory, theta_hats, logits, ProximalConfig(lams, gammas), rng.normal(size=(n_rows, k))


def _row_config(cfg, i):
    """Row i's one-task config of a block config."""
    return dataclasses.replace(cfg, lam=float(cfg.lam[i]), gamma=float(cfg.gamma[i]))


def _assert_block_contract(seed, n_rows, k, d, scale, r_keep):
    """``solve_block`` and ``backward_block`` against a loop of one-task calls, row by row.

    Every row: the same free set and iteration count as the one-task kernel
    call (``_one_task_solve``), w within 1e-12 (1 + ||w||_inf), w_tilde by the
    top-r rule, and dL/dv within 1e-10 (1 + ||g||_inf) of
    ``backward_through_solve``'s. Its ``objective_trace`` has one entry per
    iteration, ends at the objective of w and lies nowhere below that end.
    Returns the block's solution.
    """
    memory, theta_hats, logits, cfg, grad_w = _block_problem(seed, n_rows, k, d, scale)
    r_keep = min(r_keep, k)
    block = solve_block(theta_hats, memory, logits, cfg, r_keep)
    grad_v = backward_block(block, memory, grad_w)
    assert block.w.shape == block.w_tilde.shape == block.free.shape == grad_v.shape == (n_rows, k)
    for i in range(n_rows):
        row_cfg, iterations, w = _row_config(cfg, i), block.iterations[i], block.w[i]
        ref = _one_task_solve(theta_hats[i], memory, logits[i], row_cfg)
        assert (iterations, block.free[i].tolist()) == (ref.iterations, ref.free.tolist()), i
        assert np.max(np.abs(w - ref.w)) <= 1e-12 * (1.0 + np.max(np.abs(ref.w))), i
        assert np.array_equal(block.w_tilde[i], hard_top_r(w, r_keep))
        ref_grad = backward_through_solve(ref, memory, grad_w[i])
        assert (np.max(np.abs(grad_v[i] - ref_grad))
                <= 1e-10 * (1.0 + np.max(np.abs(ref_grad)))), i
        trace = objective_trace(theta_hats[i], memory, block.p[i], row_cfg.lam, block.gamma[i])
        f = total_objective(w, memory, theta_hats[i], ref.p, row_cfg.lam, row_cfg.gamma)
        assert trace.shape == (iterations,), i
        assert abs(trace[-1] - f) <= 1e-12 * (1.0 + abs(f)), i
        assert np.all(trace >= trace[-1] - 1e-12 * (1.0 + abs(f))), i
    return block


class TestBlockMatchesSingleTask:
    @pytest.mark.parametrize("case,args", [
        ("one prototype", dict(seed=1, n_rows=6, k=1, d=3, scale=1.0, r_keep=1)),
        ("all-zero rows", dict(seed=2, n_rows=8, k=5, d=3, scale=1.0, r_keep=2)),
        # the block whose rows the accelerated solver restarted
        ("restarts", dict(seed=3, n_rows=12, k=5, d=3, scale=1.0, r_keep=5)),
        ("rows stop at different steps", dict(seed=4, n_rows=12, k=6, d=8, scale=1.0,
                                              r_keep=3)),
        ("one row", dict(seed=5, n_rows=1, k=8, d=8, scale=10.0, r_keep=2)),
    ])
    def test_edge_case(self, case, args):
        block = _assert_block_contract(**args)
        if case == "one prototype":
            assert block.w.shape == (args["n_rows"], 1)
        if case == "all-zero rows":
            assert not block.w.any(axis=1).all()
            assert block.w.any(axis=1).any()
        if case == "restarts":
            assert block.iterations.max() == 3  # the exact solve settles in a few iterations
        if case == "rows stop at different steps":
            assert len(set(block.iterations.tolist())) >= 2
            assert (block.gamma == 0.0).any()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 12), k=st.integers(1, 8),
           d=st.integers(1, 8), scale=st.sampled_from([0.1, 1.0, 10.0]),
           r_keep=st.integers(1, 8))
    def test_random_blocks(self, seed, n_rows, k, d, scale, r_keep):
        _assert_block_contract(seed, n_rows, k, d, scale, r_keep)

    def test_soft_rule_keeps_w(self):
        memory, theta_hats, logits, cfg, _ = _block_problem(6, 5, 6, 4, 1.0)
        block = solve_block(theta_hats, memory, logits, cfg, memory.K)
        assert np.array_equal(block.w_tilde, block.w)

    def test_gamma_zero_rows_on_a_rank_deficient_memory_are_named(self):
        memory, theta_hats, logits, _, _ = _block_problem(7, 4, 5, 3, 1.0)
        cfg = ProximalConfig(lam=1e-3, gamma=np.array([0.1, 0.0, 0.2, 0.0]))
        with pytest.raises(ValidationError, match=r"rows \[1, 3\] have gamma = 0 on a memory "
                                                  r"of rank 3 < K = 5"):
            solve_block(theta_hats, memory, logits, cfg, 2)

    @pytest.mark.parametrize("field", ["lam", "gamma"])
    def test_per_row_config_checks_every_row(self, field):
        memory, theta_hats, logits, _, _ = _block_problem(8, 4, 5, 6, 1.0)
        good = ProximalConfig(lam=np.array([0.0, 1e-3, 0.2, 1e-4]),
                              gamma=np.array([0.1, 0.3, 0.2, 0.5]))
        good.validate()
        solve_block(theta_hats, memory, logits, good, 2)
        for bad_value in (-1e-3, np.nan):
            values = getattr(good, field).copy()
            values[2] = bad_value
            bad = dataclasses.replace(good, **{field: values})
            with pytest.raises(ValidationError, match=f"{field} must be nonnegative"):
                bad.validate()
            with pytest.raises(ValidationError, match=f"{field} must be nonnegative"):
                solve_block(theta_hats, memory, logits, bad, 2)


# H and c of a problem on which the full-exchange steps cycle through the free sets
# {0, 1, 2}, {2}, {1} (checked in exact arithmetic): H is not an M-matrix
_CYCLE_M = np.array([[0.0, -1.0, 0.0], [-0.5, 1.5, -1.0], [-0.5, -1.5, -0.5]])
_CYCLE_C = np.array([0.5, -1.25, 0.25])


class TestSolver:
    def test_exact_atom_recovery(self):
        basis = np.eye(4)[:3]
        memory = make_memory(basis)
        theta_hat = basis[1].copy()
        cfg = ProximalConfig(lam=0.0, gamma=0.0)
        sol = solve_proximal(theta_hat, memory, np.zeros(3), cfg, 3)
        assert np.allclose(sol.w, np.array([0.0, 1.0, 0.0]), atol=1e-8)
        assert np.linalg.norm(sol.w @ memory.M - theta_hat) < 1e-8

    def test_huge_lambda_zeroes_everything(self):
        rng = np.random.default_rng(0)
        memory = make_memory(rng.normal(size=(4, 3)))
        cfg = ProximalConfig(lam=1e9, gamma=0.1)
        sol = solve_proximal(rng.normal(size=3), memory, rng.normal(size=4), cfg, 4)
        assert np.allclose(sol.w, 0.0)

    def test_matches_lbfgsb_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(25):
            k = int(rng.integers(2, 7))
            d = int(rng.integers(2, 5))
            memory = make_memory(rng.normal(size=(k, d)))
            theta_hat = rng.normal(size=d)
            v = rng.normal(size=k)
            lam = float(rng.uniform(0.0, 0.3))
            gamma = float(rng.uniform(0.0, 0.5))
            sol = solve_proximal(theta_hat, memory, v, ProximalConfig(lam=lam, gamma=gamma), k)
            ours = total_objective(sol.w, memory, theta_hat, softmax(v), lam, gamma)
            oracle = lbfgsb_oracle(memory, theta_hat, softmax(v), lam, gamma)
            assert ours <= oracle + 1e-6

    def test_trace_ends_at_its_minimum(self):
        # the trace takes each iterate clipped to w >= 0, a feasible point, and
        # the last is the minimizer; on these problems it also rises at times
        rng = np.random.default_rng(2)
        rises = 0
        for trial in range(200):
            memory = make_memory(rng.normal(size=(5, 3)))
            cfg = ProximalConfig(lam=float(rng.uniform(0, 0.2)), gamma=float(rng.uniform(0.01, 1.0)))
            theta_hat, v = rng.normal(size=3), rng.normal(size=5)
            trace = objective_trace(theta_hat, memory, softmax(v), cfg.lam, cfg.gamma)
            assert np.all(trace >= trace[-1] - 1e-12 * (1.0 + abs(trace[-1])))
            rises += bool(np.any(np.diff(trace) > 1e-12))
        assert rises >= 1

    def test_nnls_agreement_when_unpenalized(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            memory = make_memory(rng.normal(size=(3, 5)))  # full column rank M^T
            theta_hat = rng.normal(size=5)
            sol = solve_proximal(theta_hat, memory, np.zeros(3),
                                 ProximalConfig(lam=0.0, gamma=0.0), 3)
            w_nnls, _ = scipy.optimize.nnls(memory.M.T, theta_hat)
            ours = total_objective(sol.w, memory, theta_hat, softmax(np.zeros(3)), 0, 0)
            ref = total_objective(w_nnls, memory, theta_hat, softmax(np.zeros(3)), 0, 0)
            assert abs(ours - ref) < 1e-6

    def test_softmax_limit_large_gamma(self):
        rng = np.random.default_rng(4)
        memory = make_memory(rng.normal(size=(4, 3)))
        v = rng.normal(size=4)
        sol = solve_proximal(rng.normal(size=3), memory, v, ProximalConfig(lam=0.0, gamma=1e6), 4)
        assert np.max(np.abs(sol.w - softmax(v))) < 1e-3

    def test_unroll_cap_enforced(self, monkeypatch):
        # the solver's iteration cap, MAX_ACTIVE_SET_ITERATIONS: the full-exchange
        # steps cycle on this problem; Murty's single exchanges settle it, and
        # without them the cap stops the row, named, on both paths
        memory = make_memory(_CYCLE_M)
        theta_hat = np.linalg.solve(_CYCLE_M, -_CYCLE_C)  # lam = gamma = 0: c = -M theta_hat
        cfg = ProximalConfig(lam=0.0, gamma=0.0)
        hessian, linear = _quadratic(memory, theta_hat, np.zeros(3), cfg)
        assert np.max(np.abs(linear - _CYCLE_C)) < 1e-12
        sol = solve_proximal(theta_hat, memory, np.zeros(3), cfg, 3)
        assert np.max(np.abs(sol.w - _support_loop(hessian, linear))) <= 1e-12
        assert FULL_EXCHANGE_ITERATIONS < sol.iterations <= MAX_ACTIVE_SET_ITERATIONS
        thetas = np.stack([np.ones(3), theta_hat, np.ones(3)])
        block_cfg = ProximalConfig(lam=0.0, gamma=np.array([0.1, 0.0, 0.1]))
        block = solve_block(thetas, memory, np.zeros((3, 3)), block_cfg, 3)
        assert block.iterations[1] == sol.iterations and block.iterations.max() == sol.iterations
        monkeypatch.setattr(retrieval, "MAX_ACTIVE_SET_ITERATIONS", FULL_EXCHANGE_ITERATIONS)
        message = rf"did not settle their free sets in {FULL_EXCHANGE_ITERATIONS} active-set"
        with pytest.raises(ValidationError, match=r"rows \[0\] " + message):
            solve_proximal(theta_hat, memory, np.zeros(3), cfg, 3)
        with pytest.raises(ValidationError, match=r"rows \[1\] " + message):
            solve_block(thetas, memory, np.zeros((3, 3)), block_cfg, 3)

    def test_iterations_within_the_cap_and_equal_on_both_paths(self):
        # deterministic work counters: a block row and its one-task solve count
        # the same active-set iterations, all within the cap
        memory, theta_hats, logits, cfg, _ = _block_problem(8, 40, 8, 8, 1.0)
        block = solve_block(theta_hats, memory, logits, cfg, 8)
        one_task = [solve_proximal(theta_hats[i], memory, logits[i], _row_config(cfg, i),
                                   8).iterations for i in range(40)]
        assert block.iterations.tolist() == one_task
        assert 1 <= block.iterations.min() and block.iterations.max() <= MAX_ACTIVE_SET_ITERATIONS
        assert len(set(one_task)) >= 2


class TestHardTopR:
    def test_already_sparse_unchanged(self):
        w = np.array([0.0, 2.0, 0.0, 1.0])
        assert np.array_equal(hard_top_r(w, 2), w)
        assert np.array_equal(hard_top_r(w, 3), w)

    def test_direct_example(self):
        assert np.array_equal(hard_top_r(np.array([3.0, 1.0, 2.0]), 2),
                              np.array([3.0, 0.0, 2.0]))

    def test_tie_break_lowest_index(self):
        w = np.array([1.0, 2.0, 2.0, 0.5])
        out = hard_top_r(w, 2)
        assert np.array_equal(out, np.array([0.0, 2.0, 2.0, 0.0]))
        out1 = hard_top_r(np.array([2.0, 2.0, 2.0]), 1)
        assert np.array_equal(out1, np.array([2.0, 0.0, 0.0]))

    def test_idempotent_and_scale_equivariant(self):
        rng = np.random.default_rng(7)
        w = np.abs(rng.normal(size=6))
        once = hard_top_r(w, 2)
        assert np.array_equal(hard_top_r(once, 2), once)
        assert np.allclose(hard_top_r(3.5 * w, 2), 3.5 * once)


def _softmax_1d(v):
    """The one-vector softmax as it was before it went row-wise: the oracle."""
    v = np.asarray(v, dtype=float)
    shifted = v - v.max()
    e = np.exp(shifted)
    return e / e.sum()


def _softmax_vjp_1d(p, grad):
    """The one-vector softmax VJP as it was before it went row-wise: the oracle."""
    return p * (grad - float(p @ grad))


def _hard_top_r_1d(w, r):
    """The one-vector top-r rule as it was before it went row-wise: the oracle."""
    w = np.asarray(w, dtype=float)
    if r >= w.shape[0]:
        return w.copy()
    order = np.argsort(-w, kind="stable")
    keep = order[:r]
    out = np.zeros_like(w)
    out[keep] = w[keep]
    return out


def _row_loop(fn, *arrays):
    """``fn`` on each last-axis row of ``arrays``, stacked back into their shape."""
    rows = zip(*(a.reshape(-1, a.shape[-1]) for a in arrays))
    return np.stack([fn(*row) for row in rows]).reshape(arrays[0].shape)


def _active_set_solve_eye(memory, gamma, linear):
    """``active_set_solve`` as it was, kept as the oracle: a new np.eye(K) per use, and
    each row's settled flag reduced before the block's."""
    eye = np.eye(memory.K)
    if not gamma.all() and memory.rank < memory.K:
        raise ValidationError("singular")
    hessians = memory.row_atoms.gram + 2.0 * gamma[:, None, None] * eye
    target = -linear
    free = np.ones(linear.shape, dtype=bool)
    system, rhs = hessians, target
    iterations = np.ones(len(linear), dtype=int)
    iterates = []
    for step in range(MAX_ACTIVE_SET_ITERATIONS):
        w = np.linalg.solve(system, rhs[..., None])[..., 0]
        iterates.append(w)
        infeasible = (np.where(free, w, target - (hessians @ w[..., None])[..., 0]) > 0.0) != free
        unsettled = infeasible.any(axis=1)
        if not unsettled.any():
            return w, free, iterations, iterates
        iterations += unsettled
        if step + 1 >= FULL_EXCHANGE_ITERATIONS:
            infeasible &= np.arange(len(free[0])) == np.argmax(infeasible, axis=1)[:, None]
        free = free ^ infeasible
        system = np.where(free[:, :, None] & free[:, None, :], hessians, np.eye(free.shape[1]))
        rhs = np.where(free, target, 0.0)
    raise ValidationError("unsettled")


class TestActiveSetSolveMatchesTheEyeLoop:
    def test_every_output_bit_for_bit(self):
        checked = gamma_zero = longest = 0
        rng = np.random.default_rng(41)
        for seed in range(400):
            n_rows, k, d = (int(v) for v in rng.integers(1, [13, 9, 9]))
            scale = float(rng.choice([0.1, 1.0, 10.0]))
            memory, theta_hats, logits, cfg, _ = _block_problem(seed, n_rows, k, d, scale)
            gamma = np.zeros(n_rows) + cfg.gamma
            linear = retrieval._linear_terms(theta_hats, memory, softmax(logits),
                                             np.zeros(n_rows) + cfg.lam, gamma)
            w, free, iterations, iterates = active_set_solve(memory, gamma, linear)
            ref_w, ref_free, ref_iterations, ref_iterates = _active_set_solve_eye(
                memory, gamma, linear)
            assert w.tobytes() == ref_w.tobytes(), seed
            assert free.tobytes() == ref_free.tobytes(), seed
            assert iterations.tobytes() == ref_iterations.tobytes(), seed
            assert len(iterates) == len(ref_iterates), seed
            assert all(a.tobytes() == b.tobytes() for a, b in zip(iterates, ref_iterates)), seed
            checked += 1
            gamma_zero += int((gamma == 0.0).sum())
            longest = max(longest, int(iterations.max()))
        # gamma = 0 rows, and rows that reach the one-coordinate exchanges
        assert checked == 400 and gamma_zero > 0 and longest > FULL_EXCHANGE_ITERATIONS

    def test_identity_is_shared_and_read_only(self):
        eye = retrieval._eye(4)
        assert retrieval._eye(4) is eye and np.array_equal(eye, np.eye(4))
        with pytest.raises(ValueError):
            eye[0, 0] = 2.0


class TestRowWiseMatchesTheVectorLoop:
    """``softmax``, ``softmax_vjp`` and ``hard_top_r`` along the last axis, row by row."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(31)
        for shape in [(1,), (3,), (8,), (50,), (1, 1), (1, 4), (7, 3), (12, 8), (5, 9),
                      (4, 200), (2, 3, 6)]:
            k = shape[-1]
            yield "normal", rng.normal(size=shape)
            yield "ties", rng.integers(0, 3, size=shape).astype(float)  # many equal entries
            yield "wide", 60.0 * rng.normal(size=shape)
            rows = np.abs(rng.normal(size=shape)).reshape(-1, k)
            rows[0] = 0.0                                                 # an all-zero row
            rows[-1, : (k + 1) // 2] = 0.0
            yield "zero rows", rows.reshape(shape)

    def test_softmax_and_top_r_bytes_and_vjp_within_1e_12(self):
        seen = set()
        for case, x in self._cases():
            k = x.shape[-1]
            assert softmax(x).tobytes() == _row_loop(_softmax_1d, x).tobytes(), (case, x.shape)
            # the ndarray.max and ndarray.sum form that the ufunc reductions replaced
            e = np.exp(x - x.max(axis=-1, keepdims=True))
            assert softmax(x).tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes(), case
            p = softmax(x)
            grad = np.random.default_rng(k).normal(size=x.shape)
            ours, theirs = retrieval.softmax_vjp(p, grad), _row_loop(_softmax_vjp_1d, p, grad)
            assert ours.shape == x.shape
            assert np.all(np.abs(ours - theirs) <= 1e-12 * (1.0 + np.abs(theirs))), case
            for r in sorted({1, 2, k - 1, k, k + 1, k + 5} - {0}):
                top = hard_top_r(x, r)
                expected = _row_loop(lambda row: _hard_top_r_1d(row, r), x)
                assert top.tobytes() == expected.tobytes(), (case, x.shape, r)
                assert not np.shares_memory(top, x)
                seen.add((x.ndim, r >= k))
        assert seen == {(1, False), (1, True), (2, False), (2, True), (3, False), (3, True)}

    def test_list_input_and_bad_r(self):
        assert np.array_equal(hard_top_r([3, 1, 2], 2), np.array([3.0, 0.0, 2.0]))
        assert softmax([0.0, 0.0]).tolist() == [0.5, 0.5]
        with pytest.raises(ValidationError, match="r must be at least 1"):
            hard_top_r(np.ones((2, 3)), 0)


class TestCompose:
    """``predict_task`` scores its query with the adapter w_tilde M."""

    @staticmethod
    def _predict(memory, theta_hat, pcfg, r_keep, seed):
        rng = np.random.default_rng(seed)
        task = type("T", (), {})()
        task.task_id, task.n_support = "c", GAMMA_REF_SIZE
        task.query_x = rng.normal(size=(7, memory.d_theta))
        task.query_y = np.zeros(7, dtype=int)
        net = RetrievalNet(d_z=2, k=memory.K, seed=seed)
        probs, sol = predict_task(task, memory, net, rng.normal(size=2), theta_hat, pcfg,
                                  r_keep, identity_map)
        return task.query_x, probs, sol

    def test_unit_vector_returns_row(self):
        # lam = gamma = 0 on orthonormal rows: w_tilde is e_2 exactly, so the adapter is M[2]
        memory = make_memory(np.eye(4)[:3])
        x, probs, sol = self._predict(memory, memory.M[2].copy(),
                                      ProximalConfig(lam=0.0, gamma=0.0), 3, seed=9)
        assert sol.w_tilde.tolist() == [0.0, 0.0, 1.0] and sol.active_set == [2]
        assert np.array_equal(probs, sigmoid(x @ memory.M[2]))

    def test_zero_vector(self):
        # a lam past every correlation empties w_tilde: a zero adapter scores every query 1/2
        memory = make_memory(np.eye(3))
        _, probs, sol = self._predict(memory, np.ones(3), ProximalConfig(lam=1e9, gamma=0.1), 2,
                                      seed=3)
        assert not sol.w_tilde.any() and sol.active_set == []
        assert np.all(probs == 0.5)

    def test_random_matches_matvec_oracle(self):
        rng = np.random.default_rng(10)
        memory = make_memory(rng.normal(size=(6, 4)))
        x, probs, sol = self._predict(memory, rng.normal(size=4),
                                      ProximalConfig(lam=1e-3, gamma=0.1), 3, seed=10)
        oracle = sum(sol.w_tilde[i] * memory.M[i] for i in range(6))
        assert 1 <= len(sol.active_set) <= 3
        assert np.max(np.abs(probs - sigmoid(x @ oracle))) < 1e-12

    def test_dimension_mismatch(self):
        memory = make_memory(np.eye(3))
        with pytest.raises(ValidationError, match="one length-K row per task"):
            solve_proximal(np.ones(3), memory, np.ones(4), ProximalConfig(), 3)
        with pytest.raises(ValidationError, match="one length-d_theta row per task"):
            solve_proximal(np.ones(4), memory, np.ones(3), ProximalConfig(), 3)

    def test_sequences_are_checked_as_arrays(self):
        # lists and tuples reach the block's finiteness and shape checks like arrays do
        memory = make_memory(np.eye(3))
        sol = solve_proximal([1.0, 0.0, 0.0], memory, (0.0, 0.0, 0.0), ProximalConfig(), 3)
        ref = solve_proximal(np.array([1.0, 0.0, 0.0]), memory, np.zeros(3), ProximalConfig(), 3)
        assert np.array_equal(sol.w, ref.w)
        with pytest.raises(ValidationError, match="theta_hat"):
            solve_proximal([1.0, float("nan"), 0.0], memory, [0.0] * 3, ProximalConfig(), 3)
        with pytest.raises(ValidationError, match="one length-K row per task"):
            solve_proximal([1.0, 0.0, 0.0], memory, [0.0] * 4, ProximalConfig(), 3)


class _Query:
    task_id, n_support = "q", 5

    def __init__(self, query_x, query_y):
        self.query_x, self.query_y = query_x, query_y


def _query_block(tasks, memory, feature_map=identity_map):
    """``Episodes`` of query sets alone; the descriptor and adapter rows are zeros."""
    return Episodes.of(tasks, np.zeros((len(tasks), 1)), np.zeros((len(tasks), memory.d_theta)),
                       memory, feature_map)


def _block(tasks, memory, descriptors, theta_hats, feature_map=identity_map):
    """The toy tasks as one ``Episodes`` block, read from their by-id dicts, in task order."""
    return Episodes.of(tasks, np.stack([descriptors[t.task_id] for t in tasks]),
                       np.stack([theta_hats[t.task_id] for t in tasks]), memory, feature_map)


def _entropy(w):
    """The entropy ``outer_terms`` returns for w as a one-task block."""
    memory = make_memory(np.eye(len(w)))
    return outer_terms(_query_block([_Query(np.zeros((1, len(w))), [1])], memory),
                       w[None])[3][0]


def _outer_totals(terms, w_tilde, lam, eta):
    """Each task's outer loss and its gradient in w_tilde, from ``outer_terms``' terms."""
    _, ce, l1, entropy, grad_ce, grad_entropy = terms
    return (ce + lam * l1 + eta * entropy,
            grad_ce + lam * (w_tilde > 0.0) + eta * grad_entropy)


class TestOuterObjective:
    def test_one_hot_entropy_zero(self):
        assert _entropy(np.array([0.0, 5.0, 0.0])) == 0.0

    def test_uniform_entropy_log_k(self):
        for k in (2, 3, 5):
            w = np.zeros(8)
            w[:k] = 0.7
            assert _entropy(w) == pytest.approx(np.log(k))

    def test_zero_vector_entropy(self):
        assert _entropy(np.zeros(4)) == 0.0

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 2, size=6)
        memory = make_memory(rng.normal(size=(4, 3)))
        w_tilde = np.abs(rng.normal(size=4))
        lam, eta = 0.05, 0.2
        _, ce, l1, entropy, _, _ = outer_terms(_query_block([_Query(x, y)], memory),
                                               w_tilde[None])
        total = ce[0] + lam * l1[0] + eta * entropy[0]
        p = np.clip(sigmoid(x @ (w_tilde @ memory.M)), 1e-12, 1 - 1e-12)
        ce = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
        u = w_tilde / w_tilde.sum()
        ent = -np.sum(u * np.log(u))
        assert total == pytest.approx(ce + lam * w_tilde.sum() + eta * ent, abs=1e-12)
        assert entropy[0] == pytest.approx(ent)

    def test_loss_and_gradient_match_the_separate_pair(self):
        # one query size per block, drawn per trial; all-zero rows, K = 1 and eta = 0 all occur
        rng = np.random.default_rng(100)
        seen = set()
        for trial in range(300):
            k, d, n_tasks, n = (int(rng.integers(1, 7)), int(rng.integers(1, 5)),
                                int(rng.integers(1, 6)), int(rng.integers(1, 12)))
            memory = make_memory(rng.normal(size=(k, d)))
            tasks = [_Query(rng.normal(size=(n, d)), rng.integers(0, 2, size=n))
                     for _ in range(n_tasks)]
            w = np.maximum(rng.normal(size=(n_tasks, k)), 0.0)
            w_tilde = (np.stack([hard_top_r(row, int(rng.integers(1, k + 1))) for row in w])
                       if trial % 3 else w)
            lam = float(rng.choice([0.0, 1e-4, 0.05]))
            eta = float(rng.choice([0.0, 0.01, 0.3]))
            terms = outer_terms(_query_block(tasks, memory), w_tilde)
            totals, grads = _outer_totals(terms, w_tilde, lam, eta)
            probs = np.split(terms[0], np.cumsum([len(t.query_y) for t in tasks])[:-1])
            assert len(terms[0]) == sum(len(t.query_y) for t in tasks)
            for i, task in enumerate(tasks):
                adapter = w_tilde[i] @ memory.M
                total, parts = _pair_outer_objective(task.query_x, task.query_y, adapter,
                                                     w_tilde[i], lam, eta, identity_map)
                grad = _pair_outer_gradient_w(task.query_x, task.query_y, memory,
                                              w_tilde[i], lam, eta, identity_map)
                ref_probs = sigmoid(task.query_x @ adapter)
                for ours, theirs in ((totals[i], total), (terms[1][i], parts["ce"]),
                                     (terms[2][i], parts["l1"]),
                                     (terms[3][i], parts["entropy"]),
                                     (grads[i], grad), (probs[i], ref_probs)):
                    assert np.all(np.abs(ours - theirs) <= 1e-12 * (1.0 + np.abs(theirs)))
            seen.update({("zero row", bool((w_tilde.sum(axis=1) == 0.0).any())),
                         ("K = 1", k == 1), ("eta = 0", eta == 0.0)})
        assert {("zero row", True), ("K = 1", True), ("eta = 0", True)} <= seen

    def test_empty_query_is_rejected(self):
        memory = make_memory(np.eye(2))
        tasks = [_Query(np.ones((3, 2)), [0, 1, 1]), _Query(np.zeros((0, 2)), [])]
        with pytest.raises(ValidationError, match="query is empty"):
            _query_block(tasks, memory)

    def test_ragged_query_block_is_rejected(self):
        memory = make_memory(np.eye(2))
        tasks = [_Query(np.ones((3, 2)), [0, 1, 1]), _Query(np.ones((2, 2)), [0, 1])]
        with pytest.raises(ValidationError, match=r"one query size .* got \[2, 3\]"):
            _query_block(tasks, memory)

    def test_non_finite_query_feature_is_rejected(self):
        memory = make_memory(np.eye(2))
        query_x = np.ones((3, 2))
        query_x[1, 0] = np.nan
        tasks = [_Query(np.ones((2, 2)), [0, 1]), _Query(query_x, [0, 1, 1])]
        with pytest.raises(ValidationError, match="query features"):
            _query_block(tasks, memory)


def _pair_outer_objective(query_x, query_y, adapter, w_tilde, lam, eta, feature_map):
    """The loss as it was before it was fused with its gradient, kept as the oracle."""
    x = np.asarray(feature_map(query_x), dtype=float)
    y = np.asarray(query_y, dtype=float)
    p = np.clip(sigmoid(x @ adapter), 1e-12, 1.0 - 1e-12)
    ce = float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
    l1 = float(np.sum(np.abs(w_tilde)))
    total_w = float(np.sum(w_tilde))
    ent = 0.0
    if total_w > 0.0:
        u = w_tilde / total_w
        pos = u > 0
        ent = float(-np.sum(u[pos] * np.log(u[pos])))
    return ce + lam * l1 + eta * ent, {"ce": ce, "l1": l1, "entropy": ent}


def _pair_outer_gradient_w(query_x, query_y, memory, w_tilde, lam, eta, feature_map):
    """The gradient as it was before it was fused with the loss, kept as the oracle."""
    x = feature_map(query_x)
    y = np.asarray(query_y, dtype=float)
    adapter = w_tilde @ memory.M
    p = sigmoid(x @ adapter)
    dce_dtheta = ((p - y)[:, None] * x).mean(axis=0)
    grad = memory.M @ dce_dtheta
    grad = grad + lam * (w_tilde > 0).astype(float)
    total = float(np.sum(w_tilde))
    if eta != 0.0 and total > 0.0:
        u = w_tilde / total
        pos = u > 0
        h = -np.sum(u[pos] * np.log(u[pos]))
        ent_grad = np.zeros_like(w_tilde)
        ent_grad[pos] = (-np.log(u[pos]) - h) / total
        grad = grad + eta * ent_grad
    return grad


class TestImplicitBackward:
    def test_grad_v_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        memory = make_memory(rng.normal(size=(4, 3)))
        theta_hat = rng.normal(size=3)
        query_x = rng.normal(size=(6, 3))
        query_y = rng.integers(0, 2, size=6)
        v0 = 0.3 * rng.normal(size=4)
        lam, eta = 1e-3, 0.0
        cfg = ProximalConfig(lam=lam, gamma=0.5)

        def loss_of(v):
            sol = solve_proximal(theta_hat, memory, v, cfg, 4)
            w_tilde = sol.w  # no mask: keep the loss smooth for the check
            adapter = w_tilde @ memory.M
            total, _ = _pair_outer_objective(query_x, query_y, adapter, w_tilde,
                                             lam, eta, identity_map)
            return total

        sol = solve_proximal(theta_hat, memory, v0, cfg, 4)
        terms = outer_terms(_query_block([_Query(query_x, query_y)], memory), sol.w[None])
        _, grad_w = _outer_totals(terms, sol.w[None], lam, eta)
        grad_v = backward_through_solve(sol, memory, grad_w[0])

        eps = 1e-6
        fd = np.empty(4)
        for j in range(4):
            dv = np.zeros(4)
            dv[j] = eps
            fd[j] = (loss_of(v0 + dv) - loss_of(v0 - dv)) / (2 * eps)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(grad_v - fd) / denom < 1e-5


class TestTraining:
    def _toy_problem(self, seed=13):
        rng = np.random.default_rng(seed)
        memory = make_memory(np.array([[3.0, 0.0], [0.0, 3.0], [2.0, 2.0]]))
        tasks = []
        descriptors = {}
        theta_hats = {}

        class _T:
            def __init__(self, tid, qx, qy, n_support):
                self.task_id = tid
                self.query_x = qx
                self.query_y = qy
                self.n_support = n_support

        for i in range(6):
            proto = i % 2
            theta = memory.M[proto]
            qx = rng.normal(size=(12, 2))
            qy = (sigmoid(qx @ theta) > rng.random(12)).astype(int)
            t = _T(f"t{i}", qx, qy, 5 * (1 + i % 2))
            tasks.append(t)
            descriptors[t.task_id] = np.array([1.0, 0.0, float(proto)])
            theta_hats[t.task_id] = theta + 0.1 * rng.normal(size=2)
        return memory, tasks, descriptors, theta_hats

    def test_zero_learning_rate_freezes_params(self):
        memory, tasks, descriptors, theta_hats = self._toy_problem()
        pcfg = ProximalConfig(lam=1e-4, gamma=0.5)
        tcfg = TrainConfig(epochs=4, weight_decay=0.0, patience=40, seed=0, r_keep=1,
                           lr=0.0)
        warp = make_transform(3, WarpConfig(hidden=4), seed=0)
        warp_before = {key: arr.copy() for key, arr in warp.params.items()}
        result = train_retrieval(_block(tasks, memory, descriptors, theta_hats), memory,
                                 pcfg, tcfg, transform=warp)
        fresh = RetrievalNet(d_z=3, k=3, seed=0)
        for key in fresh.params:
            assert np.array_equal(result.net.params[key], fresh.params[key])
            assert np.array_equal(warp.params[key], warp_before[key])
        losses = [row.train_loss for row in result.history]
        assert np.allclose(losses, losses[0], atol=1e-12)

    def test_single_task_argmax_lands_on_matching_prototype(self):
        rng = np.random.default_rng(14)
        memory = make_memory(np.array([[4.0, 0.0], [0.0, 4.0]]))
        theta = memory.M[1]
        qx = rng.normal(size=(30, 2))
        qy = (sigmoid(qx @ theta) > rng.random(30)).astype(int)

        class _T:
            task_id = "only"
            n_support = 5
            query_x = qx
            query_y = qy

        # zero support-side estimate: retrieval must rely on the logits alone,
        # so training has to move the argmax onto the matching prototype
        z = np.array([0.5, -0.5])
        pcfg = ProximalConfig(lam=1e-4, gamma=1.0)
        tcfg = TrainConfig(epochs=200, weight_decay=0.0, patience=40, seed=1, r_keep=1,
                           lr=5e-3)
        result = train_retrieval(_block([_T()], memory, {"only": z}, {"only": np.zeros(2)}),
                                 memory, pcfg, tcfg)
        logits, _ = result.net.forward(z)
        assert int(np.argmax(logits)) == 1
        losses = [row.train_loss for row in result.history]
        assert losses[-1] < losses[0]

    def test_soft_mode_trains_and_validates_on_the_unthresholded_solution(self, monkeypatch):
        memory, tasks, descriptors, theta_hats = self._toy_problem()
        pcfg = ProximalConfig(lam=1e-4, gamma=0.5)
        # the soft rule is r_keep = K; the hard rule it is compared with keeps one
        tcfg = TrainConfig(epochs=2, weight_decay=0.0, patience=40, seed=0,
                           r_keep=memory.K, lr=0.0)
        hard_r = 1
        net = RetrievalNet(d_z=3, k=3, seed=0)  # lr=0 keeps training at this net

        def mean_loss(threshold):
            losses = []
            for t in tasks:
                logits, _ = net.forward(descriptors[t.task_id])
                w_tilde = threshold(solve_proximal(theta_hats[t.task_id], memory, logits,
                                                   _at_support_size(pcfg, t), memory.K).w)
                losses.append(_pair_outer_objective(t.query_x, t.query_y,
                                                    w_tilde @ memory.M,
                                                    w_tilde, pcfg.lam, tcfg.eta,
                                                    identity_map)[0])
            return np.mean(losses)

        val_solutions = []

        def spy(*args, **kwargs):
            out = predict_tasks(*args, **kwargs)
            val_solutions.append(out[2])
            return out

        monkeypatch.setattr(retrieval, "predict_tasks", spy)
        block = _block(tasks, memory, descriptors, theta_hats)
        result = train_retrieval(block, memory, pcfg, tcfg, val=block)
        soft, hard = mean_loss(lambda w: w), mean_loss(lambda w: hard_top_r(w, hard_r))
        assert soft != pytest.approx(hard)
        assert [row.train_loss for row in result.history] == pytest.approx([soft] * 2,
                                                                           rel=1e-12)
        assert len(val_solutions) == 2
        for block in val_solutions:
            assert block.w.shape[0] == len(tasks)
            assert np.array_equal(block.w_tilde, block.w)
        assert max(np.count_nonzero(block.w_tilde, axis=1).max()
                   for block in val_solutions) > hard_r

    def test_one_adam_step_matches_the_two_optimizer_oracle(self):
        memory, tasks, descriptors, theta_hats = self._toy_problem()
        pcfg = ProximalConfig(lam=1e-4, gamma=0.5)
        # two minibatches (4 and 2 tasks), so the second step sees moved arrays
        tcfg = TrainConfig(epochs=1, weight_decay=0.1, patience=40, seed=0, r_keep=1,
                           batch_size=4, lr=0.05)
        warp = make_transform(3, WarpConfig(hidden=4, init_scale=0.5), seed=7)
        result = train_retrieval(_block(tasks, memory, descriptors, theta_hats), memory,
                                 pcfg, tcfg, transform=warp)
        oracle_warp = _FlatVectorWarp(3, 4, seed=7, init_scale=0.5, lr=tcfg.lr)
        oracle_net = _two_optimizer_epoch(tasks, memory, descriptors, theta_hats, pcfg,
                                          tcfg, oracle_warp)
        fresh = make_transform(3, WarpConfig(hidden=4, init_scale=0.5), seed=7)
        # training solves each minibatch as one Gram-form block and takes its
        # outer loss in prototype coordinates, the oracle task by task with
        # solve_proximal and the composed adapter: the block contract's tolerance
        for key in KEYS:
            for ours, theirs in ((result.net.params[key], oracle_net.params[key]),
                                 (warp.params[key], oracle_warp.map.params[key])):
                assert np.all(np.abs(ours - theirs) <= 1e-10 * (1.0 + np.abs(theirs))), key
        assert not np.array_equal(warp.params["w1"], fresh.params["w1"])

    def test_jaccard_matches_the_set_loop(self, monkeypatch):
        memory, tasks, descriptors, theta_hats = self._toy_problem()
        tcfg = TrainConfig(epochs=6, weight_decay=0.0, patience=40, seed=0,
                           r_keep=memory.K, lr=0.05)  # the soft rule
        for lam in (1e-4, 1e3):  # 1e3 empties every active set
            pcfg = ProximalConfig(lam=lam, gamma=0.5)
            blocks = []

            def spy(*args, **kwargs):
                out = predict_tasks(*args, **kwargs)
                blocks.append(out[2])
                return out

            monkeypatch.setattr(retrieval, "predict_tasks", spy)
            block = _block(tasks, memory, descriptors, theta_hats)
            result = train_retrieval(block, memory, pcfg, tcfg, val=block)
            monkeypatch.undo()
            actives = [[set(np.nonzero(w)[0]) for w in block.w_tilde] for block in blocks]
            expected = [1.0] + [float(np.mean([_set_jaccard(a, b) for a, b in zip(now, before)]))
                                for before, now in zip(actives, actives[1:])]
            assert [row.jaccard for row in result.history] == expected
            if lam == 1e3:
                assert not any(active for epoch in actives for active in epoch)
            else:
                assert min(expected) < 1.0

    def test_adam_updates_params(self):
        params = {"w": np.ones(3)}
        opt = Adam(params, lr=0.1)
        opt.step({"w": np.array([1.0, -1.0, 0.5])})
        assert not np.allclose(params["w"], 1.0)


def _set_jaccard(a, b):
    """The active-set overlap as it was: Jaccard of index sets, 1 for two empty sets."""
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


class _DecayAdam:
    """Adam as it was, adding ``weight_decay * param`` to each gradient itself."""

    def __init__(self, params, lr, weight_decay=0.0):
        self.params, self.lr, self.weight_decay = params, lr, weight_decay
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads):
        self.t += 1
        for key, g in grads.items():
            if self.weight_decay:
                g = g + self.weight_decay * self.params[key]
            self.m[key] = 0.9 * self.m[key] + (1 - 0.9) * g
            self.v[key] = 0.999 * self.v[key] + (1 - 0.999) * g * g
            m_hat = self.m[key] / (1 - 0.9**self.t)
            v_hat = self.v[key] / (1 - 0.999**self.t)
            self.params[key] -= self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)


class _FlatVectorWarp:
    """The residual warp as it was: map arrays that view one flat vector, its own Adam."""

    def __init__(self, d_z, hidden, seed, init_scale, lr):
        net = TanhMap(d_z, hidden, d_z, seed, "mlp-transform", init_scale)
        self._params = {"phi": net.params_vector()}
        self.map = net.with_params(self._params["phi"])
        self.opt = _DecayAdam(self._params, lr=lr)

    def forward(self, z):
        y, h = self.map.forward(z)
        return z + y, h

    def apply_batch(self, triples):
        grad = np.zeros_like(self._params["phi"])
        for z, hidden, grad_out in triples:
            grad += flatten(self.map.vjp(z, hidden, grad_out)[0])
        self.opt.step({"phi": grad})


def _at_support_size(pcfg, task):
    """``pcfg`` with gamma scaled to the task's support size, as phase 2 solves it."""
    return dataclasses.replace(pcfg, gamma=pcfg.gamma * GAMMA_REF_SIZE / task.n_support)


def _two_optimizer_epoch(tasks, memory, descriptors, theta_hats, pcfg, tcfg, warp):
    """One training epoch as it was: the net's Adam, then the warp's ``apply_batch``."""
    d_z = descriptors[tasks[0].task_id].shape[0]
    net = RetrievalNet(d_z=d_z, k=memory.K, seed=tcfg.seed)
    opt = _DecayAdam(net.params, lr=tcfg.lr, weight_decay=tcfg.weight_decay)
    order = child_rng(tcfg.seed, "epochs", 0).permutation(len(tasks))
    for start in range(0, len(order), tcfg.batch_size):
        batch = order[start:start + tcfg.batch_size]
        grads = {k: np.zeros_like(v) for k, v in net.params.items()}
        warp_batch = []
        for i in batch:
            task = tasks[i]
            z_raw = descriptors[task.task_id]
            z, warp_hidden = warp.forward(z_raw)
            logits, net_hidden = net.forward(z)
            solution = solve_proximal(theta_hats[task.task_id], memory, logits,
                                      _at_support_size(pcfg, task), memory.K)
            grad_w = _pair_outer_gradient_w(task.query_x, task.query_y, memory,
                                            hard_top_r(solution.w, tcfg.r_keep), pcfg.lam,
                                            tcfg.eta, identity_map)
            task_grads, grad_z = net.vjp(z, net_hidden,
                                         backward_through_solve(solution, memory, grad_w))
            for key in grads:
                grads[key] += task_grads[key] / len(batch)
            warp_batch.append((z_raw, warp_hidden, grad_z / len(batch)))
        opt.step(grads)
        warp.apply_batch(warp_batch)
    return net


class TestSweep:
    def test_single_cell_equals_direct_evaluation(self):
        rng = np.random.default_rng(15)
        memory = make_memory(rng.normal(size=(3, 2)))

        class _T:
            task_id = "a"
            n_support = 10
            query_x = rng.normal(size=(8, 2))
            query_y = np.array([0, 1, 0, 1, 1, 0, 1, 0])

        net = RetrievalNet(d_z=4, k=3, seed=2)
        descs, thetas = {"a": rng.normal(size=4)}, {"a": rng.normal(size=2)}
        # the config's lam differs from the grid's, so a sweep that solves at the
        # config's lam, or scores without the grid eta, does not match the cell
        pcfg = ProximalConfig(lam=0.5, gamma=0.2)
        rows = sweep_lambda_eta([1e-3], [0.1], _block([_T()], memory, descs, thetas), memory,
                                net, pcfg, r_keep=2)
        assert len(rows) == 1
        _assert_rows_match(rows, _sweep_double_loop([1e-3], [0.1], [_T()], memory, net, descs,
                                                    thetas, pcfg, 2, identity_map))
        assert 0.0 <= rows[0]["auc"] <= 1.0
        assert rows[0]["mean_l0_post"] <= 2

    def test_sparsity_non_increasing_in_lambda(self):
        rng = np.random.default_rng(16)
        memory = make_memory(rng.normal(size=(6, 4)))

        tasks, descs, thetas = [], {}, {}
        for i in range(4):
            class _T:
                pass
            t = _T()
            t.task_id, t.n_support = f"s{i}", 5 + 3 * i
            t.query_x = rng.normal(size=(6, 4))
            t.query_y = np.array([0, 1] * 3)
            tasks.append(t)
            descs[t.task_id] = rng.normal(size=5)
            thetas[t.task_id] = rng.normal(size=4)

        net = RetrievalNet(d_z=5, k=6, seed=3)
        pcfg = ProximalConfig(lam=0.0, gamma=0.05)
        lam_grid = [1e-4, 1e-2, 0.1, 1.0]
        logits, _ = net.forward(np.stack([descs[t.task_id] for t in tasks]))
        theta = np.stack([thetas[t.task_id] for t in tasks])

        gammas = np.array([_at_support_size(pcfg, t).gamma for t in tasks])

        def mean_l0_pre(lam):
            block = solve_block(theta, memory, logits,
                                dataclasses.replace(pcfg, lam=lam, gamma=gammas), 6)
            return float(np.mean(np.sum(block.w > 1e-10, axis=1)))

        # solved exactly, the support shrinks as lam grows
        pre = [mean_l0_pre(lam) for lam in lam_grid]
        assert all(a >= b - 1e-9 for a, b in zip(pre, pre[1:]))
        # the surface reports its own solves, and a cell equals its recomputation
        block = _block(tasks, memory, descs, thetas)
        rows = sweep_lambda_eta(lam_grid, [0.0], block, memory, net, pcfg, r_keep=6)
        assert [row["mean_l0_pre"] for row in rows] == [mean_l0_pre(lam) for lam in lam_grid]
        again = sweep_lambda_eta([lam_grid[1]], [0.0], block, memory, net, pcfg, r_keep=6)
        assert again[0]["auc"] == rows[1]["auc"]
        assert again[0]["mean_l0_pre"] == rows[1]["mean_l0_pre"]

    def test_one_solve_per_lambda_matches_double_loop(self):
        rng = np.random.default_rng(17)
        memory = make_memory(rng.normal(size=(5, 4)))

        class _T:
            pass

        tasks, descs, thetas = [], {}, {}
        for i in range(6):
            t = _T()
            t.task_id, t.n_support = f"e{i}", 5 * (i + 1)
            t.query_x = rng.normal(size=(7, 4))
            t.query_y = np.array([0, 1, 1, 0, 1, 0, 0])
            tasks.append(t)
            descs[t.task_id] = rng.normal(size=3)
            thetas[t.task_id] = rng.normal(size=4)

        net = RetrievalNet(d_z=3, k=5, seed=4)
        pcfg = ProximalConfig(lam=0.0, gamma=0.1)
        lam_grid, eta_grid = [1e-4, 1e-2, 0.3], [0.0, 0.01, 0.5]
        rows = sweep_lambda_eta(lam_grid, eta_grid, _block(tasks, memory, descs, thetas),
                                memory, net, pcfg, r_keep=3)
        oracle = _sweep_double_loop(lam_grid, eta_grid, tasks, memory, net, descs,
                                    thetas, pcfg, 3, identity_map)
        assert len({row["mean_objective"] for row in rows}) == len(rows)
        _assert_rows_match(rows, oracle)

    def test_support_scaled_gamma_with_the_grid_lam(self):
        rng = np.random.default_rng(18)
        memory = make_memory(rng.normal(size=(4, 3)))
        tasks, descs, thetas = [], {}, {}
        for i in range(4):
            t = type("T", (), {})()
            t.task_id, t.n_support = f"f{i}", 5 * (i + 1)
            t.query_x = rng.normal(size=(6, 3))
            t.query_y = np.array([0, 1] * 3)
            tasks.append(t)
            descs[t.task_id] = rng.normal(size=2)
            thetas[t.task_id] = rng.normal(size=3)
        net = RetrievalNet(d_z=2, k=4, seed=5)
        pcfg = ProximalConfig(lam=0.5, gamma=0.4)
        rows = sweep_lambda_eta([1e-3, 0.2], [0.0], _block(tasks, memory, descs, thetas),
                                memory, net, pcfg, r_keep=2)

        def mean_objective(lam, size_of):
            objective = []
            for t in tasks:
                logits = net.forward(descs[t.task_id])[0]
                gamma = pcfg.gamma * GAMMA_REF_SIZE / size_of(t)
                w = solve_proximal(thetas[t.task_id], memory, logits,
                                   dataclasses.replace(pcfg, lam=lam, gamma=gamma), memory.K).w
                w_tilde = hard_top_r(w, 2)
                objective.append(_pair_outer_objective(t.query_x, t.query_y,
                                                       w_tilde @ memory.M,
                                                       w_tilde, lam, 0.0, identity_map)[0])
            return float(np.mean(objective))

        # each row solves with gamma at its own support size (5, 10, 15, 20); the
        # sweep solves as one Gram-form block, the oracle task by task with
        # solve_proximal: the block contract's tolerance
        for row in rows:
            f = mean_objective(row["lam"], lambda t: t.n_support)
            assert abs(row["mean_objective"] - f) <= 1e-12 * (1.0 + abs(f))
            assert row["mean_objective"] != pytest.approx(
                mean_objective(row["lam"], lambda t: tasks[0].n_support), rel=1e-9)


class TestOneTaskPath:
    def test_one_gamma_rule_for_a_size_and_for_rows(self):
        pcfg = ProximalConfig(gamma=0.4)
        sizes = [0, 1, 2, 5, 20]
        expected = [0.4 * GAMMA_REF_SIZE / max(n, 1) for n in sizes]
        assert retrieval._at_support_size(pcfg, np.array(sizes)).gamma.tolist() == expected
        for n, gamma in zip(sizes, expected):
            one = retrieval._at_support_size(pcfg, n).gamma
            assert type(one) is float and one == gamma  # the one-task solve's scalar arithmetic

    def test_gamma_rule_bit_equal_to_dataclasses_replace(self):
        rng = np.random.default_rng(21)
        for lam in (1e-4, rng.uniform(0.0, 1.0, size=6)):
            for gamma in (0.0, 0.1, 0.37, 2.5):
                pcfg = ProximalConfig(lam=lam, gamma=gamma)
                for n in (0, 1, 3, 5, 50, np.array([0, 1, 5, 10, 20, 50]),
                          rng.integers(0, 60, size=6)):
                    got = retrieval._at_support_size(pcfg, n)
                    oracle = dataclasses.replace(
                        pcfg, gamma=pcfg.gamma * GAMMA_REF_SIZE / (n + (n < 1)))
                    assert got.lam is oracle.lam
                    assert type(got.gamma) is type(oracle.gamma)
                    assert np.asarray(got.gamma).tobytes() == np.asarray(oracle.gamma).tobytes()

    def test_scales_gamma_as_the_block_does(self):
        rng = np.random.default_rng(20)
        memory = make_memory(rng.normal(size=(4, 3)))
        tasks, descs, thetas = [], {}, {}
        for i in range(3):
            t = type("T", (), {})()
            t.task_id, t.n_support = f"p{i}", 5 * (i + 1)
            t.query_x = rng.normal(size=(6, 3))
            t.query_y = np.array([0, 1] * 3)
            tasks.append(t)
            descs[t.task_id] = rng.normal(size=2)
            thetas[t.task_id] = rng.normal(size=3)
        net = RetrievalNet(d_z=2, k=4, seed=7)
        pcfg = ProximalConfig(lam=1e-3, gamma=0.4)
        probs, _, block = predict_tasks(_block(tasks, memory, descs, thetas), memory, net,
                                        pcfg, 2)
        rows = np.cumsum([0] + [len(t.query_y) for t in tasks])
        # both paths run one kernel; their c = lam - M theta_hat - 2 gamma p rounds
        # differently (one product per block against one per task)
        for i, t in enumerate(tasks):
            one_probs, sol = predict_task(t, memory, net, descs[t.task_id], thetas[t.task_id],
                                          pcfg, 2, identity_map)
            assert np.max(np.abs(sol.w - block.w[i])) <= 1e-12 * (1.0 + np.max(np.abs(sol.w)))
            assert np.max(np.abs(one_probs - probs[rows[i]:rows[i + 1]])) <= 1e-12
            unscaled = solve_proximal(thetas[t.task_id], memory,
                                      net.forward(descs[t.task_id])[0], pcfg, memory.K).w
            assert (t.n_support == GAMMA_REF_SIZE) == np.allclose(sol.w, unscaled, atol=1e-9)

    @pytest.mark.parametrize("hard_threshold", [True, False])
    def test_w_matches_its_row_of_predict_tasks(self, hard_threshold):
        # predict_task's w, free set and iterations against its row of one
        # predict_tasks block, within 1e-12, over random tasks and memories
        rng = np.random.default_rng(21)
        for trial in range(20):
            k, d, n_tasks = int(rng.integers(1, 9)), int(rng.integers(1, 9)), 6
            memory = make_memory(rng.normal(size=(k, d)))
            tasks, descs, thetas = [], {}, {}
            for i in range(n_tasks):
                t = type("T", (), {})()
                t.task_id, t.n_support = f"r{i}", int(rng.choice([5, 10, 20, 50]))
                t.query_x, t.query_y = rng.normal(size=(4, d)), np.array([0, 1, 1, 0])
                tasks.append(t)
                descs[t.task_id] = rng.normal(size=3)
                thetas[t.task_id] = float(rng.choice([0.1, 1.0, 10.0])) * rng.normal(size=d)
            net = RetrievalNet(d_z=3, k=k, seed=trial)
            pcfg = ProximalConfig(lam=float(rng.choice([0.0, 1e-4, 0.3])), gamma=0.1)
            r_keep = min(2, k) if hard_threshold else k
            _, _, block = predict_tasks(_block(tasks, memory, descs, thetas), memory, net,
                                        pcfg, r_keep)
            for i, t in enumerate(tasks):
                _, sol = predict_task(t, memory, net, descs[t.task_id], thetas[t.task_id], pcfg,
                                      min(2, k), identity_map, hard_threshold=hard_threshold)
                assert np.max(np.abs(sol.w - block.w[i])) <= 1e-12, (trial, i)
                assert np.max(np.abs(sol.w_tilde - block.w_tilde[i])) <= 1e-12, (trial, i)
                assert np.array_equal(sol.free, block.free[i])
                assert sol.iterations == block.iterations[i]


def _sweep_double_loop(lam_grid, eta_grid, tasks, memory, net, descriptors, theta_hats,
                       pcfg_base, r_keep, feature_map):
    """The sweep as it was: one full solve per (lam, eta) pair, kept as the oracle."""
    rows = []
    for lam in lam_grid:
        for eta in eta_grid:
            pcfg = dataclasses.replace(pcfg_base, lam=lam)
            probs, labels, block = predict_tasks(
                _block(tasks, memory, descriptors, theta_hats, feature_map), memory, net,
                pcfg, r_keep)
            objective = []
            for task, w_tilde in zip(tasks, block.w_tilde):
                adapter = w_tilde @ memory.M
                total, _ = _pair_outer_objective(task.query_x, task.query_y, adapter,
                                                 w_tilde, lam, eta, feature_map)
                objective.append(total)
            rows.append({
                "lam": lam, "eta": eta,
                "auc": rank_auc_or_nan(probs, labels),
                "mean_l0_pre": float(np.mean([np.sum(w > 1e-10) for w in block.w])),
                "mean_l0_post": float(np.mean([np.sum(w_tilde > 1e-10)
                                               for w_tilde in block.w_tilde])),
                "mean_objective": float(np.mean(objective)),
            })
    return rows


def _assert_rows_match(rows, oracle):
    """Sweep rows equal the oracle's, but for ``mean_objective`` at 1e-12 (1 + |f|).

    ``outer_terms`` takes the query logits in prototype coordinates, the
    oracle through the composed adapter, so the objective moves in the last bits.
    """
    assert len(rows) == len(oracle)
    for row, ref in zip(rows, oracle):
        assert row.keys() == ref.keys()
        assert {key: value for key, value in row.items() if key != "mean_objective"} == {
            key: value for key, value in ref.items() if key != "mean_objective"}
        f = ref["mean_objective"]
        assert abs(row["mean_objective"] - f) <= 1e-12 * (1.0 + abs(f))


# ---------------------------------------------------------------------------
# Episodes holds each distinct query set once
# ---------------------------------------------------------------------------

def _stacked(tasks, z, theta_hats, memory, feature_map=identity_map):
    """A block as it was, one stacked query set per row, kept as the oracle of ``Episodes``.

    Each query array was mapped once and stacked once per row that uses it.
    """
    mapped = {}
    for x in (task.query_x for task in tasks):
        if id(x) not in mapped:
            mapped[id(x)] = check_finite(feature_map(x) @ memory.M.T, "query features")
    return SimpleNamespace(task_ids=[task.task_id for task in tasks], z=z, theta_hats=theta_hats,
                           n_support=np.array([task.n_support for task in tasks]),
                           coords=np.stack([mapped[id(task.query_x)] for task in tasks]),
                           labels=np.array([task.query_y for task in tasks]))


def _stacked_take(block, rows):
    """``take`` on the stacked layout: every array indexed by ``rows``."""
    return SimpleNamespace(task_ids=[block.task_ids[i] for i in rows], z=block.z[rows],
                           theta_hats=block.theta_hats[rows], n_support=block.n_support[rows],
                           coords=block.coords[rows], labels=block.labels[rows])


def _same_bytes(ours, theirs):
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    return (ours.dtype == theirs.dtype and ours.shape == theirs.shape
            and ours.tobytes() == theirs.tobytes())


def _assert_layouts_agree(episodes, stacked, memory, net, transform, rng):
    """Every read of the block has the stacked layout's bytes, on the block and on minibatches."""
    pcfg, r_keep = ProximalConfig(lam=1e-3, gamma=0.3), min(2, memory.K)
    n_rows = len(stacked.task_ids)
    batches = [np.arange(n_rows), rng.permutation(n_rows)[: max(1, n_rows // 2)],
               rng.integers(0, n_rows, size=n_rows + 3)]  # rows repeated
    for rows in batches:
        ours, theirs = episodes.take(rows), _stacked_take(stacked, rows)
        assert ours.task_ids == theirs.task_ids
        for name in ("z", "theta_hats", "n_support", "coords", "labels"):
            assert _same_bytes(getattr(ours, name), getattr(theirs, name)), name
        w_tilde = np.maximum(rng.normal(size=(len(rows), memory.K)), 0.0)
        for a, b in zip(outer_terms(ours, w_tilde), outer_terms(theirs, w_tilde)):
            assert _same_bytes(a, b)
        ours_out = predict_tasks(ours, memory, net, pcfg, r_keep, transform=transform)
        theirs_out = predict_tasks(theirs, memory, net, pcfg, r_keep, transform=transform)
        for a, b in zip(ours_out[:2], theirs_out[:2]):
            assert _same_bytes(a, b)
        assert _same_bytes(ours_out[2].w_tilde, theirs_out[2].w_tilde)
        grads = [retrieval.minibatch_gradients(block, memory, net, pcfg, r_keep, 0.01,
                                               transform=transform) for block in (ours, theirs)]
        assert _same_bytes(grads[0][0], grads[1][0])
        assert grads[0][2].keys() == grads[1][2].keys()
        assert all(_same_bytes(grads[0][2][key], grads[1][2][key]) for key in grads[0][2])
    surfaces = [sweep_lambda_eta([1e-4, 0.1], [0.0, 0.5], block, memory, net, pcfg, r_keep,
                                 transform=transform) for block in (episodes, stacked)]
    assert repr(surfaces[0]) == repr(surfaces[1])  # a NaN AUC compares as its repr


class TestQueryBlocks:
    def test_random_blocks_match_the_stacked_layout(self):
        # rows share query sets as a task's episodes at several support sizes do
        rng = np.random.default_rng(40)
        for trial in range(25):
            k, d, n_q = int(rng.integers(1, 6)), int(rng.integers(1, 5)), int(rng.integers(1, 9))
            memory = make_memory(rng.normal(size=(k, d)))
            dtype = (np.int8, np.int64)[trial % 2]  # a corpus's labels, and numpy's default
            queries = [_Query(rng.normal(size=(n_q, d)),
                              rng.integers(0, 2, size=n_q).astype(dtype))
                       for _ in range(int(rng.integers(1, 5)))]
            uses = rng.integers(0, len(queries), size=int(rng.integers(1, 12)))
            tasks = [SimpleNamespace(task_id=f"r{i}", n_support=int(rng.choice([0, 2, 5, 20])),
                                     query_x=queries[u].query_x, query_y=queries[u].query_y)
                     for i, u in enumerate(uses)]
            z = rng.normal(size=(len(tasks), 3))
            theta_hats = rng.normal(size=(len(tasks), d))
            episodes = Episodes.of(tasks, z, theta_hats, memory, identity_map)
            assert episodes.query_coords.shape == (len(set(uses.tolist())), n_q, k)
            assert episodes.query_labels.dtype == dtype
            net = RetrievalNet(d_z=3, k=k, seed=trial)
            transform = make_transform(3, WarpConfig(hidden=4), seed=trial) if trial % 3 else None
            _assert_layouts_agree(episodes, _stacked(tasks, z, theta_hats, memory), memory, net,
                                  transform, rng)

    def test_tiny_fixture_train_split_matches_the_stacked_layout(self):
        from test_pipeline import tiny_config

        from protoadapt import pipeline

        cfg = tiny_config(train_sizes=(5, 20))
        artifacts = pipeline.run_phase1(cfg)
        tasks = pipeline._ret_train_tasks(artifacts, cfg.train_sizes)
        episodes = pipeline._prepare_inputs(cfg, artifacts, tasks)
        n_tasks = len(artifacts.corpus.tasks_in("Ret-Train"))
        assert len(tasks) == 2 * n_tasks and len(episodes.query_coords) == n_tasks
        assert episodes.query_labels.dtype == np.int8
        stacked = _stacked(tasks, episodes.z, episodes.theta_hats, artifacts.memory,
                           artifacts.corpus.feature_map())
        net = RetrievalNet(d_z=episodes.z.shape[1], k=artifacts.memory.K, seed=1)
        transform = make_transform(episodes.z.shape[1], cfg.warp, seed=1)
        _assert_layouts_agree(episodes, stacked, artifacts.memory, net, transform,
                              np.random.default_rng(41))

    def test_fewshot_train_split_holds_one_block_per_task(self):
        from protoadapt import pipeline

        cfg = pipeline.fewshot_benchmark_config(seed=42)
        artifacts = pipeline.run_phase1(cfg)
        train = pipeline._prepare_inputs(cfg, artifacts,
                                         pipeline._ret_train_tasks(artifacts, cfg.train_sizes))
        assert len(train.task_ids) == 288 and train.query_coords.shape == (72, 400, 3)
        assert train.query_labels.shape == (72, 400) and train.query_labels.dtype == np.int8
        assert np.bincount(train.query).tolist() == [4] * 72
