import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from protoadapt import node
from protoadapt.node import (
    AdjointResult,
    IntegrationResult,
    SolveConfig,
    StepUnderflowError,
    VectorField,
    adjoint_gradient,
    integrate,
)
from protoadapt.util import ValidationError


_LOOP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_LOOP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_LOOP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_LOOP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                     -92097 / 339200, 187 / 2100, 1 / 40])


def _loop_integrate_rk45(f, z0, cfg):
    """The seven-evaluation stepper as it stood before FSAL: the oracle."""
    span = cfg.t1 - cfg.t0
    max_step = cfg.max_step if cfg.max_step is not None else span
    t, z = cfg.t0, z0.copy()
    h = min(max_step, span / 10.0)
    n_steps = n_rejected = 0
    stiff = False
    reject_streak = 0
    while t < cfg.t1 - 1e-14 * max(1.0, abs(cfg.t1)):
        if n_steps + n_rejected > cfg.max_steps:
            raise StepUnderflowError("step budget exhausted; system looks stiff")
        floor = 16.0 * np.finfo(float).eps * max(abs(t), 1.0)
        if h < floor:
            raise StepUnderflowError(f"step size {h:.3e} collapsed at t={t:.6f}")
        h = min(h, cfg.t1 - t, max_step)
        ks = []
        for i in range(7):
            zi = z.copy()
            for j, a in enumerate(_LOOP_A[i]):
                zi += h * a * ks[j]
            ks.append(f(zi, t + _LOOP_C[i] * h))
        ks = np.asarray(ks)
        z5 = z + h * (_LOOP_B5 @ ks)
        z4 = z + h * (_LOOP_B4 @ ks)
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(z), np.abs(z5))
        err = float(np.sqrt(np.mean(((z5 - z4) / scale) ** 2)))
        if err <= 1.0:
            t += h
            z = z5
            n_steps += 1
            reject_streak = 0
        else:
            n_rejected += 1
            reject_streak += 1
            if reject_streak >= 20:
                stiff = True
        factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if h < span * 1e-7:
            stiff = True
    return z, n_steps, n_rejected, stiff


def _assert_stepper_matches_loop(f, z0, cfg):
    """Same step and rejection counts and stiffness flag, z1 within 1e-12 relative."""
    z1, n_steps, n_rejected, stiff = node._integrate_rk45(f, z0, cfg)
    ref_z1, ref_steps, ref_rejected, ref_stiff = _loop_integrate_rk45(f, z0, cfg)
    assert (n_steps, n_rejected, stiff) == (ref_steps, ref_rejected, ref_stiff)
    assert np.all(np.abs(z1 - ref_z1) <= 1e-12 * (1.0 + np.abs(ref_z1)))
    return n_steps, n_rejected


_field_cases = dict(
    seed=st.integers(0, 2**16), m=st.integers(1, 6), hidden=st.integers(1, 12),
    scale=st.sampled_from([0.3, 1.0, 3.0]),
    tol=st.sampled_from([1e-3, 1e-6, 1e-9]),
    t1=st.sampled_from([0.5, 1.0, 3.0]),
    max_step=st.sampled_from([None, 0.05, 0.4]),
)


def _field_problem(seed, m, hidden, scale, tol, t1, max_step):
    field = VectorField(m=m, hidden=hidden, seed=seed, scale=scale)
    z0 = np.random.default_rng(seed).normal(size=m)
    cfg = SolveConfig(rtol=tol, atol=tol * 1e-2, t1=t1, max_step=max_step)
    return field, z0, cfg


class TestStepperMatchesLoop:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(**_field_cases)
    def test_random_vector_fields(self, seed, m, hidden, scale, tol, t1, max_step):
        _assert_stepper_matches_loop(*_field_problem(seed, m, hidden, scale, tol, t1,
                                                     max_step))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(**_field_cases)
    def test_adjoint_augmented_field(self, seed, m, hidden, scale, tol, t1, max_step):
        field, z0, cfg = _field_problem(seed, m, hidden, scale, tol, t1, max_step)
        calls = []

        def recording(f, z_init, solve_cfg):
            calls.append((f, z_init.copy(), solve_cfg))
            return integrate(f, z_init, solve_cfg)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(node, "integrate", recording)
            node.adjoint_gradient(field, z0, cfg, np.ones(m))
        (_, _, _), (augmented, aug0, back_cfg) = calls   # forward flow, then the adjoint
        assert aug0.shape == (2 * m + field.n_params,)
        _assert_stepper_matches_loop(augmented, aug0, back_cfg)

    @pytest.mark.parametrize("seed,scale,tol", [(0, 1.0, 1e-6), (1, 3.0, 1e-9),
                                                (2, 3.0, 1e-3)])
    def test_fsal_evaluation_count(self, seed, scale, tol):
        field, z0, cfg = _field_problem(seed, 4, 8, scale, tol, 1.0, None)
        count = 0

        def counted(z, t):
            nonlocal count
            count += 1
            return field(z, t)

        res = integrate(counted, z0, cfg)
        assert count == 1 + 6 * (res.n_steps + res.n_rejected)


class TestIntegration:
    def test_zero_field_identity(self):
        z0 = np.array([1.5, -2.0, 0.25])
        res = integrate(lambda z, t: np.zeros(3), z0, SolveConfig())
        assert np.array_equal(res.z1, z0)

    def test_exponential_growth(self):
        z0 = np.array([1.0, -0.5])
        cfg = SolveConfig(rtol=1e-9, atol=1e-12)
        res = integrate(lambda z, t: z, z0, cfg)
        assert np.max(np.abs(res.z1 - np.e * z0)) < 1e-6

    def test_linear_field_matches_matrix_exponential(self):
        a_mat = np.array([[0.0, 1.2], [-1.2, -0.3]])
        z0 = np.array([0.7, -0.4])
        cfg = SolveConfig(rtol=1e-10, atol=1e-12)
        res = integrate(lambda z, t: a_mat @ z, z0, cfg)
        oracle = scipy.linalg.expm(a_mat) @ z0
        assert np.max(np.abs(res.z1 - oracle)) < 1e-6

    def test_rk4_fixed_step(self):
        z0 = np.array([1.0])
        cfg = SolveConfig(method="rk4", max_step=0.01)
        res = integrate(lambda z, t: z, z0, cfg)
        assert res.n_steps == 100
        assert abs(res.z1[0] - np.e) < 1e-8

    def test_tolerance_tightening_never_hurts(self):
        a_mat = np.array([[0.0, 2.0], [-2.0, -0.1]])
        z0 = np.array([1.0, 1.0])
        oracle = scipy.linalg.expm(a_mat) @ z0
        errors = []
        for scale in (1e-3, 1e-5, 1e-7, 1e-9):
            cfg = SolveConfig(rtol=scale, atol=scale * 1e-2)
            res = integrate(lambda z, t: a_mat @ z, z0, cfg)
            errors.append(np.linalg.norm(res.z1 - oracle))
        for worse, better in zip(errors, errors[1:]):
            assert better <= worse * (1.0 + 1e-9) + 1e-13

    def test_time_reversal_sanity(self):
        field = VectorField(m=3, hidden=8, seed=0)
        z0 = np.array([0.3, -0.2, 0.5])
        tol = 1e-8
        cfg = SolveConfig(rtol=tol, atol=tol * 1e-2)
        fwd = integrate(field, z0, cfg)
        back = integrate(lambda z, t: -field(z, cfg.t1 - t), fwd.z1, cfg)
        assert np.max(np.abs(back.z1 - z0)) < 10 * tol * 100

    def test_step_underflow_aborts_with_diagnosis(self):
        # discontinuous forcing keeps the error estimate above 1
        rng = np.random.default_rng(0)

        def nasty(z, t):
            return np.array([1e12 * (rng.random() - 0.5)])

        with pytest.raises(StepUnderflowError):
            integrate(nasty, np.array([0.0]), SolveConfig(rtol=1e-12, atol=1e-14,
                                                          max_steps=2000))

    def test_solver_settings_recorded(self):
        cfg = SolveConfig(rtol=1e-7, atol=1e-9, max_step=0.5)
        res = integrate(lambda z, t: -z, np.ones(2), cfg)
        log = res.config.as_log_dict()
        assert log["rtol"] == 1e-7 and log["max_step"] == 0.5
        assert res.n_steps >= 1 and res.n_rejected >= 0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            SolveConfig(t0=1.0, t1=0.0).validate()
        with pytest.raises(ValidationError):
            SolveConfig(rtol=0.0).validate()


class TestAdjoint:
    def test_zero_terminal_gradient(self):
        field = VectorField(m=3, hidden=6, seed=1)
        res = adjoint_gradient(field, np.array([0.1, 0.2, -0.1]),
                               SolveConfig(rtol=1e-8, atol=1e-10), np.zeros(3))
        assert np.allclose(res.grad_z0, 0.0)
        assert np.allclose(res.grad_params, 0.0)

    def test_linear_field_closed_form(self):
        # field f = A z realized with tanh approximately linear near zero:
        # use a purely linear callable and the analytic adjoint of a
        # quadratic loss L = 0.5 ||z1||^2: dL/dz0 = expm(A)^T z1
        a_mat = np.array([[0.0, 0.8, 0.0], [-0.8, 0.0, 0.0], [0.1, 0.0, -0.2]])

        class LinearField(VectorField):
            def forward(self, x):
                return a_mat @ x[:3], None

            def vjp(self, x, h, grad_y):
                grads = {key: np.zeros_like(arr) for key, arr in self.params.items()}
                return grads, np.append(a_mat.T @ grad_y, 0.0)

        field = LinearField(m=3, hidden=4, seed=2)
        z0 = np.array([0.5, -0.3, 0.2])
        cfg = SolveConfig(rtol=1e-11, atol=1e-13)
        fwd = integrate(field, z0, cfg)
        res = adjoint_gradient(field, z0, cfg, fwd.z1, forward_result=fwd)
        expm = scipy.linalg.expm(a_mat)
        oracle = expm.T @ (expm @ z0)
        assert np.max(np.abs(res.grad_z0 - oracle)) < 1e-5

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 5))
        field = VectorField(m=m, hidden=4, seed=seed, scale=0.8)
        z0 = rng.normal(size=m) * 0.5
        target = rng.normal(size=m)
        cfg = SolveConfig(rtol=1e-10, atol=1e-12)

        def loss_for(f, z_init):
            out = integrate(f, z_init, cfg).z1
            return 0.5 * float(np.sum((out - target) ** 2))

        fwd = integrate(field, z0, cfg)
        grad_z1 = fwd.z1 - target
        res = adjoint_gradient(field, z0, cfg, grad_z1, forward_result=fwd)

        eps = 1e-5
        fd_z0 = np.empty(m)
        for j in range(m):
            dz = np.zeros(m)
            dz[j] = eps
            fd_z0[j] = (loss_for(field, z0 + dz) - loss_for(field, z0 - dz)) / (2 * eps)
        assert (np.linalg.norm(res.grad_z0 - fd_z0)
                / max(np.linalg.norm(fd_z0), 1e-12)) < 1e-4

        params = field.params_vector()
        fd_p = np.empty(params.size)
        for j in range(params.size):
            dp = np.zeros(params.size)
            dp[j] = eps
            fd_p[j] = (loss_for(field.with_params(params + dp), z0)
                       - loss_for(field.with_params(params - dp), z0)) / (2 * eps)
        assert (np.linalg.norm(res.grad_params - fd_p)
                / max(np.linalg.norm(fd_p), 1e-12)) < 1e-4

    def test_params_roundtrip(self):
        field = VectorField(m=4, hidden=5, seed=6)
        vec = field.params_vector()
        clone = field.with_params(vec)
        assert np.array_equal(clone.params["w1"], field.params["w1"])
        assert np.array_equal(clone.params["b2"], field.params["b2"])
        assert vec.size == field.n_params
