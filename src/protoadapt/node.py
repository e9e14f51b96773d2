"""Continuous-time blocks: forward integration and adjoint-based gradients.

The vector field is a compact two-layer tanh map with time appended as an
extra input coordinate. Integration offers fixed-step RK4 and an embedded
Dormand-Prince 5(4) pair with per-step error control; the pair is "first
same as last" (FSAL), so the field value at an accepted state starts the next
step and every step after the first costs six field evaluations. Step counts,
rejected steps, tolerances, and stiffness flags are reported for the run log.
Gradients come from backward co-integration of the state, the co-state, and
the accumulated parameter gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tanhmap import TanhMap, flatten
from .util import ValidationError, check_finite, require


class StepUnderflowError(RuntimeError):
    """Adaptive step size collapsed below the machine-relative floor."""


class VectorField(TanhMap):
    """f(z, t) = W2 tanh(W1 [z; t] + b1) + b2, bounded weights by construction."""

    def __init__(self, m: int, hidden: int = 16, seed: int = 0, scale: float = 1.0):
        super().__init__(m + 1, hidden, m, seed, "vector-field", scale)

    @property
    def m(self) -> int:
        return self.params["w2"].shape[0]

    def __call__(self, z: np.ndarray, t: float) -> np.ndarray:
        return self.forward(np.concatenate([z, [t]]))[0]


@dataclass
class SolveConfig:
    method: str = "rk45"      # or "rk4"
    rtol: float = 1e-6
    atol: float = 1e-9
    max_step: float | None = None
    t0: float = 0.0
    t1: float = 1.0
    max_steps: int = 100_000

    def validate(self) -> None:
        require(self.method in ("rk4", "rk45"), "method must be rk4 or rk45")
        require(self.rtol > 0 and self.atol > 0, "tolerances must be positive")
        require(self.t0 < self.t1, "need t0 < t1")
        require(self.max_step is None or self.max_step > 0, "max_step must be positive")

    def as_log_dict(self) -> dict:
        return {"method": self.method, "rtol": self.rtol, "atol": self.atol,
                "max_step": self.max_step, "t0": self.t0, "t1": self.t1}


@dataclass
class IntegrationResult:
    z1: np.ndarray
    n_steps: int
    n_rejected: int
    stiff: bool
    config: SolveConfig


# Dormand-Prince 5(4) tableau. Row 6 of A is the fifth-order solution B5, so
# the seventh stage point is the accepted state and its field value is the
# next step's first stage ("first same as last").
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
_DP_E = _DP_A[6] - _DP_B4   # B5 - B4: weights of the embedded error estimate
_EPS = float(np.finfo(float).eps)


def _rk4_step(f, z, t, h):
    k1 = f(z, t)
    k2 = f(z + 0.5 * h * k1, t + 0.5 * h)
    k3 = f(z + 0.5 * h * k2, t + 0.5 * h)
    k4 = f(z + h * k3, t + h)
    return z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _integrate_rk4(f, z0, cfg):
    span = cfg.t1 - cfg.t0
    max_step = cfg.max_step if cfg.max_step is not None else span / 16.0
    n = max(1, int(np.ceil(span / max_step)))
    h = span / n
    z, t = z0.copy(), cfg.t0
    for _ in range(n):
        z = _rk4_step(f, z, t, h)
        t += h
    return z, n, 0, False


def _integrate_rk45(f, z0, cfg):
    span = cfg.t1 - cfg.t0
    max_step = cfg.max_step if cfg.max_step is not None else span
    t, z = cfg.t0, z0.copy()
    h = min(max_step, span / 10.0)
    n_steps = n_rejected = 0
    stiff = False
    reject_streak = 0
    ks = np.empty((7, z.shape[0]))
    ks[0] = f(z, t)
    while t < cfg.t1 - 1e-14 * max(1.0, abs(cfg.t1)):
        if n_steps + n_rejected > cfg.max_steps:
            raise StepUnderflowError("step budget exhausted; system looks stiff")
        floor = 16.0 * _EPS * max(abs(t), 1.0)
        if h < floor:
            raise StepUnderflowError(
                f"step size {h:.3e} collapsed below the machine floor at t={t:.6f}; "
                "stiffness diagnosis: persistent error-control rejections")
        h = min(h, cfg.t1 - t, max_step)
        for i in range(1, 7):
            z5 = z + h * (_DP_A[i, :i] @ ks[:i])   # after stage 6: the fifth-order step
            ks[i] = f(z5, t + _DP_C[i] * h)
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(z), np.abs(z5))
        scaled_err = h * (_DP_E @ ks) / scale
        err = math.sqrt(scaled_err @ scaled_err / scaled_err.shape[0])
        if err <= 1.0:
            t += h
            z = z5
            ks[0] = ks[6]
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


def integrate(field, z0, cfg: SolveConfig) -> IntegrationResult:
    """Numerical flow of dz/dt = f(z, t) from t0 to t1.

    Adaptive mode controls the local error against (rtol, atol) and reports
    accepted and rejected step counts; a persistent step-size collapse sets
    the stiffness flag, and underflow below the machine-relative floor
    aborts with a stiffness diagnosis.
    """
    cfg.validate()
    z0 = check_finite(z0, "initial state")
    if cfg.method == "rk4":
        z1, n_steps, n_rej, stiff = _integrate_rk4(field, z0, cfg)
    else:
        z1, n_steps, n_rej, stiff = _integrate_rk45(field, z0, cfg)
    if not np.all(np.isfinite(z1)):
        raise ValidationError("integration produced non-finite state")
    return IntegrationResult(z1=z1, n_steps=n_steps, n_rejected=n_rej,
                             stiff=stiff, config=cfg)


@dataclass
class AdjointResult:
    grad_z0: np.ndarray
    grad_params: np.ndarray
    forward: IntegrationResult
    backward_steps: int


def adjoint_gradient(field: VectorField, z0, cfg: SolveConfig,
                     grad_z1, forward_result: IntegrationResult | None = None) -> AdjointResult:
    """Gradients of a terminal loss through the flow via the adjoint system.

    Co-integrates (z, a, g) backward in time: the state retraces the flow,
    the co-state follows da/dt = -(df/dz)^T a from a(t1) = dL/dz(t1), and g
    accumulates the parameter coupling. Each stage takes f, (df/dz)^T a and
    (df/dparams)^T a from one forward pass and one VJP of the field's map.
    Returns dL/dz0 = a(t0) and dL/dparams.
    """
    grad_z1 = check_finite(grad_z1, "terminal loss gradient")
    fwd = forward_result if forward_result is not None else integrate(field, z0, cfg)
    m, n_p = field.m, field.n_params
    span = cfg.t1 - cfg.t0

    def backward_dynamics(aug, tau):
        zt = np.concatenate([aug[:m], [cfg.t1 - tau]])
        y, h = field.forward(zt)
        grads, g_in = field.vjp(zt, h, aug[m:2 * m])
        return np.concatenate([-y, g_in[:m], flatten(grads)])

    aug0 = np.concatenate([fwd.z1, grad_z1, np.zeros(n_p)])
    bcfg = SolveConfig(method=cfg.method, rtol=cfg.rtol, atol=cfg.atol,
                       max_step=cfg.max_step, t0=0.0, t1=span,
                       max_steps=cfg.max_steps)
    try:
        back = integrate(backward_dynamics, aug0, bcfg)
    except (StepUnderflowError, ValidationError) as exc:
        raise RuntimeError(
            f"backward adjoint solve failed ({exc}); forward stats: "
            f"steps={fwd.n_steps}, rejected={fwd.n_rejected}, stiff={fwd.stiff}"
        ) from exc
    grad_z0 = back.z1[m:2 * m]
    grad_params = back.z1[2 * m:]
    if not (np.all(np.isfinite(grad_z0)) and np.all(np.isfinite(grad_params))):
        raise ValidationError("adjoint produced non-finite gradients")
    return AdjointResult(grad_z0=grad_z0, grad_params=grad_params,
                         forward=fwd, backward_steps=back.n_steps)
