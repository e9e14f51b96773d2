"""Constrained proximal retrieval: solver, top-r sparsity, outer objective, training.

The solver runs accelerated proximal gradient with a monotone restart (any
step that would increase the objective is replaced by a plain descent step
from the previous iterate, so the recorded objective trace never increases).
Training differentiates through the unrolled solver steps with a recorded
tape and treats the top-r mask straight-through. ``r_keep`` alone sets the
sparsity: the top-r rule keeps every activation at r_keep >= K.

There are two paths. Training, validation, test prediction and the penalty
sweep run blocks of ``Episodes`` (each task's descriptor, support adapter and
query set in prototype coordinates, built once, one query size per block):
one warp and network pass over T rows and ``solve_block`` in Gram form
(``_episode_block``), the outer objective on the block (``outer_terms``) and,
in training, ``backward_block``.
``solve_block`` takes one ``ProximalConfig`` (lam and gamma one value or one
per row) and returns one ``BlockSolution`` of arrays. One-task calls
(``predict_task``) run the warp, the network, ``solve_proximal`` and the
top-r rule directly; ``solve_proximal`` works in Gram form too, on length-K
vectors. The tests check it against the reconstruction-form loop kept there as
its oracle, and the block code against it and ``backward_through_solve``. Both
paths share one row-wise softmax, softmax VJP, top-r rule and support-size
gamma rule (``_at_support_size``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .metrics import rank_auc_or_nan
from .tanhmap import TanhMap
from .util import ValidationError, check_finite, child_rng, require, sigmoid

MAX_UNROLL = 20  # training-time unroll cap
# a config's gamma is the prior's weight at GAMMA_REF_SIZE support examples; it shrinks
# as evidence grows, so a task solves with gamma * GAMMA_REF_SIZE / n_support
GAMMA_REF_SIZE = 5


def softmax(v: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    v = np.asarray(v, dtype=float)
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_vjp(p: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The gradient in the logits from ``grad`` in p = softmax(logits), along the last axis."""
    return p * (grad - (p * grad).sum(axis=-1, keepdims=True))


def _at_support_size(pcfg, n_support):
    """``pcfg`` with gamma * GAMMA_REF_SIZE / max(n, 1): n one support size, or one per row.

    For a count, n + (n < 1) is max(n, 1); one task's gamma stays a Python float.
    """
    return replace(pcfg, gamma=pcfg.gamma * GAMMA_REF_SIZE / (n_support + (n_support < 1)))


@dataclass
class ProximalConfig:
    lam: float | np.ndarray = 1e-4     # lam and gamma: one value, or one per solve_block row
    gamma: float | np.ndarray = 0.1
    t_prox: int = 10
    tol: float = 1e-9

    def validate(self) -> None:
        require(self.lam >= 0.0, "lam must be nonnegative")
        require(self.gamma >= 0.0, "gamma must be nonnegative")
        require(1 <= self.t_prox <= MAX_UNROLL, f"t_prox must lie in [1, {MAX_UNROLL}]")
        require(self.tol > 0.0, "tol must be positive")


@dataclass
class RetrievalSolution:
    w: np.ndarray
    w_tilde: np.ndarray | None
    active_set: list
    objective_trace: list
    kkt_residual: float
    iterations: int
    restarts: int
    converged: bool


@dataclass
class _SolveTape:
    masks: list = field(default_factory=list)
    betas: list = field(default_factory=list)
    restarts: list = field(default_factory=list)
    p: np.ndarray | None = None
    tau: float = 0.0
    gamma: float = 0.0


def solve_proximal(theta_hat, memory, v, cfg: ProximalConfig,
                   budget: int | None = None, record_tape: bool = False):
    """Accelerated proximal gradient for the nonnegative sparse retrieval fit.

    Minimizes 0.5 ||M^T w - theta_hat||^2 + lam ||w||_1
    + gamma ||w - softmax(v)||^2 over w >= 0. The proximal map is a soft
    threshold by lam * step followed by a clamp to the nonnegative orthant.
    Stops at the prox-gradient KKT residual or after ``budget`` iterations
    (defaults to cfg.t_prox, the training unroll length; evaluation callers
    may pass a larger budget to solve to tolerance).

    Gram form, on length-K vectors: with H = G + 2 gamma I (G = M M^T, cached
    on the memory) and c = lam - M theta_hat - 2 gamma p, the objective on
    w >= 0 is 0.5 w H w^T + c w^T + 0.5 ||theta_hat||^2 + gamma ||p||^2 and the
    prox step from x is max(x (I - tau H) - tau c, 0). The tests keep the
    reconstruction-form loop as the oracle; the two round differently.

    Returns the pre-threshold solution; with ``record_tape`` also returns
    the iteration tape used for unrolled differentiation.
    """
    cfg.validate()
    memory.require_frozen()
    theta_hat = check_finite(theta_hat, "theta_hat")
    v = check_finite(v, "retrieval logits")
    require(v.shape[0] == memory.K, "logit length must equal K")
    p = softmax(v)

    gamma = cfg.gamma
    lipschitz = memory.operator_norm() ** 2 + 2.0 * gamma
    tau = 1.0 / lipschitz if lipschitz > 0 else 1.0
    kkt_scale = max(tau, 1e-300)
    steps = budget if budget is not None else cfg.t_prox
    eye = np.eye(memory.K)
    hessian = memory.gram() + 2.0 * gamma * eye
    linear = cfg.lam - memory.M @ theta_hat - 2.0 * gamma * p
    const = 0.5 * float(theta_hat @ theta_hat) + gamma * float(p @ p)
    half_hessian, step_map, tau_linear = 0.5 * hessian, eye - tau * hessian, tau * linear

    def objective(x):
        return float((x @ half_hessian + linear) @ x) + const

    def prox_step(x):
        """Prox-gradient step from x and the objective at its result."""
        w_next = np.maximum(x @ step_map - tau_linear, 0.0)
        return w_next, objective(w_next)

    w = p.copy()
    y = w
    t_mom = 1.0
    f_last = objective(w)
    trace = [f_last]
    tape = _SolveTape(p=p, tau=tau, gamma=gamma)
    restarts = 0
    kkt = np.inf
    converged = False

    for it in range(steps):
        w_new, f_new = prox_step(y)
        restarted = f_new > f_last + 1e-15
        if restarted:
            # monotone restart: plain descent step from the last accepted point
            restarts += 1
            w_new, f_new = prox_step(w)
            t_mom = 1.0
        if not math.isfinite(f_new):
            raise ValidationError(f"solver objective diverged at iteration {it}; trace={trace}")

        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom**2))
        beta = (t_mom - 1.0) / t_next
        if record_tape:
            tape.masks.append(w_new > 0.0)
            tape.restarts.append(restarted)
            tape.betas.append(beta)

        step = w_new - w
        kkt = math.sqrt(step @ step) / kkt_scale
        w = w_new
        y = w + beta * step
        t_mom = t_next
        f_last = f_new
        trace.append(f_new)
        if kkt <= cfg.tol:
            converged = True
            break

    solution = RetrievalSolution(
        w=w, w_tilde=None, active_set=[], objective_trace=trace, kkt_residual=kkt,
        iterations=len(trace) - 1, restarts=restarts, converged=converged,
    )
    return (solution, tape) if record_tape else solution


def backward_through_solve(tape: _SolveTape, memory, grad_w_final: np.ndarray) -> np.ndarray:
    """Vector-Jacobian product of the unrolled solver, returning dL/dv.

    Walks the recorded iterations in reverse. Branches taken in the forward
    pass (momentum coefficients, restarts, prox masks) are treated as fixed.
    """
    m_rows = memory.M
    tau, gamma, p = tape.tau, tape.gamma, tape.p
    n_steps = len(tape.masks)
    grads_w = [np.zeros_like(grad_w_final) for _ in range(n_steps + 1)]
    grads_w[n_steps] = grad_w_final.copy()
    gp = np.zeros_like(grad_w_final)

    for k in range(n_steps, 0, -1):
        gz = np.where(tape.masks[k - 1], grads_w[k], 0.0)
        # z = y - tau * ((M M^T + 2 gamma I) y - M theta_hat - 2 gamma p)
        gy = gz - tau * (m_rows @ (gz @ m_rows) + 2.0 * gamma * gz)
        gp += tau * 2.0 * gamma * gz
        if tape.restarts[k - 1] or k == 1:
            grads_w[k - 1] += gy
        else:
            beta = tape.betas[k - 2]
            grads_w[k - 1] += (1.0 + beta) * gy
            if k >= 2:
                grads_w[k - 2] -= beta * gy
    gp += grads_w[0]
    return softmax_vjp(p, gp)


def hard_top_r(w: np.ndarray, r: int) -> np.ndarray:
    """Zero all but the r largest activations of each row (last axis), ties to the lowest index."""
    require(r >= 1, "r must be at least 1")
    out = np.array(w, dtype=float)
    place = np.argsort(-out, axis=-1, kind="stable").argsort(axis=-1)  # 0 for a row's largest
    out[place >= r] = 0.0
    return out


def compose_adapter(memory, w_tilde: np.ndarray) -> np.ndarray:
    w_tilde = check_finite(w_tilde, "activations")
    require(w_tilde.shape[0] == memory.K, "activation length must equal K")
    return w_tilde @ memory.M


# ---------------------------------------------------------------------------
# Block path: the solve and its backward pass on T tasks at once
# ---------------------------------------------------------------------------

@dataclass
class BlockSolution:
    """A block solve, one row per task; ``record_tape`` keeps the step records.

    Past a row's ``iterations``, its trace and step records are padding, which
    ``backward_block`` treats as the identity.
    """

    w: np.ndarray                # (T, K) solutions before the top-r rule
    w_tilde: np.ndarray          # (T, K) as ``predict_task`` sets it
    iterations: np.ndarray       # (T,) steps each row took
    restarts: np.ndarray         # (T,)
    converged: np.ndarray        # (T,) stopped at the KKT tolerance
    kkt_residual: np.ndarray     # (T,)
    objective_trace: np.ndarray  # (steps + 1, T)
    p: np.ndarray                # (T, K) softmax of the logits
    tau: np.ndarray              # (T,) step sizes
    gamma: np.ndarray            # (T,)
    masks: np.ndarray | None = None      # (steps, T, K) prox masks
    restarted: np.ndarray | None = None  # (steps, T)
    betas: np.ndarray | None = None      # (steps, T) momentum coefficients


def solve_block(theta_hats, memory, logits, cfg: ProximalConfig, r_keep: int,
                budget: int | None = None, record_tape: bool = False) -> BlockSolution:
    """``solve_proximal`` and the top-r rule for T tasks at once, on a (T x K) block.

    Row i is task i's problem (theta_hats[i], logits[i]) with lam and gamma
    ``cfg``'s, each one value or one per row, hence its own step size;
    ``t_prox`` and ``tol`` are shared. The smooth term takes Gram form,
    0.5 w G w^T - b_i w^T + 0.5 ||theta_hat_i||^2 with the memory's cached
    G = M M^T and b_i = M theta_hat_i, so one product with G per step serves
    every row. Each row has its own momentum, monotone restart and stop at the
    KKT tolerance; a stopped row keeps the results of its last step. Gram form
    rounds differently from ``solve_proximal``, so a near-tie of the monotone
    test can go the other way there.

    w_tilde is ``hard_top_r`` of each row: all of w at r_keep >= K.
    """
    memory.require_frozen()
    theta_hats = check_finite(theta_hats, "theta_hat")
    logits = check_finite(logits, "retrieval logits")
    n_rows, k = len(logits), memory.K
    require(n_rows >= 1, "the block has no tasks")
    require(logits.shape == (n_rows, k), "logits must be one length-K row per task")
    require(theta_hats.shape == (n_rows, memory.d_theta),
            "theta_hats must be one length-d_theta row per task")
    p = softmax(logits)

    gram = memory.gram()
    lam, gamma = (np.broadcast_to(np.asarray(value, dtype=float), (n_rows,))
                  for value in (cfg.lam, cfg.gamma))
    replace(cfg, lam=float(lam.min()), gamma=float(gamma.min())).validate()  # checks every row
    lipschitz = memory.operator_norm() ** 2 + 2.0 * gamma
    tau = 1.0 / np.where(lipschitz > 0, lipschitz, 1.0)
    kkt_scale = np.maximum(tau, 1e-300)
    tau_col, two_gamma_col = tau[:, None], 2.0 * gamma[:, None]
    linear = lam[:, None] - theta_hats @ memory.M.T     # lam - b: w >= 0, so lam ||w||_1 is linear
    const = 0.5 * (theta_hats**2).sum(axis=1)
    steps = budget if budget is not None else cfg.t_prox

    def objective(x, gx):
        return (((0.5 * gx + linear) * x).sum(axis=1) + const
                + gamma * ((x - p) ** 2).sum(axis=1))

    def prox_step(x, gx):
        return np.maximum(x - tau_col * (gx + linear + two_gamma_col * (x - p)), 0.0)

    w = p.copy()
    gw = w @ gram
    y, gy = w, gw
    t_mom = np.ones(n_rows)
    f_last = objective(w, gw)
    trace = [f_last]
    masks, restart_flags, betas = [], [], []
    live = np.ones(n_rows, dtype=bool)      # rows still iterating
    iterations = np.zeros(n_rows, dtype=int)
    restarts = np.zeros(n_rows, dtype=int)
    kkt = np.full(n_rows, np.inf)
    w_final = np.empty_like(w)

    for it in range(steps):
        w_new = prox_step(y, gy)
        gw_new = w_new @ gram
        f_new = objective(w_new, gw_new)
        restarted = live & (f_new > f_last + 1e-15)
        if restarted.any():
            # monotone restart of those rows: plain descent step from w
            w_plain = prox_step(w, gw)
            gw_plain = w_plain @ gram
            rows = restarted[:, None]
            w_new = np.where(rows, w_plain, w_new)
            gw_new = np.where(rows, gw_plain, gw_new)
            f_new = np.where(restarted, objective(w_plain, gw_plain), f_new)
            t_mom = np.where(restarted, 1.0, t_mom)
            restarts += restarted
        if not np.isfinite(f_new).all():
            raise ValidationError(f"solver objective diverged at iteration {it}")

        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom**2))
        beta = (t_mom - 1.0) / t_next
        if record_tape:
            masks.append(w_new > 0.0)
            restart_flags.append(restarted)
            betas.append(beta)

        step = w_new - w
        kkt_step = np.sqrt((step * step).sum(axis=1)) / kkt_scale
        kkt = np.where(live, kkt_step, kkt)
        iterations += live
        trace.append(f_new)
        stop = live & (kkt_step <= cfg.tol)
        if stop.any():
            w_final[stop] = w_new[stop]
            live = live & ~stop
            if not live.any():
                break
        w, gw = w_new, gw_new
        y = w + beta[:, None] * step
        gy = y @ gram
        t_mom = t_next
        f_last = f_new
    w_final[live] = w[live]

    solution = BlockSolution(w=w_final, w_tilde=hard_top_r(w_final, r_keep),
                             iterations=iterations, restarts=restarts, converged=~live,
                             kkt_residual=kkt, objective_trace=np.array(trace), p=p, tau=tau,
                             gamma=gamma)
    if record_tape:
        n_steps = len(trace) - 1
        solution.masks = np.array(masks).reshape(n_steps, n_rows, k)
        solution.restarted = np.array(restart_flags).reshape(n_steps, n_rows)
        solution.betas = np.array(betas).reshape(n_steps, n_rows)
    return solution


def backward_block(block: BlockSolution, memory, grad_w: np.ndarray) -> np.ndarray:
    """``backward_through_solve`` for a block: dL/dv, one row per task.

    Walks the step records of a ``record_tape`` block solve in reverse with
    every forward branch fixed. A row that stopped before the block's last
    step treats its later steps as the identity, so its gradient reaches its
    own last step unchanged.
    """
    require(block.masks is not None, "the block was solved without record_tape")
    gram = memory.gram()
    n_steps = block.masks.shape[0]
    tau, gamma = block.tau[:, None], block.gamma[:, None]
    grads = np.zeros((n_steps + 1,) + grad_w.shape)
    grads[n_steps] = grad_w
    gp = np.zeros_like(grad_w)

    for k in range(n_steps, 0, -1):
        live = k <= block.iterations
        live_rows = live[:, None]
        g = grads[k]
        gz = np.where(block.masks[k - 1], g, 0.0)
        # z = y - tau * ((G + 2 gamma I) y - b - 2 gamma p), per row
        gy = gz - tau * (gz @ gram + 2.0 * gamma * gz)
        gp += np.where(live_rows, tau * 2.0 * gamma * gz, 0.0)
        moved = np.where(live_rows, gy, g)
        if k == 1:
            grads[0] += moved
        else:
            beta = np.where(live & ~block.restarted[k - 1], block.betas[k - 2], 0.0)[:, None]
            grads[k - 1] += (1.0 + beta) * moved
            grads[k - 2] -= beta * moved
    gp += grads[0]
    return softmax_vjp(block.p, gp)


# ---------------------------------------------------------------------------
# Phase-2 inputs and the outer objective
# ---------------------------------------------------------------------------

@dataclass
class Episodes:
    """Phase-2 inputs, one row per task; ``Episodes.of`` maps and checks each query set once.

    Every task of a block has the same query size n_q, so its query sets are one array.
    """

    task_ids: list
    z: np.ndarray           # (T, d_z) descriptor values
    theta_hats: np.ndarray  # (T, d_theta) support adapters
    n_support: np.ndarray   # (T,)
    coords: np.ndarray      # (T, n_q, K): task i's P_i = feature_map(x_q) M^T
    labels: np.ndarray      # (T, n_q) query_y

    @classmethod
    def of(cls, tasks, z, theta_hats, memory, feature_map) -> "Episodes":
        mapped = {}  # a task at several support sizes keeps one query array: map it once
        for x in (task.query_x for task in tasks):
            if id(x) not in mapped:
                mapped[id(x)] = check_finite(feature_map(x) @ memory.M.T, "query features")
        coords = [mapped[id(task.query_x)] for task in tasks]
        sizes = sorted({len(rows) for rows in coords})
        require(sizes[0] >= 1, "query is empty")
        require(len(sizes) == 1, f"a block needs one query size for all its tasks, got {sizes}")
        return cls([task.task_id for task in tasks], z, theta_hats,
                   np.array([task.n_support for task in tasks]), np.stack(coords),
                   np.array([task.query_y for task in tasks]))

    def take(self, rows) -> "Episodes":
        """The episodes at ``rows``, in that order (a minibatch)."""
        return Episodes([self.task_ids[i] for i in rows], self.z[rows], self.theta_hats[rows],
                        self.n_support[rows], self.coords[rows], self.labels[rows])


def outer_terms(episodes: Episodes, w_tilde):
    """The outer objective's terms for a block of tasks, in prototype coordinates.

    Task i's query logits are P_i w_tilde[i]; its cross-entropy and gradient
    are means over its n_q query rows.

    Returns the pooled query probabilities and, one entry or row per task, the
    query cross-entropy (probabilities clipped to [1e-12, 1 - 1e-12]),
    ||w_tilde||_1, the entropy of w_tilde / ||w_tilde||_1 (0 log 0 = 0), and
    the gradients in w_tilde of the cross-entropy, P_i^T (p - y) / n_q, and of
    the entropy.
    """
    coords, labels = episodes.coords, episodes.labels
    probs = sigmoid(np.einsum("tnk,tk->tn", coords, w_tilde))
    p = np.clip(probs, 1e-12, 1.0 - 1e-12)
    ce = -(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)).mean(axis=1)
    grad_ce = np.einsum("tn,tnk->tk", probs - labels, coords) / labels.shape[1]
    mass = w_tilde.sum(axis=1, keepdims=True)
    mass = np.where(mass > 0.0, mass, 1.0)
    u = w_tilde / mass
    pos = u > 0.0
    log_u = np.log(np.where(pos, u, 1.0))
    entropy = -(u * log_u).sum(axis=1)
    grad_entropy = np.where(pos, (-log_u - entropy[:, None]) / mass, 0.0)
    return probs.ravel(), ce, np.abs(w_tilde).sum(axis=1), entropy, grad_ce, grad_entropy


# ---------------------------------------------------------------------------
# Retrieval network and optimizer
# ---------------------------------------------------------------------------

class RetrievalNet(TanhMap):
    """Two-layer tanh map from descriptor space to K prototype logits, 32 wide."""

    def __init__(self, d_z: int, k: int, seed: int = 0):
        super().__init__(d_z, 32, k, seed, "retrieval-net")

    def snapshot(self) -> dict:
        return {k: v.copy() for k, v in self.params.items()}


class Adam:
    """Minimal Adam over a dict of parameter arrays: beta1 0.9, beta2 0.999, eps 1e-8."""

    def __init__(self, params: dict, lr: float = 1e-3):
        self.params, self.lr = params, lr
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict) -> None:
        self.t += 1
        for key, g in grads.items():
            self.m[key] = 0.9 * self.m[key] + (1 - 0.9) * g
            self.v[key] = 0.999 * self.v[key] + (1 - 0.999) * g * g
            m_hat = self.m[key] / (1 - 0.9**self.t)
            v_hat = self.v[key] / (1 - 0.999**self.t)
            self.params[key] -= self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    epochs: int = 300
    batch_size: int = 100
    lr: float = 1e-3
    weight_decay: float = 0.0
    patience: int = 40
    jaccard_min: float = 0.9
    seed: int = 0
    r_keep: int = 2
    eta: float = 0.01


@dataclass
class TrainHistoryRow:
    epoch: int
    train_loss: float
    val_auc: float
    jaccard: float
    # work counters over the epoch's training episodes
    solver_iterations: int
    solver_restarts: int
    converged_frac: float
    mean_active_size: float


@dataclass
class TrainResult:
    net: RetrievalNet
    history: list
    stopped_epoch: int


def predict_task(task, memory, net, descriptor, theta_hat, pcfg, r_keep,
                 feature_map, transform=None, hard_threshold=True):
    """Query probabilities and the solution for one task.

    Warp of the descriptor vector (``build_descriptor``), net logits,
    ``solve_proximal`` with ``pcfg`` at the task's support size
    (``_at_support_size``), then w_tilde: the solution's top r_keep.
    ``hard_threshold=False`` is r_keep = K: w_tilde keeps all of w.
    """
    z = descriptor if transform is None else transform.forward(descriptor)[0]
    solution = solve_proximal(theta_hat, memory, net.forward(z)[0],
                              _at_support_size(pcfg, task.n_support))
    solution.w_tilde = hard_top_r(solution.w, r_keep if hard_threshold else memory.K)
    solution.active_set = list(np.nonzero(solution.w_tilde)[0])
    probs = sigmoid(feature_map(task.query_x) @ compose_adapter(memory, solution.w_tilde))
    return probs, solution


def _episode_block(episodes: Episodes, memory, net, pcfg, r_keep, transform=None,
                   record_tape=False):
    """The phase-2 step for a block of episodes: one warp, one net and one block solve.

    Each task solves with ``pcfg`` at its support size (``_at_support_size``).
    Returns the ``BlockSolution`` and the backward pass's states (z_raw, warp
    hidden, z, net hidden), one row per task.
    """
    z_raw = episodes.z
    z, warp_hidden = transform.forward(z_raw) if transform is not None else (z_raw, None)
    logits, net_hidden = net.forward(z)
    solution = solve_block(episodes.theta_hats, memory, logits,
                           _at_support_size(pcfg, episodes.n_support), r_keep,
                           record_tape=record_tape)
    return solution, (z_raw, warp_hidden, z, net_hidden)


def predict_tasks(episodes: Episodes, memory, net, pcfg, r_keep, transform=None):
    """Pooled query probabilities and labels over a block, plus the block's solution.

    ``predict_task`` is the one-task path.
    """
    solution, _ = _episode_block(episodes, memory, net, pcfg, r_keep, transform=transform)
    probs = sigmoid(np.einsum("tnk,tk->tn", episodes.coords, solution.w_tilde))
    return probs.ravel(), episodes.labels.ravel(), solution


def minibatch_gradients(episodes: Episodes, memory, net, pcfg, r_keep, eta, transform=None):
    """The gradient one training step takes: of the mean outer loss over ``episodes``.

    One taped block episode, ``outer_terms`` on the block, ``backward_block``,
    then one VJP through the network and one through the warp; the top-r mask
    passes the gradient straight through, and the l1 term's gradient is taken
    on the active set. Returns the per-task losses (query cross-entropy plus
    lam times l1 plus eta times entropy), the block's solution and the
    gradients keyed ("net", key) and ("warp", key).
    """
    solution, (z_raw, warp_hidden, z, net_hidden) = _episode_block(
        episodes, memory, net, pcfg, r_keep, transform=transform, record_tape=True)
    w_tilde, lam = solution.w_tilde, pcfg.lam
    _, ce, l1, entropy, grad_ce, grad_entropy = outer_terms(episodes, w_tilde)
    losses = ce + lam * l1 + eta * entropy
    grad_w = grad_ce + lam * (w_tilde > 0.0) + eta * grad_entropy
    grad_v = backward_block(solution, memory, grad_w / len(episodes.task_ids))
    net_grads, grad_z = net.vjp(z, net_hidden, grad_v)
    grads = {("net", key): grad for key, grad in net_grads.items()}
    if transform is not None:
        warp_grads, _ = transform.vjp(z_raw, warp_hidden, grad_z)
        grads.update({("warp", key): grad for key, grad in warp_grads.items()})
    return losses, solution, grads


def train_retrieval(train: Episodes, memory, pcfg, tcfg: TrainConfig, val: Episodes = None,
                    transform=None) -> TrainResult:
    """Unrolled training of the retrieval network on the outer objective.

    Per minibatch of ``train``'s rows, ``minibatch_gradients``: one block
    episode (descriptor warp, net, taped solve, top ``tcfg.r_keep`` rule,
    which keeps every activation at r_keep >= K), the outer objective on the block's query
    coordinates (``outer_terms``), and one backward pass through every solver
    iteration, the network and the warp; the top-r mask passes the gradient
    straight through. One Adam step per minibatch moves the network's and the
    warp's arrays together; weight decay applies to the network's only.
    Validation takes the same block step untaped on ``val``. Early stopping
    combines a validation-score plateau (patience epochs without an
    improvement above 1e-4) with an active-set stability requirement (Jaccard
    overlap between consecutive epochs).
    """
    memory.require_frozen()
    require(len(train.task_ids) >= 1, "no training tasks")
    net = RetrievalNet(d_z=train.z.shape[1], k=memory.K, seed=tcfg.seed)
    maps = {"net": net} if transform is None else {"net": net, "warp": transform}
    params = {(name, key): arr for name, tmap in maps.items()
              for key, arr in tmap.params.items()}
    opt = Adam(params, lr=tcfg.lr)

    history: list[TrainHistoryRow] = []
    best_auc, best_params, since_best = -np.inf, net.snapshot(), 0
    prev_active = None

    for epoch in range(tcfg.epochs):
        rng = child_rng(tcfg.seed, "epochs", epoch)
        order = rng.permutation(len(train.task_ids))
        losses, blocks = [], []
        for start in range(0, len(order), tcfg.batch_size):
            batch_losses, solution, grads = minibatch_gradients(
                train.take(order[start:start + tcfg.batch_size]), memory, net, pcfg,
                tcfg.r_keep, tcfg.eta, transform=transform)
            losses.extend(batch_losses)
            blocks.append(solution)
            if tcfg.weight_decay:
                for key, arr in net.params.items():
                    grads["net", key] += tcfg.weight_decay * arr
            opt.step(grads)

        val_auc, jac = np.nan, 1.0
        if val is not None:
            probs, labels, solution = predict_tasks(val, memory, net, pcfg, tcfg.r_keep,
                                                    transform=transform)
            val_auc = rank_auc_or_nan(probs, labels)
            active = solution.w_tilde != 0.0
            if prev_active is not None:
                # per-task Jaccard overlap of the active sets; two empty sets overlap fully
                union = (active | prev_active).sum(axis=1)
                overlap = (active & prev_active).sum(axis=1) / np.maximum(union, 1)
                jac = float(np.mean(np.where(union > 0, overlap, 1.0)))
            prev_active = active
            if val_auc > best_auc + 1e-4:
                best_auc, best_params, since_best = val_auc, net.snapshot(), 0
            else:
                since_best += 1
        history.append(TrainHistoryRow(
            epoch=epoch, train_loss=float(np.mean(losses)), val_auc=float(val_auc),
            jaccard=jac, solver_iterations=int(sum(b.iterations.sum() for b in blocks)),
            solver_restarts=int(sum(b.restarts.sum() for b in blocks)),
            converged_frac=sum(int(b.converged.sum()) for b in blocks) / len(order),
            mean_active_size=sum(np.count_nonzero(b.w_tilde) for b in blocks) / len(order)))
        if val is not None and since_best >= tcfg.patience and jac >= tcfg.jaccard_min:
            break

    if val is not None and np.isfinite(best_auc):
        # the warp keeps its last-epoch arrays: restoring it too lowered fewshot
        # test AUC on 5 of 6 corpus seeds (CHANGES.md), so that waits for evidence
        net.params.update(best_params)
    return TrainResult(net=net, history=history, stopped_epoch=len(history) - 1)


# ---------------------------------------------------------------------------
# Validation sweep over the penalty surface
# ---------------------------------------------------------------------------

def sweep_lambda_eta(lam_grid, eta_grid, episodes: Episodes, memory, net, pcfg, r_keep,
                     transform=None):
    """Validation surface over (lam, eta): pooled AUC and sparsity averages.

    Each grid lam replaces ``pcfg``'s ``lam``. eta enters only the outer
    objective, not the solve, so each lam is solved once as one block,
    ``outer_terms`` gives each task's terms, and every eta is scored on those
    solutions.
    """
    require(len(lam_grid) >= 1 and len(eta_grid) >= 1, "grids must be nonempty")
    labels = episodes.labels.ravel()
    rows = []
    for lam in lam_grid:
        solution, _ = _episode_block(episodes, memory, net, replace(pcfg, lam=lam), r_keep,
                                     transform=transform)
        probs, ce, l1, entropy, _, _ = outer_terms(episodes, solution.w_tilde)
        auc = rank_auc_or_nan(probs, labels)
        mean_l0_pre = float(np.mean(np.sum(solution.w > 1e-10, axis=1)))
        mean_l0_post = float(np.mean(np.sum(solution.w_tilde > 1e-10, axis=1)))
        for eta in eta_grid:
            rows.append({"lam": lam, "eta": eta, "auc": auc, "mean_l0_pre": mean_l0_pre,
                         "mean_l0_post": mean_l0_post,
                         "mean_objective": float(np.mean(ce + lam * l1 + eta * entropy))})
    return rows
