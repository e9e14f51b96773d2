"""Constrained proximal retrieval: solver, hard sparsity, outer objective, training.

The solver runs accelerated proximal gradient with a monotone restart (any
step that would increase the objective is replaced by a plain descent step
from the previous iterate, so the recorded objective trace never increases).
Training differentiates through the unrolled solver steps with a recorded
tape and treats the hard top-r mask straight-through. Training, validation,
test prediction and the penalty sweep take one per-task step, ``_episode``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .metrics import binary_cross_entropy, rank_auc_or_nan
from .tanhmap import TanhMap
from .util import ValidationError, check_finite, child_rng, require, sigmoid

MAX_UNROLL = 20  # training-time unroll cap


def softmax(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    shifted = v - v.max()
    e = np.exp(shifted)
    return e / e.sum()


def softmax_vjp(p: np.ndarray, grad: np.ndarray) -> np.ndarray:
    return p * (grad - float(p @ grad))


@dataclass
class ProximalConfig:
    lam: float = 1e-4
    gamma: float = 0.1
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

    Returns the pre-threshold solution; with ``record_tape`` also returns
    the iteration tape used for unrolled differentiation.
    """
    cfg.validate()
    memory.require_frozen()
    theta_hat = check_finite(theta_hat, "theta_hat")
    v = check_finite(v, "retrieval logits")
    require(v.shape[0] == memory.K, "logit length must equal K")
    p = softmax(v)

    m_rows, lam, gamma = memory.M, cfg.lam, cfg.gamma
    two_gamma = 2.0 * gamma
    smax = memory.operator_norm()
    lipschitz = smax**2 + two_gamma
    tau = 1.0 / lipschitz if lipschitz > 0 else 1.0
    tau_lam, kkt_scale = tau * lam, max(tau, 1e-300)
    steps = budget if budget is not None else cfg.t_prox

    def objective(x):
        recon = x @ m_rows - theta_hat
        val = 0.5 * float(recon @ recon) + lam * float(x.sum())
        if gamma > 0:
            val += gamma * float(((x - p) ** 2).sum())
        return val

    def prox_step(x):
        """Prox-gradient step from x and the objective at its result."""
        grad = m_rows @ (x @ m_rows - theta_hat)
        if gamma > 0:
            grad = grad + two_gamma * (x - p)
        w_next = np.maximum(x - tau * grad - tau_lam, 0.0)
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
    """Keep the r largest activations (ties to the lowest index), zero the rest."""
    require(r >= 1, "r must be at least 1")
    w = np.asarray(w, dtype=float)
    if r >= w.shape[0]:
        return w.copy()
    order = np.argsort(-w, kind="stable")
    keep = order[:r]
    out = np.zeros_like(w)
    out[keep] = w[keep]
    return out


def residual_change(memory, theta_hat, w: np.ndarray, w_tilde: np.ndarray):
    before = float(np.linalg.norm(w @ memory.M - theta_hat))
    after = float(np.linalg.norm(w_tilde @ memory.M - theta_hat))
    return before, after


def compose_adapter(memory, w_tilde: np.ndarray) -> np.ndarray:
    w_tilde = check_finite(w_tilde, "activations")
    require(w_tilde.shape[0] == memory.K, "activation length must equal K")
    return w_tilde @ memory.M


def retrieve(theta_hat, memory, v, cfg: ProximalConfig, r_keep: int,
             budget: int | None = None, hard_threshold: bool = True,
             record_tape: bool = False):
    """``solve_proximal``'s result plus w_tilde (w's top r_keep; all of w when soft)."""
    out = solve_proximal(theta_hat, memory, v, cfg, budget=budget, record_tape=record_tape)
    solution = out[0] if record_tape else out
    solution.w_tilde = hard_top_r(solution.w, r_keep) if hard_threshold else solution.w.copy()
    solution.active_set = list(np.nonzero(solution.w_tilde)[0])
    return out


# ---------------------------------------------------------------------------
# Outer objective
# ---------------------------------------------------------------------------

def _entropy_and_grad(w: np.ndarray):
    """Shannon entropy of w / ||w||_1 (0 log 0 = 0) and its gradient in w."""
    grad = np.zeros_like(w)
    mass = float(np.sum(w))
    if mass <= 0.0:
        return 0.0, grad
    u = w / mass
    pos = u > 0
    log_u = np.log(u[pos])
    ent = float(-np.sum(u[pos] * log_u))
    grad[pos] = (-log_u - ent) / mass
    return ent, grad


def entropy_of(w: np.ndarray) -> float:
    """Shannon entropy of w / ||w||_1 with the 0 log 0 = 0 convention."""
    return _entropy_and_grad(w)[0]


def outer_objective(query_x, query_y, adapter, w_tilde, lam, eta, feature_map,
                    memory=None):
    """Query cross-entropy plus l1 and normalized-entropy penalties.

    Returns ``(total, parts)``. Given the memory that composed the adapter
    (``adapter = w_tilde @ memory.M``), also returns the gradient of the total
    with respect to ``w_tilde``, the l1 term taken on the active set.
    """
    x = check_finite(feature_map(query_x), "query features")
    require(x.shape[0] >= 1, "query is empty")
    probs = sigmoid(x @ adapter)
    ce = binary_cross_entropy(probs, query_y)
    l1 = float(np.sum(np.abs(w_tilde)))
    ent, ent_grad = _entropy_and_grad(w_tilde)
    total = ce + lam * l1 + eta * ent
    parts = {"ce": ce, "l1": l1, "entropy": ent}
    if memory is None:
        return total, parts
    dce_dtheta = ((probs - np.asarray(query_y, dtype=float))[:, None] * x).mean(axis=0)
    grad = memory.M @ dce_dtheta + lam * (w_tilde > 0).astype(float)
    if eta != 0.0:
        grad = grad + eta * ent_grad
    return total, parts, grad


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
    """Minimal Adam over a dict of parameter arrays."""

    def __init__(self, params: dict, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict) -> None:
        self.t += 1
        for key, g in grads.items():
            self.m[key] = self.beta1 * self.m[key] + (1 - self.beta1) * g
            self.v[key] = self.beta2 * self.v[key] + (1 - self.beta2) * g * g
            m_hat = self.m[key] / (1 - self.beta1**self.t)
            v_hat = self.v[key] / (1 - self.beta2**self.t)
            self.params[key] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


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
    min_delta: float = 1e-4
    seed: int = 0
    r_keep: int = 2
    eta: float = 0.01


@dataclass
class TrainHistoryRow:
    epoch: int
    train_loss: float
    val_auc: float
    jaccard: float


@dataclass
class TrainResult:
    net: RetrievalNet
    history: list
    stopped_epoch: int
    best_val_auc: float


def _jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def _episode(task, memory, net, descriptor, theta_hat, pcfg, r_keep, transform=None,
             budget=None, hard_threshold=True, record_tape=False):
    """The phase-2 step of training (taped), validation, test and the sweep.

    Warp, net logits, then ``retrieve``; ``pcfg`` is a ProximalConfig or a
    per-task factory of one. Returns the task's config, ``retrieve``'s result
    and the backward pass's states (z_raw, warp hidden, z, net hidden).
    """
    z_raw = descriptor.values
    z, warp_hidden = transform.forward(z_raw) if transform is not None else (z_raw, None)
    logits, net_hidden = net.forward(z)
    task_pcfg = _pcfg_lookup(pcfg)(task)
    out = retrieve(theta_hat, memory, logits, task_pcfg, r_keep, budget=budget,
                   hard_threshold=hard_threshold, record_tape=record_tape)
    return task_pcfg, out, (z_raw, warp_hidden, z, net_hidden)


def predict_task(task, memory, net, descriptor, theta_hat, pcfg, r_keep,
                 feature_map, transform=None, budget=None, hard_threshold=True):
    """Query probabilities from the full retrieval path for one task."""
    _, solution, _ = _episode(task, memory, net, descriptor, theta_hat, pcfg, r_keep,
                              transform=transform, budget=budget,
                              hard_threshold=hard_threshold)
    adapter = compose_adapter(memory, solution.w_tilde)
    probs = sigmoid(feature_map(task.query_x) @ adapter)
    return probs, solution


def predict_tasks(tasks, memory, net, descriptors, theta_hats, pcfg, r_keep,
                  feature_map, transform=None, budget=None, hard_threshold=True):
    """Pooled query probabilities and labels over tasks, plus each task's solution."""
    probs, solutions = [], []
    for task in tasks:
        task_probs, solution = predict_task(
            task, memory, net, descriptors[task.task_id], theta_hats[task.task_id],
            pcfg, r_keep, feature_map, transform=transform, budget=budget,
            hard_threshold=hard_threshold)
        probs.append(task_probs)
        solutions.append(solution)
    return np.concatenate(probs), np.concatenate([t.query_y for t in tasks]), solutions


def _pcfg_lookup(pcfg):
    return pcfg if callable(pcfg) else (lambda task: pcfg)


def train_retrieval(train_tasks, memory, descriptors, theta_hats, feature_map,
                    pcfg, tcfg: TrainConfig, val_tasks=(),
                    transform=None, hard_threshold=True) -> TrainResult:
    """Unrolled training of the retrieval network on the outer objective.

    Per task: take the phase-2 step (descriptor warp, net, taped solve, top-r
    rule unless ``hard_threshold`` is off), evaluate the outer objective on
    the query set, and backpropagate through every solver iteration back to
    the network parameters; the top-r mask passes the gradient straight
    through. The warp's vector-Jacobian product is taken in the same pass, and
    one Adam step per minibatch moves the network's and the warp's arrays
    together; weight decay applies to the network's only. Validation takes
    the same step untaped. Early stopping combines a validation-score plateau
    (patience epochs without improvement) with an active-set stability
    requirement (Jaccard overlap between consecutive epochs).
    """
    memory.require_frozen()
    require(len(train_tasks) >= 1, "no training tasks")
    d_z = descriptors[train_tasks[0].task_id].values.shape[0]
    net = RetrievalNet(d_z=d_z, k=memory.K, seed=tcfg.seed)
    maps = {"net": net} if transform is None else {"net": net, "warp": transform}
    params = {(name, key): arr for name, tmap in maps.items()
              for key, arr in tmap.params.items()}
    opt = Adam(params, lr=tcfg.lr)

    history: list[TrainHistoryRow] = []
    best_auc, best_params, since_best = -np.inf, net.snapshot(), 0
    prev_actives = None

    for epoch in range(tcfg.epochs):
        rng = child_rng(tcfg.seed, "epochs", epoch)
        order = rng.permutation(len(train_tasks))
        losses = []
        for start in range(0, len(order), tcfg.batch_size):
            batch = order[start:start + tcfg.batch_size]
            grads = {key: np.zeros_like(arr) for key, arr in params.items()}
            for i in batch:
                task = train_tasks[i]
                task_pcfg, (solution, tape), (z_raw, warp_hidden, z, net_hidden) = _episode(
                    task, memory, net, descriptors[task.task_id], theta_hats[task.task_id],
                    pcfg, tcfg.r_keep, transform=transform, hard_threshold=hard_threshold,
                    record_tape=True)
                w_tilde = solution.w_tilde
                loss, _, grad_w_tilde = outer_objective(
                    task.query_x, task.query_y, compose_adapter(memory, w_tilde), w_tilde,
                    task_pcfg.lam, tcfg.eta, feature_map, memory=memory)
                losses.append(loss)
                grad_v = backward_through_solve(tape, memory, grad_w_tilde)
                net_grads, grad_z = net.vjp(z, net_hidden, grad_v)
                for key, grad in net_grads.items():
                    grads["net", key] += grad / len(batch)
                if transform is not None:
                    warp_grads, _ = transform.vjp(z_raw, warp_hidden, grad_z / len(batch))
                    for key, grad in warp_grads.items():
                        grads["warp", key] += grad
            if tcfg.weight_decay:
                for key, arr in net.params.items():
                    grads["net", key] += tcfg.weight_decay * arr
            opt.step(grads)

        val_auc, jac = np.nan, 1.0
        if val_tasks:
            probs, labels, solutions = predict_tasks(val_tasks, memory, net, descriptors,
                                                     theta_hats, pcfg, tcfg.r_keep,
                                                     feature_map, transform=transform,
                                                     hard_threshold=hard_threshold)
            val_auc = rank_auc_or_nan(probs, labels)
            actives = [set(solution.active_set) for solution in solutions]
            if prev_actives is not None:
                jac = float(np.mean([_jaccard(a, b) for a, b in zip(actives, prev_actives)]))
            prev_actives = actives
            if val_auc > best_auc + tcfg.min_delta:
                best_auc, best_params, since_best = val_auc, net.snapshot(), 0
            else:
                since_best += 1
        history.append(TrainHistoryRow(epoch=epoch, train_loss=float(np.mean(losses)),
                                       val_auc=float(val_auc), jaccard=jac))
        if val_tasks and since_best >= tcfg.patience and jac >= tcfg.jaccard_min:
            break

    if val_tasks and np.isfinite(best_auc):
        # the warp keeps its last-epoch arrays: restoring it too lowered fewshot
        # test AUC on 5 of 6 corpus seeds (CHANGES.md), so that waits for evidence
        net.params.update(best_params)
    return TrainResult(net=net, history=history, stopped_epoch=len(history) - 1,
                       best_val_auc=float(best_auc if np.isfinite(best_auc) else np.nan))


# ---------------------------------------------------------------------------
# Validation sweep over the penalty surface
# ---------------------------------------------------------------------------

def sweep_lambda_eta(lam_grid, eta_grid, tasks, memory, net, descriptors,
                     theta_hats, pcfg, r_keep, feature_map,
                     transform=None, budget=None, hard_threshold=True):
    """Validation surface over (lam, eta): pooled AUC and sparsity averages.

    ``pcfg`` is a ProximalConfig or a per-task factory of one; each grid lam
    replaces its ``lam``. eta enters only the outer objective, not the solve,
    so each lam is solved once, its query probabilities give each task's
    cross-entropy, and every eta is scored on those solutions.
    """
    require(len(lam_grid) >= 1 and len(eta_grid) >= 1, "grids must be nonempty")
    pcfg_of = _pcfg_lookup(pcfg)
    rows = []
    for lam in lam_grid:
        def lam_pcfg(task, lam=lam):
            return replace(pcfg_of(task), lam=lam)

        probs, labels, solutions = predict_tasks(tasks, memory, net, descriptors,
                                                 theta_hats, lam_pcfg, r_keep, feature_map,
                                                 transform=transform, budget=budget,
                                                 hard_threshold=hard_threshold)
        auc = rank_auc_or_nan(probs, labels)
        mean_l0_pre = float(np.mean([np.sum(s.w > 1e-10) for s in solutions]))
        mean_l0_post = float(np.mean([np.sum(s.w_tilde > 1e-10) for s in solutions]))
        # outer_objective's terms per task: query cross-entropy, l1, entropy
        task_probs = np.split(probs, np.cumsum([len(t.query_y) for t in tasks])[:-1])
        terms = [(binary_cross_entropy(p, t.query_y), float(np.sum(np.abs(s.w_tilde))),
                  entropy_of(s.w_tilde)) for t, p, s in zip(tasks, task_probs, solutions)]
        for eta in eta_grid:
            objective = [ce + lam * l1 + eta * ent for ce, l1, ent in terms]
            rows.append({"lam": lam, "eta": eta, "auc": auc, "mean_l0_pre": mean_l0_pre,
                         "mean_l0_post": mean_l0_post,
                         "mean_objective": float(np.mean(objective))})
    return rows
