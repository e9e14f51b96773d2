"""Constrained proximal retrieval: solver, top-r sparsity, outer objective, training.

A task's inner problem is, over w >= 0,
0.5 ||M^T w - theta_hat||^2 + lam ||w||_1 + gamma ||w - softmax(v)||^2. In Gram
form it is 0.5 w H w^T + c w^T + const with H = G + 2 gamma I (G = M M^T,
cached on the memory) and c = lam - M theta_hat - 2 gamma p.
``active_set_solve`` solves it exactly for T tasks at once with a primal-dual
active-set loop (Hintermueller, Ito & Kunisch 2002). Training differentiates the
solution at its free set F, as OptNet (Amos & Kolter 2017) does: there
w_F = -H_FF^{-1} c_F, so dL/dp is 2 gamma H_FF^{-1} g_F on F and 0 off it. The
top-r mask passes the gradient straight through. ``r_keep`` alone sets the
sparsity: the top-r rule keeps every activation at r_keep >= K.

``solve_block`` is the one way onto the kernel. Training, validation, test
prediction and the penalty sweep run blocks of ``Episodes`` (each task's
descriptor and support adapter, and each distinct query set in prototype
coordinates, built once, one query size per block): one warp and network pass
over T rows and ``solve_block`` (``_episode_block``), the outer objective on the block
(``outer_terms``) and, in training, ``backward_block``. ``solve_block`` takes
one ``ProximalConfig`` (lam and gamma one value or one per row) and returns one
``BlockSolution`` of arrays. One-task calls (``predict_task``) run the warp, the
network and ``solve_proximal``, row 0 of a one-row ``solve_block``;
``backward_through_solve`` is the one-task ``backward_block``. Both paths share
one row-wise softmax, softmax VJP, top-r rule and support-size gamma rule
(``_at_support_size``). ``objective_trace`` replays one task's solve for its
objective at each iterate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .metrics import binary_cross_entropy, rank_auc_or_nan
from .tanhmap import TanhMap
from .util import ValidationError, check_finite, child_rng, require, sigmoid

# The primal-dual active-set step exchanges every infeasible coordinate at once and
# can cycle when H is not an M-matrix (gamma = 0 on desk seed 42 does). From iteration
# FULL_EXCHANGE_ITERATIONS on, a row exchanges only its lowest-index infeasible
# coordinate (Murty's rule), which cannot cycle on a positive definite H. A row still
# unsettled after MAX_ACTIVE_SET_ITERATIONS raises.
FULL_EXCHANGE_ITERATIONS = 10
MAX_ACTIVE_SET_ITERATIONS = 50
# a config's gamma is the prior's weight at GAMMA_REF_SIZE support examples; it shrinks
# as evidence grows, so a task solves with gamma * GAMMA_REF_SIZE / n_support
GAMMA_REF_SIZE = 5


def softmax(v: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    v = np.asarray(v, dtype=float)
    # the ufunc reductions that ndarray.max and ndarray.sum call, without their wrappers
    e = np.exp(v - np.maximum.reduce(v, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def softmax_vjp(p: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The gradient in the logits from ``grad`` in p = softmax(logits), along the last axis."""
    return p * (grad - (p * grad).sum(axis=-1, keepdims=True))


def _at_support_size(pcfg, n_support):
    """``pcfg`` with gamma * GAMMA_REF_SIZE / max(n, 1): n one support size, or one per row.

    For a count, n + (n < 1) is max(n, 1); one task's gamma stays a Python float.
    """
    return ProximalConfig(lam=pcfg.lam,
                          gamma=pcfg.gamma * GAMMA_REF_SIZE / (n_support + (n_support < 1)))


@dataclass
class ProximalConfig:
    lam: float | np.ndarray = 1e-4     # lam and gamma: one value, or one per solve_block row
    gamma: float | np.ndarray = 0.1

    def validate(self) -> None:
        for name, value in (("lam", self.lam), ("gamma", self.gamma)):
            # every row of a per-row value, NaN failing; a float, as every one-task
            # solve passes, skips numpy's few microseconds
            ok = value >= 0.0 if isinstance(value, float) else np.all(np.asarray(value) >= 0.0)
            require(ok, f"{name} must be nonnegative")


@functools.lru_cache(maxsize=16)
def _eye(k: int) -> np.ndarray:
    """The K x K identity, one read-only array per K."""
    eye = np.eye(k)
    eye.setflags(write=False)
    return eye


def _on_free_sets(hessians: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Each row's H with its rows and columns off the free set F those of the identity."""
    return np.where(free[:, :, None] & free[:, None, :], hessians, _eye(free.shape[1]))


def _hessians(memory, gamma: np.ndarray) -> np.ndarray:
    """H = G + 2 gamma I for each row's gamma: (T, K, K)."""
    return memory.row_atoms.gram + 2.0 * gamma[:, None, None] * _eye(memory.K)


def active_set_solve(memory, gamma: np.ndarray, linear: np.ndarray):
    """The exact minimizer of 0.5 w H w^T + c w^T over w >= 0 for each row.

    Row t has H = G + 2 gamma[t] I and c = linear[t]. The primal-dual
    active-set loop starts from the free set F of every coordinate. Each
    iteration solves H_FF w_F = -c_F with w = 0 off F, takes mu = H w + c off F
    (0 on F) and sets F to {w - mu > 0}, after FULL_EXCHANGE_ITERATIONS moving
    only the lowest-index coordinate where that set and F differ. Once a row's
    F stops changing, w >= 0, mu >= 0 and w mu = 0 hold: the KKT conditions.
    Every row is solved in every iteration until all have settled; a settled
    row's F no longer moves, so it gets the same w again.

    Returns w (T x K), the free sets, each row's iteration count and the
    iterates, one (T x K) array per iteration. A row with gamma = 0 on a memory
    of rank below K (H = G is singular, and the minimizer is not unique), or one
    still unsettled after MAX_ACTIVE_SET_ITERATIONS, raises naming the row.
    """
    if not gamma.all() and memory.rank < memory.K:
        raise ValidationError(
            f"rows {np.flatnonzero(gamma == 0.0).tolist()} have gamma = 0 on a memory of "
            f"rank {memory.rank} < K = {memory.K}: H = M M^T is singular")
    hessians = _hessians(memory, gamma)
    target = -linear
    free = np.ones(linear.shape, dtype=bool)
    system, rhs = hessians, target  # on F = every coordinate
    iterations = np.ones(len(linear), dtype=int)
    iterates = []
    for step in range(MAX_ACTIVE_SET_ITERATIONS):
        w = np.linalg.solve(system, rhs[..., None])[..., 0]
        iterates.append(w)
        # where w - mu > 0 disagrees with F, a coordinate is infeasible (off F, w - mu = -c - H w)
        infeasible = (np.where(free, w, target - (hessians @ w[..., None])[..., 0]) > 0.0) != free
        if not infeasible.any():
            return w, free, iterations, iterates
        unsettled = infeasible.any(axis=1)
        iterations += unsettled
        if step + 1 >= FULL_EXCHANGE_ITERATIONS:
            infeasible &= np.arange(len(free[0])) == np.argmax(infeasible, axis=1)[:, None]
        free = free ^ infeasible
        system, rhs = _on_free_sets(hessians, free), np.where(free, target, 0.0)
    raise ValidationError(f"rows {np.flatnonzero(unsettled).tolist()} did not settle their free "
                          f"sets in {MAX_ACTIVE_SET_ITERATIONS} active-set iterations")


def _solution_vjp(memory, free, gamma, p, grad_w) -> np.ndarray:
    """dL/dv from dL/dw at exact solutions, one row per task.

    With F fixed, w_F = -H_FF^{-1} c_F and c = lam - M theta_hat - 2 gamma p, so
    dL/dp = 2 gamma H_FF^{-1} g_F on F and 0 off it: one batched solve, then the
    softmax VJP. A weakly active coordinate (w_i = mu_i = 0) takes the solver's
    final F.
    """
    rhs = np.where(free, grad_w, 0.0)[..., None]
    grad_p = np.linalg.solve(_on_free_sets(_hessians(memory, gamma), free), rhs)[..., 0]
    return softmax_vjp(p, 2.0 * gamma[:, None] * grad_p)


def _linear_terms(theta_hats, memory, p, lam, gamma) -> np.ndarray:
    """c = lam - M theta_hat - 2 gamma p, one row per task: (T, K)."""
    return lam[:, None] - theta_hats @ memory.M.T - 2.0 * gamma[:, None] * p


def hard_top_r(w: np.ndarray, r: int) -> np.ndarray:
    """Zero all but the r largest activations of each row (last axis), ties to the lowest index."""
    require(r >= 1, "r must be at least 1")
    out = np.array(w, dtype=float)
    place = np.argsort(-out, axis=-1, kind="stable").argsort(axis=-1)  # 0 for a row's largest
    out[place >= r] = 0.0
    return out


# ---------------------------------------------------------------------------
# The solve and its backward pass on T tasks at once
# ---------------------------------------------------------------------------

@dataclass
class BlockSolution:
    """A block solve, one row per task."""

    w: np.ndarray                # (T, K) solutions before the top-r rule
    w_tilde: np.ndarray          # (T, K) after it
    free: np.ndarray             # (T, K) the free sets the solve settled on
    iterations: np.ndarray       # (T,) active-set iterations each row took
    p: np.ndarray                # (T, K) softmax of the logits
    gamma: np.ndarray            # (T,)


def solve_block(theta_hats, memory, logits, cfg: ProximalConfig, r_keep: int) -> BlockSolution:
    """The exact solve and the top-r rule for T tasks at once, on a (T x K) block.

    Row i is task i's problem (theta_hats[i], logits[i]) with lam and gamma
    ``cfg``'s, each one value or one per row, solved exactly by one
    ``active_set_solve``. w_tilde is ``hard_top_r`` of each row: all of w at
    r_keep >= K.
    """
    theta_hats = check_finite(theta_hats, "theta_hat")
    logits = check_finite(logits, "retrieval logits")
    n_rows, k = len(logits), memory.K
    require(n_rows >= 1, "the block has no tasks")
    require(logits.shape == (n_rows, k), "logits must be one length-K row per task")
    require(theta_hats.shape == (n_rows, memory.d_theta),
            "theta_hats must be one length-d_theta row per task")
    cfg.validate()
    p = softmax(logits)
    gamma = np.zeros(n_rows) + cfg.gamma  # one value per row, from one or from T
    linear = _linear_terms(theta_hats, memory, p, np.zeros(n_rows) + cfg.lam, gamma)
    w, free, iterations, _ = active_set_solve(memory, gamma, linear)
    return BlockSolution(w=w, w_tilde=hard_top_r(w, r_keep), free=free, iterations=iterations,
                         p=p, gamma=gamma)


def backward_block(block: BlockSolution, memory, grad_w: np.ndarray) -> np.ndarray:
    """dL/dv from dL/dw at a block's solutions, one row per task (``_solution_vjp``)."""
    return _solution_vjp(memory, block.free, block.gamma, block.p, grad_w)


def objective_trace(theta_hat, memory, p, lam: float, gamma: float) -> np.ndarray:
    """One task's objective at each of its active-set iterates, one entry per iteration.

    ``p`` and ``gamma`` are the task's row of a ``BlockSolution``. Each iterate
    is clipped to w >= 0, a feasible point, so no entry lies below the last,
    the minimum; the trace need not fall monotonely.
    """
    theta_hats, p = theta_hat[None], p[None]
    gamma = np.zeros(1) + gamma
    linear = _linear_terms(theta_hats, memory, p, np.zeros(1) + lam, gamma)
    x = np.maximum(np.stack(active_set_solve(memory, gamma, linear)[3]), 0.0)  # (iterations, 1, K)
    const = 0.5 * (theta_hats**2).sum(axis=1) + gamma * (p**2).sum(axis=1)
    half_hx = 0.5 * (x @ memory.row_atoms.gram + 2.0 * gamma[:, None] * x)
    return ((half_hx + linear) * x).sum(axis=2)[:, 0] + const


@dataclass
class RetrievalSolution:
    """One task's ``solve_proximal``; ``backward_through_solve`` differentiates it."""

    w: np.ndarray
    w_tilde: np.ndarray
    active_set: list         # the indices where w_tilde is nonzero
    iterations: int          # active-set iterations
    free: np.ndarray         # (K,) the free set the solve settled on
    p: np.ndarray            # (K,) softmax of the logits
    gamma: float
    restarts: int = 0        # the solve is exact: it never restarts,
    converged: bool = True   # and one that does not settle raises


def solve_proximal(theta_hat, memory, v, cfg: ProximalConfig, r_keep: int) -> RetrievalSolution:
    """One task's solve and top-r rule: row 0 of ``solve_block`` on a one-row block."""
    block = solve_block(np.asarray(theta_hat)[None], memory, np.asarray(v)[None], cfg, r_keep)
    w_tilde = block.w_tilde[0]
    return RetrievalSolution(w=block.w[0], w_tilde=w_tilde, active_set=list(np.nonzero(w_tilde)[0]),
                             iterations=int(block.iterations[0]), free=block.free[0],
                             p=block.p[0], gamma=float(block.gamma[0]))


def backward_through_solve(solution: RetrievalSolution, memory, grad_w: np.ndarray) -> np.ndarray:
    """``backward_block`` for one ``solve_proximal`` solution: dL/dv."""
    return _solution_vjp(memory, solution.free[None], np.array([solution.gamma]),
                         solution.p[None], grad_w[None])[0]


# ---------------------------------------------------------------------------
# Phase-2 inputs and the outer objective
# ---------------------------------------------------------------------------

@dataclass
class Episodes:
    """Phase-2 inputs, one row per task; ``Episodes.of`` projects and checks each query set once.

    A task's episodes at several support sizes share its query set, so the block
    holds each distinct query set once: U query blocks of one query size n_q,
    and per row the index of its own. ``coords`` and ``labels`` gather the rows'.
    A minibatch from ``take(rows, coords_out)`` gathers its coordinates into
    the caller's buffer ``coords_out`` instead of a fresh array.
    """

    task_ids: list
    z: np.ndarray             # (T, d_z) descriptor values
    theta_hats: np.ndarray    # (T, d_theta) support adapters
    n_support: np.ndarray     # (T,)
    query: np.ndarray         # (T,) row i's index into the query blocks
    query_coords: np.ndarray  # (U, n_q, K): query set u's P_u = query_feats M^T
    query_labels: np.ndarray  # (U, n_q) its query_y, in the tasks' dtype (int8 from a corpus)
    coords_out: np.ndarray | None = None  # (>= T, n_q, K) buffer ``coords`` gathers into

    @classmethod
    def of(cls, tasks, z, theta_hats, memory) -> "Episodes":
        index, distinct, query = {}, [], []  # one query block per distinct (query_feats, query_y)
        for task in tasks:
            key = id(task.query_feats), id(task.query_y)
            if key not in index:
                index[key] = len(distinct)
                distinct.append(task)
            query.append(index[key])
        coords = [check_finite(task.query_feats @ memory.M.T, "query features")
                  for task in distinct]
        sizes = sorted({len(rows) for rows in coords})
        require(sizes[0] >= 1, "query is empty")
        require(len(sizes) == 1, f"a block needs one query size for all its tasks, got {sizes}")
        return cls([task.task_id for task in tasks], z, theta_hats,
                   np.array([task.n_support for task in tasks]), np.array(query),
                   np.stack(coords), np.array([task.query_y for task in distinct]))

    @property
    def coords(self) -> np.ndarray:
        """(T, n_q, K): row i's query coordinates P_i; with ``coords_out``, its first T rows,
        which the next read overwrites."""
        if self.coords_out is None:
            return self.query_coords[self.query]
        return np.take(self.query_coords, self.query, axis=0,
                       out=self.coords_out[:len(self.query)])

    @property
    def labels(self) -> np.ndarray:
        """(T, n_q): row i's query labels."""
        return self.query_labels[self.query]

    def take(self, rows, coords_out=None) -> "Episodes":
        """The episodes at ``rows``, in that order (a minibatch); the query blocks are shared."""
        return Episodes([self.task_ids[i] for i in rows], self.z[rows], self.theta_hats[rows],
                        self.n_support[rows], self.query[rows], self.query_coords,
                        self.query_labels, coords_out)


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
    ce = binary_cross_entropy(probs, labels)
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
    epochs: int
    weight_decay: float
    patience: int
    seed: int
    r_keep: int
    batch_size: int = 100
    lr: float = 1e-3
    jaccard_min: float = 0.9
    eta: float = 0.01


@dataclass
class TrainHistoryRow:
    epoch: int
    train_loss: float
    val_auc: float
    jaccard: float
    # work counters over the epoch's training episodes
    solver_iterations: int
    mean_active_size: float


@dataclass
class TrainResult:
    net: RetrievalNet
    history: list
    stopped_epoch: int


def predict_task(task, memory, net, descriptor, theta_hat, pcfg, r_keep,
                 feature_map, transform=None, hard_threshold=True):
    """Query probabilities and the solution for one task.

    Warp of the descriptor vector (``build_descriptor``), net logits, then
    ``solve_proximal`` with ``pcfg`` at the task's support size
    (``_at_support_size``), keeping the top r_keep; the query features
    ``task.query_feats`` are scored with the adapter w_tilde M.
    ``hard_threshold=False`` is r_keep = K: w_tilde keeps all of w.
    ``feature_map`` is unread, since the task holds its query features; it
    stays in the signature because the benchmark's fewshot-adapt workload
    passes it by position.
    """
    z = descriptor if transform is None else transform.forward(descriptor)[0]
    solution = solve_proximal(theta_hat, memory, net.forward(z)[0],
                              _at_support_size(pcfg, task.n_support),
                              r_keep if hard_threshold else memory.K)
    return sigmoid(task.query_feats @ (solution.w_tilde @ memory.M)), solution


def _episode_block(episodes: Episodes, memory, net, pcfg, r_keep, transform=None):
    """The phase-2 step for a block of episodes: one warp, one net and one block solve.

    Each task solves with ``pcfg`` at its support size (``_at_support_size``).
    Returns the ``BlockSolution`` and the backward pass's states (z_raw, warp
    hidden, z, net hidden), one row per task.
    """
    z_raw = episodes.z
    z, warp_hidden = transform.forward(z_raw) if transform is not None else (z_raw, None)
    logits, net_hidden = net.forward(z)
    solution = solve_block(episodes.theta_hats, memory, logits,
                           _at_support_size(pcfg, episodes.n_support), r_keep)
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

    One block episode, ``outer_terms`` on the block, ``backward_block``,
    then one VJP through the network and one through the warp; the top-r mask
    passes the gradient straight through, and the l1 term's gradient is taken
    on the active set. Returns the per-task losses (query cross-entropy plus
    lam times l1 plus eta times entropy), the block's solution and the
    gradients keyed ("net", key) and ("warp", key).
    """
    solution, (z_raw, warp_hidden, z, net_hidden) = _episode_block(
        episodes, memory, net, pcfg, r_keep, transform=transform)
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
    """Training of the retrieval network on the outer objective.

    Per minibatch of ``train``'s rows, ``minibatch_gradients``: one block
    episode (descriptor warp, net, exact solve, top ``tcfg.r_keep`` rule,
    which keeps every activation at r_keep >= K), the outer objective on the block's query
    coordinates (``outer_terms``), and one backward pass through the solution
    (``backward_block``), the network and the warp; the top-r mask passes the
    gradient straight through. One Adam step per minibatch moves the network's and the
    warp's arrays together; weight decay applies to the network's only.
    Validation takes the same block step without the backward pass on ``val``. Early stopping
    combines a validation-score plateau (patience epochs without an
    improvement above 1e-4) with an active-set stability requirement (Jaccard
    overlap between consecutive epochs).
    """
    require(len(train.task_ids) >= 1, "no training tasks")
    net = RetrievalNet(d_z=train.z.shape[1], k=memory.K, seed=tcfg.seed)
    maps = {"net": net} if transform is None else {"net": net, "warp": transform}
    params = {(name, key): arr for name, tmap in maps.items()
              for key, arr in tmap.params.items()}
    opt = Adam(params, lr=tcfg.lr)

    history: list[TrainHistoryRow] = []
    best_auc, best_params, since_best = -np.inf, net.snapshot(), 0
    prev_active = None

    # every minibatch gathers its query coordinates into this one buffer: a fresh gather per
    # minibatch, freed at its end, made the heap top shrink and fault back in at each step
    coords_out = np.empty((min(tcfg.batch_size, len(train.task_ids)),
                           *train.query_coords.shape[1:]))
    for epoch in range(tcfg.epochs):
        rng = child_rng(tcfg.seed, "epochs", epoch)
        order = rng.permutation(len(train.task_ids))
        losses, blocks = [], []
        for start in range(0, len(order), tcfg.batch_size):
            batch_losses, solution, grads = minibatch_gradients(
                train.take(order[start:start + tcfg.batch_size], coords_out), memory, net,
                pcfg, tcfg.r_keep, tcfg.eta, transform=transform)
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
