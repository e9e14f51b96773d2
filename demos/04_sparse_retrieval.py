#!/usr/bin/env python3
"""The constrained proximal solve, hard sparsification, and the outer objective."""

import numpy as np

from protoadapt.adapters import Canonicalizer
from protoadapt.prototypes import PrototypeMemory, ProjectionChain
from protoadapt.retrieval import (
    Episodes, ProximalConfig, hard_top_r, objective_trace, outer_terms, softmax, solve_block,
)
from protoadapt.synthdata import EpisodeTask

rng = np.random.default_rng(0)
d, k = 4, 6
m_rows = rng.normal(size=(k, d))
chain = ProjectionChain(canonicalizer=Canonicalizer.identity(d), r=d)
memory = PrototypeMemory(m_rows=m_rows, chain=chain,
                         centroids=chain.project(m_rows))

theta_hat = 0.8 * m_rows[2] + 0.4 * m_rows[4] + 0.05 * rng.normal(size=d)
v = rng.normal(size=k)
cfg = ProximalConfig(lam=1e-3, gamma=0.2)

# one task as a one-row block: the exact active-set solve, then its objective trace
solution = solve_block(theta_hat[None], memory, v[None], cfg, r_keep=k)
w = solution.w[0]
print("dense activations:", np.round(w, 4))
print(f"active-set iterations {solution.iterations[0]}, "
      f"free set {np.nonzero(solution.free[0])[0].tolist()}")
trace = objective_trace(theta_hat, memory, solution.p[0], cfg.lam, solution.gamma[0])
print("objective at each iterate, clipped to w >= 0:", np.round(trace, 5),
      f"(the last is the minimum: {bool(trace[-1] <= trace.min())})")

w_tilde = hard_top_r(w, 2)
before, after = (np.linalg.norm(a @ memory.M - theta_hat) for a in (w, w_tilde))
print(f"hard top-2 keeps atoms {np.nonzero(w_tilde)[0].tolist()}; "
      f"reconstruction residual {before:.5f} -> {after:.5f}")

# a task holds its query set as frozen-feature rows (here the features are the draw itself)
query_feats = rng.normal(size=(30, d))
query_y = (query_feats @ theta_hat > 0).astype(int)
task = EpisodeTask("demo", query_feats, query_y, support_x=query_feats[:0],
                   support_y=query_y[:0])
# a block of one task: Episodes.of projects its query features once to prototype
# coordinates, query_feats M^T, and the query logits are those times w_tilde
# (this demo has no descriptor, so its row is a zero placeholder)
episodes = Episodes.of([task], np.zeros((1, 1)), theta_hat[None], memory)
lam, eta = 1e-3, 0.05
_, ce, l1, entropy, _, _ = outer_terms(episodes, w_tilde[None])
total = ce[0] + lam * l1[0] + eta * entropy[0]
print(f"outer objective {total:.4f} (ce {ce[0]:.4f}, l1 {l1[0]:.4f}, "
      f"entropy {entropy[0]:.4f})")
print("softmax prior that seeded the solve:", np.round(softmax(v), 3))
