#!/usr/bin/env python3
"""The constrained proximal solve, hard sparsification, and the outer objective."""

import numpy as np

from protoadapt.adapters import Canonicalizer
from protoadapt.prototypes import PrototypeMemory, ProjectionChain
from protoadapt.retrieval import (
    Episodes, ProximalConfig, compose_adapter, hard_top_r, outer_terms, softmax, solve_proximal,
)
from protoadapt.synthdata import EpisodeTask

rng = np.random.default_rng(0)
d, k = 4, 6
m_rows = rng.normal(size=(k, d))
chain = ProjectionChain(canonicalizer=Canonicalizer.identity(d), r=d)
memory = PrototypeMemory(m_rows=m_rows, chain=chain,
                         centroids=chain.project(m_rows)).freeze()

theta_hat = 0.8 * m_rows[2] + 0.4 * m_rows[4] + 0.05 * rng.normal(size=d)
v = rng.normal(size=k)
cfg = ProximalConfig(lam=1e-3, gamma=0.2, t_prox=20, tol=1e-12)

solution = solve_proximal(theta_hat, memory, v, cfg, budget=2000)
print("dense activations:", np.round(solution.w, 4))
print(f"iterations {solution.iterations}, restarts {solution.restarts}, "
      f"KKT residual {solution.kkt_residual:.2e}")
trace = np.asarray(solution.objective_trace)
print("objective trace monotone:", bool(np.all(np.diff(trace) <= 1e-12)),
      f"(first {trace[0]:.5f} -> last {trace[-1]:.5f})")

w_tilde = hard_top_r(solution.w, 2)
before, after = (np.linalg.norm(compose_adapter(memory, w) - theta_hat)
                 for w in (solution.w, w_tilde))
print(f"hard top-2 keeps atoms {np.nonzero(w_tilde)[0].tolist()}; "
      f"reconstruction residual {before:.5f} -> {after:.5f}")

query_x = rng.normal(size=(30, d))
query_y = (query_x @ theta_hat > 0).astype(int)
task = EpisodeTask("demo", query_x[:0], query_y[:0], query_x, query_y)
# a block of one task: Episodes.of maps its query set once to prototype
# coordinates, query_x M^T, and the query logits are those times w_tilde
# (this demo has no descriptor, so its row is a zero placeholder)
episodes = Episodes.of([task], np.zeros((1, 1)), theta_hat[None], memory,
                       feature_map=lambda x: np.atleast_2d(x))
lam, eta = 1e-3, 0.05
_, ce, l1, entropy, _, _ = outer_terms(episodes, w_tilde[None])
total = ce[0] + lam * l1[0] + eta * entropy[0]
print(f"outer objective {total:.4f} (ce {ce[0]:.4f}, l1 {l1[0]:.4f}, "
      f"entropy {entropy[0]:.4f})")
print("softmax prior that seeded the solve:", np.round(softmax(v), 3))
