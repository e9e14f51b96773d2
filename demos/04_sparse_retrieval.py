#!/usr/bin/env python3
"""The constrained proximal solve, hard sparsification, and the outer objective."""

import numpy as np

from protoadapt.adapters import Canonicalizer
from protoadapt.prototypes import PrototypeMemory, ProjectionChain
from protoadapt.retrieval import (
    ProximalConfig, compose_adapter, hard_top_r, outer_objective, retrieve, softmax,
    solve_proximal,
)

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

adapter = compose_adapter(memory, w_tilde)
query_x = rng.normal(size=(30, d))
query_y = (query_x @ theta_hat > 0).astype(int)
total, parts = outer_objective(query_x, query_y, adapter, w_tilde,
                               lam=1e-3, eta=0.05, feature_map=lambda x: np.atleast_2d(x))
print(f"outer objective {total:.4f} (ce {parts['ce']:.4f}, l1 {parts['l1']:.4f}, "
      f"entropy {parts['entropy']:.4f})")

# one-call convenience path
full = retrieve(theta_hat, memory, v, cfg, r_keep=2, budget=2000)
print("active set via retrieve():", full.active_set)
print("softmax prior that seeded the solve:", np.round(softmax(v), 3))
