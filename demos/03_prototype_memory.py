#!/usr/bin/env python3
"""Prototype memory: canonicalize, cluster, certify coverage, merge."""

import numpy as np

from protoadapt.adapters import assemble_theta, fit_canonicalizer, ridge_adapter
from protoadapt.prototypes import (
    ProjectionChain, cluster_prototypes, coverage_certificate, coverage_fits, l0_fit,
    merge_prototypes,
)
from protoadapt.synthdata import GeneratorConfig, generate_corpus, partition_tags

cfg = GeneratorConfig(d_theta=8, q=16, r_true=2, n_tasks=160, n_support=400,
                      seed=42, n_clusters=3)
corpus = generate_corpus(cfg, partition_tags(cfg.n_tasks, 0))
fmap = corpus.feature_map()
pre_tasks = corpus.tasks_in("Pre-Seed", "Pre-Rest")
# a generated task holds no support: each adapter is fitted on its support drawn again
adapters = {t.task_id: ridge_adapter(corpus.full_support(t), fmap, 1e-2) for t in pre_tasks}

seed_tasks = corpus.tasks_in("Pre-Seed")
theta_seed = assemble_theta([adapters[t.task_id] for t in seed_tasks])
canon = fit_canonicalizer(theta_seed)
out = canon.apply(theta_seed.rows)
print("canonical output per-coordinate RMS:", np.round(np.sqrt((out**2).mean(0))[:4], 6))
print("round trip error:", np.max(np.abs(canon.invert(out) - theta_seed.rows)))

chain = ProjectionChain(canonicalizer=canon, r=2)
for k in (2, 3, 4, 6):
    mem = cluster_prototypes(theta_seed, chain, k=k, n_restarts=6, seed=0)
    print(f"K={k}: silhouette={mem.silhouette:.3f} stability={mem.restart_stability:.3f} "
          f"sse={mem.sse:.3f}")

memory = cluster_prototypes(theta_seed, chain, k=3, n_restarts=6, seed=0)
print(f"chosen K=3: condition number {memory.kappa:.3f}, coherence {memory.mu:.3f}")

# the memory is read-only; the certificate is a value computed from its sparse fits
theta_pre = assemble_theta([adapters[t.task_id] for t in pre_tasks])
fits = coverage_fits(chain, memory.centroids, theta_pre, r_sparse=2)
cert = coverage_certificate(fits, n_boot=1000, seed=0)
print(f"coverage: median {cert.eps_hat:.4f}, percentile90 {cert.pct90}")
print(f"certified upper bound: {cert.eps_upper:.4f}")

u = chain.project(theta_pre.rows[0])
w, resid = l0_fit(u, memory.centroids, r_sparse=2)
print(f"sample sparse fit: active atoms {np.nonzero(w)[0].tolist()}, residual {resid:.4f}")

# force a redundant dictionary and watch the merge rule repair it
crowded = np.vstack([memory.M, memory.M[0] * 1.01])
from protoadapt.prototypes import PrototypeMemory
crowded_mem = PrototypeMemory(crowded, chain, chain.project(crowded))
merged, log, merged_fits = merge_prototypes(crowded_mem, mu_threshold=0.95,
                                            theta_pre=theta_pre, r_sparse=2)
print(f"merge log: {len(log)} events, K {crowded.shape[0]} -> {merged.K}, "
      f"final coherence {merged.mu:.3f}")
# merging returns the final rows' sparse fits, so certifying them fits nothing again
merged_cert = coverage_certificate(merged_fits, n_boot=1000, seed=0)
print(f"merged memory's certified upper bound: {merged_cert.eps_upper:.4f}")
