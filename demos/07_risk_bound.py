#!/usr/bin/env python3
"""Empirical verification of the excess-risk decomposition on planted tasks."""

from dataclasses import replace

import numpy as np

from protoadapt.pipeline import desk_config, run_phase1
from protoadapt.riskbound import check_bound, check_bounds_over_tasks, feature_radius_of

cfg = desk_config(seed=42)
cfg = replace(cfg, generator=replace(cfg.generator, n_tasks=60, n_support=200,
                                     off_subspace_norm=0.05))
artifacts = run_phase1(cfg)
fmap = artifacts.corpus.feature_map()

one = check_bound(artifacts.corpus.tasks[0], artifacts.memory,
                  artifacts.certificate, fmap)
print(f"task {one.task_id}: distance to fitted subspace {one.eps_app:.4f}, "
      f"sparse-fit residual {one.eps_coverage:.4f}")
print(f"  adapter gap {one.adapter_gap:.4f} <= "
      f"{one.eps_app + one.eps_coverage:.4f} (triangle slack {one.triangle_slack:.2e})")
print(f"  empirical risk gap {one.emp_gap:.5f} <= "
      f"deterministic bound {one.deterministic_bound:.5f}")

summary = check_bounds_over_tasks(artifacts.corpus.tasks, artifacts.memory,
                                  artifacts.certificate, fmap)
print(summary.as_text())

# the logistic loss is 1-Lipschitz in the margin, so its constant in the adapter
# is the largest feature-row norm
radius = feature_radius_of((t.query_x for t in artifacts.corpus.tasks), fmap)
print(f"logistic-loss Lipschitz constant in the adapter: L = {radius:.4f}")
