#!/usr/bin/env python3
"""Rank selection diagnostics: energy rule, ratio tests, sequential bootstrap."""

import numpy as np

from protoadapt.adapters import assemble_theta, ridge_adapter
from protoadapt.spectral import (
    TaskGradientSummary, corpus_fisher_spectrum, energy_ratio,
    fisher_energy_test, fisher_energy_test_tasks,
    jl_outside_energy, pca_rank, rank_curve, sequential_r_selection,
)
from protoadapt.synthdata import GeneratorConfig, generate_corpus

cfg = GeneratorConfig(d_theta=8, q=16, r_true=2, n_tasks=150, n_support=400,
                      seed=42)
corpus = generate_corpus(cfg)
fmap = corpus.feature_map()
# a generated task holds no support: each episode is its task on the support drawn again
episodes = [corpus.full_support(t) for t in corpus.tasks]
theta = assemble_theta([ridge_adapter(t, fmap, 1e-2) for t in episodes])

for rho in (0.9, 0.95, 0.99):
    print(f"energy rank at rho={rho}: r = {pca_rank(theta, rho)}")
print("rank vs task count:", [(row['n_tasks'], row['rho'], row['r'])
                              for row in rank_curve(theta, (0.99,), seed=0)])

spectrum = corpus_fisher_spectrum(episodes, fmap)
print("corpus spectrum head:", np.round(spectrum.eigenvalues[:4], 5))
print("top-2 energy ratio:", round(energy_ratio(spectrum.eigenvalues, 2), 4))

# the eigenvalue-resampling percentile test is faithful to the published
# recipe but powerless on spiked spectra; the task-resampling variant of the
# same decision rule stays informative
eig_report = fisher_energy_test(spectrum, r_center=2, n_boot=1000, seed=0)
summaries = [TaskGradientSummary.from_task(t, fmap) for t in episodes]
task_report = fisher_energy_test_tasks(summaries, r_center=2, n_boot=1000, seed=0)
print("eigenvalue-mode selection:", eig_report.selected_r)
print("task-mode selection:", task_report.selected_r)
for rec in task_report.records:
    print(f"  r={rec.r_cand}: zeta={rec.zeta_emp:.4f} p_adj={rec.p_adj:.4f} "
          f"reject={rec.reject}")

seq = sequential_r_selection(theta, r_center=2, n_boot=1000, seed=0)
print("sequential paired-bootstrap selection:", seq.selected_r)

jl = jl_outside_energy(theta, sum(np.outer(s.mean, s.mean) for s in summaries) / len(summaries),
                       r=2, s=5, n_maps=16, seed=0)
print(f"projected outside-energy upper bound: {jl.upper95:.4f} "
      f"(threshold {jl.threshold}, accept={jl.accept})")
