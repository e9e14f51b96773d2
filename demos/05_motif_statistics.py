#!/usr/bin/env python3
"""Two-stage motif testing: background, screening, p/q values, calibration."""

import numpy as np

from protoadapt.motifs import (
    calibrate_tau, channel_activations, fit_background, make_channels,
    motif_test_report, permutation_pvalue, power_curve, q_values, storey_pi0,
)

rng = np.random.default_rng(3)
alphabet = 4
base = [rng.integers(0, alphabet, size=rng.integers(9, 14)) for _ in range(150)]
background = fit_background(base, order=2, pseudocount=0.5, alphabet_size=alphabet)
print(f"background: order {background.order}, lengths {background.lengths.tolist()}")

channels = make_channels(40, k=3, alphabet_size=alphabet, seed=1)
null_reps = [background.sample(15, np.random.default_rng(100 + i))
             for i in range(20)]
acts = channel_activations(channels, null_reps)
print("null activation range:", round(acts.min(), 3), "-", round(acts.max(), 3))

report = motif_test_report(channels, null_reps, background, top_frac=0.25,
                           b_min=1000, b_max=2000, null_pool_size=128, seed=0)
print(f"screened {report.screened.size} channels; "
      f"pi0 {report.pi0.pi0:.3f} with 90pct CI {report.pi0.ci90}")
print("q-values:", np.round(report.q_values, 3))
print("pure-null discoveries at q<=0.1:",
      report.significant(0.1).size, "(expected none)")

# labeled cohorts: positives carry planted k-mers
planted = channels[:4]
def cohortify(plant):
    reps = []
    for i in range(20):
        seqs = background.sample(15, np.random.default_rng(1000 * plant + i))
        if plant:
            for s in seqs:
                if s.size >= 3:
                    motif = planted[i % 4]
                    s[: 3] = motif
        reps.append(seqs)
    return reps

pos, neg = cohortify(1), cohortify(0)
labels = np.array([1] * 20 + [0] * 20)
act2 = channel_activations(channels, pos + neg)
cal = calibrate_tau(act2, labels, cohort="demo", calib_frac=0.3, seed=0)
print(f"calibration: tau_bar {cal.tau_bar:.3f}, |t| {cal.t_abs if not np.isnan(cal.t_abs) else float('nan')}, "
      f"zero-variance {cal.zero_variance}, dAUC {cal.delta_auc:.4f}")

rows = power_curve([0.0, 1.0, 2.0, 4.0], alpha=0.05,
                   null_sampler=lambda r, size: r.normal(size=size),
                   n_trials=40, m_channels=25, b_perm=300, seed=5)
for row in rows:
    print(f"effect {row['effect']:.1f}: per-test power {row['rate_p']:.3f}, "
          f"q-level power {row['rate_q']:.3f}")
