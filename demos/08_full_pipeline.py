#!/usr/bin/env python3
"""End to end: memory construction, retrieval training, baselines, report."""

from pathlib import Path

from protoadapt.pipeline import (
    desk_config, emit_report, run_baselines, run_penalty_sweep, run_phase1,
    run_phase2, run_riskbound, run_support_sweep,
)

cfg = desk_config(seed=42)
outdir = Path("runs/demo_pipeline")

artifacts = run_phase1(cfg, outdir=outdir)
print(f"phase 1: rank {artifacts.rank_selected}, K {artifacts.memory.K}, "
      f"coherence {artifacts.memory.mu:.3f}, "
      f"coverage upper bound {artifacts.certificate.eps_upper:.4f}")
for note in artifacts.notes:
    print("  note:", note)

result = run_phase2(cfg, artifacts, outdir=outdir)
rec = result.metrics["test"]
print(f"phase 2 ({len(result.history)} epochs): test AUC {rec.auc:.4f}, "
      f"F1 {rec.f1:.4f}, ECE {rec.ece:.4f}")
surface = run_penalty_sweep(cfg, artifacts, result, outdir=outdir)
best = max(surface, key=lambda r: r["auc"])
print(f"penalty sweep: best validation AUC {best['auc']:.4f} at "
      f"lam {best['lam']:g}, eta {best['eta']:g}")

# baselines default to phase 2's support size, the smallest of cfg.train_sizes
# per-task times are in runtime.txt, one stage=baseline.<name> line each
baselines = run_baselines(cfg, artifacts, outdir=outdir)
for name, b_rec in baselines.items():
    print(f"baseline {name}: AUC {b_rec.auc:.4f}")

sweep = run_support_sweep(cfg, artifacts, result, outdir=outdir)
print("support-size curve:", [(r["support_size"], round(r["auc"], 4)) for r in sweep])

run_riskbound(cfg, artifacts, outdir=outdir)
summary = emit_report(outdir)
print()
print(summary.read_text())
