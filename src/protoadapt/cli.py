"""Command-line entry points for the episodic retrieval pipeline.

Every subcommand is a deterministic function of the JSON run configuration;
later stages regenerate earlier artifacts from the same configuration, so a
phase2 invocation reproduces phase1 bit-for-bit before training.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import replace
from pathlib import Path

from .motifs import CalibrationError
from .pipeline import (
    RunConfig,
    build_corpus,
    desk_config,
    emit_report,
    run_ablations,
    run_baselines,
    run_motifs,
    run_penalty_sweep,
    run_phase1,
    run_phase2,
    run_power_curve,
    run_riskbound,
    run_seed_stability,
    run_support_sweep,
    ABLATION_VARIANTS,
)
from .synthdata import save_corpus


def load_config(args) -> RunConfig:
    if args.config:
        data = json.loads(Path(args.config).read_text())
        cfg = RunConfig.from_dict(data.get("config", data))
    else:
        cfg = desk_config()
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.generator = replace(cfg.generator, seed=args.seed)
    return cfg


def cmd_generate(args):
    cfg = load_config(args)
    corpus = build_corpus(cfg)
    save_corpus(corpus, args.outdir / "corpus.csv", args.outdir / "corpus_manifest.json")
    print(f"wrote {args.outdir / 'corpus.csv'} ({len(corpus.tasks)} tasks)")


def cmd_phase1(args):
    cfg = load_config(args)
    artifacts = run_phase1(cfg, outdir=args.outdir)
    print(f"rank selected: {artifacts.rank_selected}; K = {artifacts.memory.K}; "
          f"coverage upper bound = {artifacts.certificate.eps_upper:.6f}")


def cmd_phase2(args):
    cfg = load_config(args)
    artifacts = run_phase1(cfg, outdir=args.outdir)
    result = run_phase2(cfg, artifacts, outdir=args.outdir)
    rec = result.metrics["test"]
    print(f"test AUC {rec.auc:.4f}, F1 {rec.f1:.4f}, ECE {rec.ece:.4f}")
    run_penalty_sweep(cfg, artifacts, result, outdir=args.outdir)
    run_support_sweep(cfg, artifacts, result, outdir=args.outdir)
    run_seed_stability(cfg, artifacts, outdir=args.outdir)


def cmd_baselines(args):
    cfg = load_config(args)
    artifacts = run_phase1(cfg)
    results = run_baselines(cfg, artifacts, outdir=args.outdir)
    for name, rec in results.items():
        print(f"{name}: AUC {rec.auc:.4f}")


def cmd_ablate(args):
    cfg = load_config(args)
    variants = args.variants or list(ABLATION_VARIANTS)
    rows = run_ablations(cfg, variants, outdir=args.outdir)
    for row in rows:
        print(f"{row['variant']}: AUC {row['auc']:.4f} F1 {row['f1']:.4f}")


def cmd_motifs(args):
    cfg = load_config(args)
    try:
        calibrations, report = run_motifs(cfg, outdir=args.outdir)
    except CalibrationError as exc:  # the other cohorts' files are written
        calibrations, report = exc.calibrations, exc.report
    run_power_curve(cfg, outdir=args.outdir)
    print(f"screened {report.screened.size} channels; "
          f"pi0 = {report.pi0.pi0:.3f} {report.pi0.ci90}")
    for cohort, cal in zip(cfg.motifs.cohorts, calibrations):
        if cal is None:
            print(f"{cohort}: calibration failed (see run.log)")
        else:
            print(f"{cohort}: tau_bar {cal.tau_bar:.3f} |t| {cal.t_abs:.2f}")


def cmd_riskbound(args):
    cfg = load_config(args)
    artifacts = run_phase1(cfg)
    summary = run_riskbound(cfg, artifacts, outdir=args.outdir)
    print(summary.as_text())


def cmd_report(args):
    path = emit_report(args.outdir)
    print(path.read_text())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protoadapt",
        description="prototype-conditioned fast-weight retrieval on synthetic episodic tasks")
    parser.add_argument("--config", help="JSON run configuration", default=None)
    parser.add_argument("--seed", type=int, default=None, help="override the run seed")
    parser.add_argument("--outdir", type=Path, default="runs/desk", help="default: runs/desk")
    sub = parser.add_subparsers(dest="command", required=True)
    rebuilds = "; rebuilds phase 1 from the config"
    for name, fn, text in (
            ("generate", cmd_generate, "write the corpus CSV and manifest"),
            ("phase1", cmd_phase1, "memory construction and certificates"),
            ("phase2", cmd_phase2, "retrieval training plus metric sweeps" + rebuilds
             + ", rewrites phase 1's files and appends another stage=phase1 line to runtime.txt"),
            ("baselines", cmd_baselines, "ridge, nearest-centroid, oracle runs" + rebuilds),
            ("ablate", cmd_ablate, "run ablation variants" + rebuilds + " for each variant"),
            ("motifs", cmd_motifs, "motif statistics over synthetic cohorts"),
            ("riskbound", cmd_riskbound, "empirical bound verification" + rebuilds),
            ("report", cmd_report, "assemble the plain-text summary")):
        sub.add_parser(name, help=text, description=text).set_defaults(fn=fn)
    sub.choices["ablate"].add_argument("variants", nargs="*",
                                       choices=list(ABLATION_VARIANTS) + [[]],
                                       help="variant names (default: all)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
