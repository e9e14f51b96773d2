"""Run one fixed run set on two trees and say which run files differ.

    python tools/compare_runs.py                   # the working tree against HEAD
    python tools/compare_runs.py --against REV     # ... against any commit
    python tools/compare_runs.py --profiles desk --seeds 42

The run set (``run_set``) is phase 1, phase 2, the penalty and support
sweeps, the baselines, the risk bound, the motifs and the corpus CSV. It runs
on the desk and fewshot profiles at six corpus seeds, once on the working
tree's ``src`` and once on REV's, which ``git archive`` extracts into a
temporary directory. Each (tree, profile, seed) runs in a fresh process with
that tree's ``src`` first on ``PYTHONPATH``, so both trees run this file's
run set. Every file but ``UNCOMPARED`` is compared by sha256, and each one
is printed as identical, changed (with its first differing line and
column), added or missing; the last line is the summary. The exit status is
0 when every file is identical.

A run set, with its process, takes about 6 s per (tree, profile, seed) on a
2-vCPU host (2 min 22 s for all 24), and the fewshot corpus CSV alone is
tens of MB, so one (profile, seed) is run on both trees, compared and
deleted before the next.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PROFILES = ("desk", "fewshot")
SEEDS = (42, 1042, 2023, 3023, 777, 1777)
UNCOMPARED = ("runtime.txt", "summary.txt")  # wall times and memory, which no two runs share
# every file the run set can write, but UNCOMPARED; a file outside this list fails the run
RUN_FILES = (
    "adapters_seed.csv", "baselines.csv", "calibration_bins.csv", "config.json", "corpus.csv",
    "corpus_manifest.json", "descriptors.csv", "memory.csv", "memory.json", "merge_log.txt",
    "metrics.csv", "motif_summary.json", "motif_tests.csv", "motifs_outcome.txt",
    "phase1_summary.json", "projection_energy.csv", "rank_curve.csv", "rank_test_tasks.csv",
    "retrieval_net.json", "retrieval_warp.json", "riskbound.csv", "run.log", "solver_trace.csv",
    "support_curve.csv", "sweep_lambda_eta.csv", "threshold_calibration.csv",
    "training_curve.csv",
)


def profile_config(profile: str, seed: int):
    # the package is imported only in the child processes, each from its own tree's src
    from protoadapt import pipeline

    return {"desk": pipeline.desk_config,
            "fewshot": pipeline.fewshot_benchmark_config}[profile](seed=seed)


def run_set(cfg, outdir: Path) -> None:
    """The fixed run set of one config, written to ``outdir``.

    ``motifs_outcome.txt`` records whether every motif cohort calibrated:
    a ``CalibrationError`` is an outcome to compare, not a failed run.
    """
    from protoadapt import pipeline
    from protoadapt.motifs import CalibrationError
    from protoadapt.synthdata import save_corpus

    artifacts = pipeline.run_phase1(cfg, outdir)
    phase2 = pipeline.run_phase2(cfg, artifacts, outdir)
    pipeline.run_penalty_sweep(cfg, artifacts, phase2, outdir)
    pipeline.run_support_sweep(cfg, artifacts, phase2, outdir)
    pipeline.run_baselines(cfg, artifacts, outdir)
    pipeline.run_riskbound(cfg, artifacts, outdir)
    try:
        pipeline.run_motifs(cfg, outdir)
        outcome = "calibrated"
    except CalibrationError as exc:
        outcome = f"CalibrationError: {exc}"
    (outdir / "motifs_outcome.txt").write_text(outcome + "\n")
    save_corpus(artifacts.corpus, outdir / "corpus.csv")


def file_hashes(outdir: Path) -> dict:
    """{name: sha256} of every file in ``outdir`` but ``UNCOMPARED``."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outdir.iterdir()) if path.name not in UNCOMPARED}


def classify(ours: dict, theirs: dict) -> dict:
    """{name: status} over both hash tables: identical, changed, added (ours only) or missing."""
    status = {}
    for name in sorted(ours.keys() | theirs.keys()):
        if name not in theirs:
            status[name] = "added"
        elif name not in ours:
            status[name] = "missing"
        else:
            status[name] = "identical" if ours[name] == theirs[name] else "changed"
    return status


def first_difference(ours: Path, theirs: Path) -> str:
    """The first line and column at which two text files differ, each side shown from a
    little before that column."""
    with ours.open() as a, theirs.open() as b:
        for number, (line_a, line_b) in enumerate(zip(a, b), start=1):
            if line_a != line_b:
                column = next((i for i, (x, y) in enumerate(zip(line_a, line_b)) if x != y),
                              min(len(line_a), len(line_b)))
                start = max(0, column - 40)
                return (f"line {number}, column {column + 1}: "
                        f"{line_b[start:start + 80].rstrip()!r} -> "
                        f"{line_a[start:start + 80].rstrip()!r}")
        return "one file is a prefix of the other"


def _run_in(src: Path, profile: str, seed: int, outdir: Path) -> None:
    """``run_set`` on the tree whose package is in ``src``, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    subprocess.run([sys.executable, __file__, "--run-one", profile, str(seed), str(outdir)],
                   env=env, check=True)


def _extract_src(rev: str, into: Path) -> Path:
    """REV's ``src`` directory, extracted into ``into`` by ``git archive``."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def compare(against: str, profiles, seeds) -> int:
    counts = dict.fromkeys(("identical", "changed", "added", "missing"), 0)
    with tempfile.TemporaryDirectory(prefix="compare-runs-") as tmp:
        tmp = Path(tmp)
        srcs = {"ours": REPO / "src", "theirs": _extract_src(against, tmp / "against")}
        for profile in profiles:
            for seed in seeds:
                dirs = {side: tmp / f"{side}-{profile}-{seed}" for side in srcs}
                for side, src in srcs.items():
                    dirs[side].mkdir()
                    _run_in(src, profile, seed, dirs[side])
                hashes = {side: file_hashes(path) for side, path in dirs.items()}
                unknown = sorted(hashes["ours"].keys() - set(RUN_FILES))
                if unknown:
                    raise SystemExit(f"files outside RUN_FILES: {unknown}")
                for name, status in classify(hashes["ours"], hashes["theirs"]).items():
                    detail = (" (" + first_difference(dirs["ours"] / name, dirs["theirs"] / name)
                              + ")" if status == "changed" else "")
                    print(f"{status:9s} {profile}/{seed}/{name}{detail}", flush=True)
                    counts[status] += 1
                for path in dirs.values():
                    shutil.rmtree(path)
    total = sum(counts.values())
    print(f"summary: working tree against {against}, {len(profiles)} profiles x {len(seeds)} "
          f"seeds, {total} files: " + ", ".join(f"{n} {k}" for k, n in counts.items()))
    return 0 if counts["identical"] == total else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", default="HEAD", help="the commit to compare with (HEAD)")
    parser.add_argument("--profiles", nargs="+", choices=PROFILES, default=list(PROFILES))
    parser.add_argument("--seeds", nargs="+", type=int, default=list(SEEDS))
    parser.add_argument("--run-one", nargs=3, metavar=("PROFILE", "SEED", "OUTDIR"),
                        help=argparse.SUPPRESS)  # one run set, in the child process
    args = parser.parse_args(argv)
    if args.run_one:
        profile, seed, outdir = args.run_one
        run_set(profile_config(profile, int(seed)), Path(outdir))
        return 0
    return compare(args.against, args.profiles, args.seeds)


if __name__ == "__main__":
    raise SystemExit(main())
