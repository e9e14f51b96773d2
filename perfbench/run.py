"""Benchmark of the protoadapt pipeline on the planted few-shot profile.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fewshot-adapt --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 24 --trace 0

Workloads (all closed loops with one caller, on ``fewshot_benchmark_config``):

* ``phase1-verify``: ``run_phase1`` on three corpus seeds in set-up, then per
  task a risk-bound check, and one ``run_motifs``; phase 1 layers (set-up),
  the risk bound and motifs.
* ``phase2-train``: a fixed-epoch ``run_phase2`` with early stopping off;
  ODE forward and adjoint, taped solve and its backward pass. Not declared in
  BENCHMARK.json: its seconds-long operations follow the shared host's busy
  periods too closely to gate on (see README.md).
* ``fewshot-adapt``: one episode at a time through descriptor, ridge adapter
  and ``predict_task``; the untaped T=1 path that batching could slow.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the layer
functions (see ``tracing.py``) and prints the per-layer metrics. The last line
of standard output is the result as one JSON object; the lines before it give
the environment and every metric with its unit and sample count. Results and
spans are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_REPS = 3          # set-ups per run; setup_s is their median
MIN_PASSES = 2          # repeats of the same seed, so determinism is checked
PHASE2_EPOCHS = 2       # phase2-train: fixed epochs, patience above them
ADAPT_EPOCHS = 1        # fewshot-adapt: training in set-up
ADAPT_TAGS = 5          # fewshot-adapt: resample tags per (task, size)
SUPPORT_SIZES = (5, 10, 20, 50)
CORPUS_SEED_BASES = (42, 2023, 777)  # the seeds of test_planted_rank_recovery
SEED_STRIDE = 1000

# name -> (unit, better); the end-to-end set is the same on every workload
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "op_ms_best": ("ms", "lower"),
    "quality": ("ratio", "higher"),
}
PER_LAYER = {
    "spectral.fisher_energy_test_tasks.ms": ("ms", "lower"),
    "spectral.fisher_energy_test.ms": ("ms", "lower"),
    "spectral.sequential_r_selection.ms": ("ms", "lower"),
    "prototypes.cluster_prototypes.calls": ("count", "lower"),
    "prototypes.cluster_prototypes.ms": ("ms", "lower"),
    "prototypes.coverage_certificate.ms": ("ms", "lower"),
    "prototypes.merge_prototypes.ms": ("ms", "lower"),
    "synthdata.generate_corpus.ms": ("ms", "lower"),
    "adapters.ridge_adapter.calls": ("count", "lower"),
    "adapters.ridge_adapter.ms": ("ms", "lower"),
    "motifs.channel_activations.ms": ("ms", "lower"),
    "motifs.motif_test_report.ms": ("ms", "lower"),
    "motifs.calibrate_tau.ms": ("ms", "lower"),
    "motifs.perm_draws": ("count", "lower"),
    "riskbound.check_bounds_over_tasks.ms": ("ms", "lower"),
    "node.integrate.calls": ("count", "lower"),
    "node.integrate.ms": ("ms", "lower"),
    "node.adjoint_gradient.calls": ("count", "lower"),
    "node.adjoint_gradient.ms": ("ms", "lower"),
    "node.steps": ("count", "lower"),
    "node.rejected": ("count", "lower"),
    "node.accept_ratio": ("ratio", "higher"),
    "retrieval.solve_proximal.calls": ("count", "lower"),
    "retrieval.solve_proximal.ms": ("ms", "lower"),
    "retrieval.solver_iterations": ("count", "lower"),
    "retrieval.solver_restarts": ("count", "lower"),
    "retrieval.converged_frac": ("ratio", "higher"),
    "retrieval.backward_through_solve.calls": ("count", "lower"),
    "retrieval.backward_through_solve.ms": ("ms", "lower"),
    "descriptors.build_descriptor.calls": ("count", "lower"),
    "descriptors.build_descriptor.ms": ("ms", "lower"),
    "metrics.compute_metrics.calls": ("count", "lower"),
    "metrics.compute_metrics.ms": ("ms", "lower"),
    "pipeline.self.ms": ("ms", "lower"),
    "trace.wall_ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
}


def _import_library():
    """Import protoadapt from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "protoadapt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no protoadapt sources under {src}")
    sys.path.insert(0, str(src))
    import protoadapt
    if Path(protoadapt.__file__).resolve().parent != (src / "protoadapt").resolve():
        raise SystemExit(f"perfbench: protoadapt imported from {protoadapt.__file__}")
    global adapters, descriptors, metrics, pipeline, retrieval, riskbound, synthdata
    # layer functions are looked up on their modules at call time, so the
    # tracer's rebinding applies to the benchmark's own calls too
    from protoadapt import (adapters, descriptors, metrics, pipeline, retrieval,
                            riskbound, synthdata)


def environment(args) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy,
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def profile(seed: int, toy: bool):
    """The planted few-shot profile; ``toy`` shrinks it for the smoke test."""
    cfg = pipeline.fewshot_benchmark_config(seed=seed)
    if toy:
        cfg = replace(cfg, generator=replace(cfg.generator, n_tasks=120, n_query=100),
                      coverage_n_boot=100,
                      motifs=replace(cfg.motifs, n_channels=20, b_max=cfg.motifs.b_min,
                                     null_pool_size=32))
    return cfg


def corpus_seeds(seed: int) -> tuple:
    return tuple(base + SEED_STRIDE * seed for base in CORPUS_SEED_BASES)


def p99(samples) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[98]


def stat_row(name: str, unit: str, samples, stat=statistics.median, scale: float = 1.0):
    """(name, unit, value, sample count) of a statistic; no value without samples."""
    samples = samples or []
    return name, unit, scale * stat(samples) if samples else None, len(samples)


# ---------------------------------------------------------------------------
# Operation recorder
# ---------------------------------------------------------------------------

class Recorder:
    """Times operations, counts attempts and failures, checks repeats.

    ``check(result)`` returns ``(problems, signature)``. An operation fails
    if it raises or its check reports a problem; a failed operation adds no
    latency sample. Operations run again under the same key must give the
    same signature, otherwise the run is marked incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0          # operations that returned an output failing its check
        self.mismatches = 0     # repeats whose signature differs from the first run
        self.messages: list[str] = []
        self.samples: dict[str, list] = {}
        self.fastest: dict[str, dict] = {}   # kind -> key -> fastest repeat
        self.signatures: dict = {}
        self.pass_totals: list[float] = []
        self.counts: dict[str, int] = {}   # sample count behind each reported metric
        self.tracer = None
        self.group = ""

    def begin_pass(self, group: str) -> None:
        self.group = group
        self.pass_totals.append(0.0)

    def run(self, kind: str, key, fn, check):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op(self.group)
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # an operation's failure is a measurement
            self._fail(f"{kind} {key}: {type(exc).__name__}: {exc}", traceback.format_exc())
            return None
        finally:
            elapsed = time.perf_counter() - start
            self.pass_totals[-1] += elapsed
            if self.tracer is not None:
                self.tracer.end_op(elapsed)
        problems, signature = check(result)
        if problems:
            self.wrong += 1
            self._fail(f"{kind} {key}: " + "; ".join(problems))
            return None
        self.expect_same((kind, key), signature)
        self.samples.setdefault(kind, []).append(elapsed)
        fastest = self.fastest.setdefault(kind, {})
        fastest[key] = min(elapsed, fastest.get(key, elapsed))
        return result

    def best(self, kind: str) -> float | None:
        """Median over the distinct operations of ``kind`` of each one's fastest repeat."""
        fastest = self.fastest.get(kind)
        return statistics.median(fastest.values()) if fastest else None

    def expect_same(self, key, signature) -> None:
        previous = self.signatures.setdefault(key, signature)
        if previous != signature:
            self.mismatches += 1
            self._note(f"{key}: repeat differs: {previous} != {signature}")

    def _fail(self, message: str, detail: str = "") -> None:
        self.failed += 1
        self._note(message, detail)

    def _note(self, message: str, detail: str = "") -> None:
        if len(self.messages) < 20:
            self.messages.append(message)
            print(f"perfbench: {message}", file=sys.stderr)
            if detail and len(self.messages) == 1:
                print(detail, file=sys.stderr)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Phase1Verify:
    """Per-task risk-bound checks on phase-1 memories built in set-up; motifs.

    Each set-up builds the memory of the next corpus seed with ``run_phase1``,
    so the three set-ups of an untraced run build the three corpora. The
    timed operations are the per-task bound checks, each a fraction of a
    millisecond, and one ``run_motifs`` per pass.
    """

    name, kind = "phase1-verify", "bound"
    pass_s = 1.8    # one pass on a 2-vCPU x86_64 host; sizes the work of a run

    def __init__(self, seed: int, toy: bool):
        self.seed = seed
        self.toy = toy
        self.cfgs = [profile(s, toy) for s in corpus_seeds(seed)]
        self.built = []     # (config, phase-1 artifacts, feature map) per set-up

    def setup(self) -> None:
        cfg = self.cfgs[len(self.built) % len(self.cfgs)]
        artifacts = pipeline.run_phase1(cfg)
        self.built.append((cfg, artifacts, artifacts.corpus.feature_map()))

    def run_pass(self, rec: Recorder) -> None:
        for index, (cfg, artifacts, fmap) in enumerate(self.built):
            for task in artifacts.corpus.tasks:
                rec.run("bound", (index, task.task_id),
                        lambda a=artifacts, fmap=fmap, task=task:
                            riskbound.check_bounds_over_tasks([task], a.memory,
                                                              a.certificate, fmap),
                        lambda out, cfg=cfg, a=artifacts: self._check_bound(cfg, a, out))
        cfg = self.cfgs[0]
        rec.run("motifs", cfg.seed, lambda: pipeline.run_motifs(cfg),
                lambda out: self._check_motifs(cfg, out))

    @staticmethod
    def _recovered(cfg, artifacts) -> bool:
        r_true = cfg.generator.r_true
        return (artifacts.rank_selected == r_true
                and artifacts.dim_report_tasks.selected_r == r_true)

    def _check_bound(self, cfg, artifacts, bound):
        problems = []
        if not self._recovered(cfg, artifacts):
            problems.append(f"selected r: pca {artifacts.rank_selected}, task test "
                            f"{artifacts.dim_report_tasks.selected_r}; "
                            f"planted {cfg.generator.r_true}")
        eps_upper = artifacts.certificate.eps_upper
        if not np.isfinite(eps_upper):
            problems.append(f"eps_upper {eps_upper}")
        if bound.triangle_rate != 1.0 or not bound.max_triangle_violation <= 1e-9:
            problems.append(f"triangle rate {bound.triangle_rate}, "
                            f"max violation {bound.max_triangle_violation}")
        signature = (bound.triangle_rate, bound.max_triangle_violation,
                     bound.per_task_rate, bound.certified_rate)
        return problems, signature

    @staticmethod
    def _check_motifs(cfg, out):
        calibrations, report = out
        n_cohorts = len(cfg.motifs.cohorts)
        problems = []
        if len(calibrations) != n_cohorts or any(c is None for c in calibrations):
            problems.append(f"{sum(c is not None for c in calibrations)} of {n_cohorts} "
                            "calibrations returned")
        signature = (tuple(c.tau_bar for c in calibrations if c is not None),
                     int(report.b_used.sum()))
        return problems, signature

    def quality(self, rec: Recorder) -> float:
        """Share of the phase-1 memories that recovered the planted rank."""
        return sum(self._recovered(cfg, a) for cfg, a, _ in self.built) / len(self.built)

    def report(self, rec: Recorder) -> list:
        return [stat_row("bound_ms_p50", "ms", rec.samples.get("bound"), scale=1000.0),
                stat_row("motifs_s", "s", rec.samples.get("motifs"))]


class Phase2Train:
    """Fixed-epoch retrieval training on a phase-1 memory built in set-up."""

    name, kind = "phase2-train", "phase2"
    pass_s = 2.7

    def __init__(self, seed: int, toy: bool):
        self.seed = seed
        self.toy = toy
        epochs = 1 if toy else PHASE2_EPOCHS
        self.cfg = replace(profile(corpus_seeds(seed)[0], toy), epochs=epochs,
                           patience=epochs + 1)
        self.test_auc = None

    def setup(self) -> None:
        self.artifacts = pipeline.run_phase1(self.cfg)

    def run_pass(self, rec: Recorder) -> None:
        rec.run("phase2", self.cfg.seed,
                lambda: pipeline.run_phase2(self.cfg, self.artifacts), self._check)

    def _check(self, result):
        losses = [row.train_loss for row in result.history]
        problems = []
        if len(losses) != self.cfg.epochs:
            problems.append(f"trained {len(losses)} epochs, expected {self.cfg.epochs}")
        if not np.all(np.isfinite(losses)):
            problems.append(f"train losses {losses}")
        self.test_auc = result.metrics["test"].auc
        signature = (self.test_auc, tuple(losses),
                     tuple(row.val_auc for row in result.history))
        return problems, signature

    def quality(self, rec: Recorder) -> float:
        return self.test_auc

    def report(self, rec: Recorder) -> list:
        return [stat_row("phase2_s", "s", rec.samples.get("phase2")),
                ("test_auc", "ratio", self.test_auc, 1)]


class FewshotAdapt:
    """One-episode-at-a-time adaptation with a trained retrieval network."""

    name, kind = "fewshot-adapt", "adapt"
    pass_s = 0.75

    def __init__(self, seed: int, toy: bool):
        self.seed = seed
        self.toy = toy
        self.tags = 1 if toy else ADAPT_TAGS
        self.cfg = replace(profile(corpus_seeds(seed)[0], toy), epochs=ADAPT_EPOCHS,
                           patience=ADAPT_EPOCHS + 1)

    def setup(self) -> None:
        cfg = self.cfg
        artifacts = pipeline.run_phase1(cfg)
        self.trained = pipeline.run_phase2(cfg, artifacts)
        corpus = artifacts.corpus
        self.episodes = [synthdata.resample_support(corpus, task, size,
                                                    tag=f"adapt-{self.seed}-{k}")
                         for k in range(self.tags) for size in SUPPORT_SIZES
                         for task in corpus.tasks_in("Ret-Test")]
        self.artifacts = artifacts
        self.fmap = corpus.feature_map()
        self.pcfg = pipeline._proximal_config(cfg)  # support-size-scaled proximity
        self.r_keep = (cfg.r_keep if cfg.r_keep is not None
                       else min(artifacts.rank_selected, artifacts.memory.K))
        self.adapt_auc = None

    def run_pass(self, rec: Recorder) -> None:
        probs, labels = [], []
        for index, task in enumerate(self.episodes):
            out = rec.run("adapt", index, lambda task=task: self._adapt(task), self._check)
            if out is not None:
                probs.append(out[0])
                labels.append(task.query_y)
        self.adapt_auc = metrics.rank_auc(np.concatenate(probs), np.concatenate(labels))
        rec.expect_same("adapt_auc", self.adapt_auc)

    def _adapt(self, task):
        a, cfg = self.artifacts, self.cfg
        descriptor = descriptors.build_descriptor(task, a.probe, a.memory.chain,
                                                  a.standardizer, self.fmap)
        theta_hat = adapters.ridge_adapter(task, self.fmap,
                                           cfg.ridge_alpha_retrieval * task.n_support)
        return retrieval.predict_task(task, a.memory, self.trained.net, descriptor,
                                      theta_hat, self.pcfg, self.r_keep, self.fmap,
                                      transform=self.trained.transform,
                                      hard_threshold=cfg.hard_threshold)

    def _check(self, out):
        probs, solution = out
        problems = []
        if not (np.all(np.isfinite(probs)) and np.all((probs >= 0.0) & (probs <= 1.0))):
            problems.append("probabilities not finite or outside [0, 1]")
        if len(solution.active_set) > self.r_keep:
            problems.append(f"active set {solution.active_set} above r_keep {self.r_keep}")
        signature = (solution.iterations, solution.restarts, solution.converged,
                     tuple(int(i) for i in solution.active_set))
        return problems, signature

    def quality(self, rec: Recorder) -> float:
        return self.adapt_auc

    def report(self, rec: Recorder) -> list:
        samples = rec.samples.get("adapt")
        return [stat_row("adapt_ms_p50", "ms", samples, scale=1000.0),
                stat_row("adapt_ms_p99", "ms", samples, p99, 1000.0),
                ("adapt_auc", "ratio", self.adapt_auc, 1)]


WORKLOADS = {w.name: w for w in (Phase1Verify, Phase2Train, FewshotAdapt)}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def pass_count(workload, seconds: float) -> int:
    """Passes in a run: ``seconds`` of work at the nominal pass duration.

    The count depends only on the arguments, so every run of one seed does
    the same operations and reports the same ``attempted`` and ``failed``.
    """
    return max(MIN_PASSES, math.ceil(seconds / workload.pass_s))


def _passes(workload, rec: Recorder, passes: int, tracer=None):
    """Closed loop of ``passes`` passes.

    Untraced, every pass is measured. Traced, a first untraced pass warms the
    code paths set-up did not reach; then passes alternate traced and
    untraced (at least two traced and one untraced), so the overhead is taken
    between neighbours. Returns the indices (into ``rec.pass_totals``) of the
    traced and the untraced passes.
    """
    traced, untraced = [], []
    if tracer is not None:
        rec.begin_pass("warmup")
        workload.run_pass(rec)
        passes = max(passes, MIN_PASSES + 1)
    for _ in range(passes):
        index = len(rec.pass_totals)
        on = tracer is not None and len(traced) <= len(untraced)
        (traced if on else untraced).append(index)
        rec.begin_pass(f"pass{index}")
        rec.tracer = tracer if on else None
        if on:
            tracer.install()
        try:
            workload.run_pass(rec)
        finally:
            if on:
                tracer.uninstall()
    return traced, untraced


def measure(workload, seconds: float, trace: bool) -> tuple:
    """Set up, run the timed passes, and return (recorder, metrics)."""
    rec = Recorder()
    passes = pass_count(workload, seconds)
    if not trace:
        setup_s = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - start)
        gc.collect()
        _passes(workload, rec, passes)
        samples = rec.samples.get(workload.kind, [])
        values = {"setup_s": statistics.median(setup_s),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "op_ms_best": 1000.0 * rec.best(workload.kind) if samples else None,
                  "quality": workload.quality(rec)}
        rec.counts = {"setup_s": len(setup_s), "peak_rss_mb": 1,
                      "op_ms_best": len(samples), "quality": len(samples)}
        return rec, values

    tracer = Tracer()
    tracer.install()
    tracer.begin_op("setup")
    start = time.perf_counter()
    try:
        workload.setup()
    finally:
        tracer.end_op(time.perf_counter() - start)
        tracer.uninstall()
    gc.collect()
    traced, untraced = _passes(workload, rec, passes, tracer)
    for index in traced:   # work counters must repeat exactly
        layer = tracer.layer_metrics([f"pass{index}"])
        rec.expect_same("layer counters", tuple(
            (name, value) for name, value in sorted(layer.items())
            if not name.endswith("ms")))
    totals = rec.pass_totals
    chosen = sorted(traced, key=lambda i: totals[i])[(len(traced) - 1) // 2]
    values = tracer.layer_metrics(["setup", f"pass{chosen}"])
    values["trace.overhead_ms"] = 1000.0 * (statistics.median(totals[i] for i in traced)
                                            - statistics.median(totals[i] for i in untraced))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{workload.name}-seed{workload.seed}"
                                 f"{'-toy' if workload.toy else ''}.csv")
    return rec, values


def result_line(rec: Recorder, values: dict, spec: dict) -> dict:
    missing = [name for name in spec if values.get(name) is None]
    if missing:
        raise RuntimeError(f"no measurement for {missing}; see the failures above")
    return {"correct": rec.wrong == 0 and rec.mismatches == 0,
            "attempted": rec.attempted, "failed": rec.failed,
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, (unit, _) in spec.items()}}


def describe(workload, rec: Recorder, values: dict, trace: bool) -> list:
    """Human-readable lines: every metric with its unit and sample count."""
    lines = [f"== {workload.name} (trace {int(trace)}) passes {len(rec.pass_totals)}, "
             f"attempted {rec.attempted}, failed {rec.failed}, wrong {rec.wrong}, "
             f"repeat mismatches {rec.mismatches}"]
    rows = [("fail_frac", "ratio", rec.failed / max(rec.attempted, 1), rec.attempted)]
    if trace:
        rows += [(name, unit, values[name], 1) for name, (unit, _) in PER_LAYER.items()]
    else:
        rows += [(name, unit, values[name], rec.counts[name])
                 for name, (unit, _) in END_TO_END.items()]
        rows += workload.report(rec)
    for name, unit, value, n in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<42} {shown:>14} {unit:<6} n={n}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="work per workload, as seconds of passes at their nominal "
                             "duration (at least two passes run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="shrunken profile, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    _import_library()
    env = environment(args)
    print("env " + json.dumps(env), flush=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    spec = PER_LAYER if args.trace else END_TO_END
    results = {}
    for name in names:
        workload = WORKLOADS[name](args.seed, args.toy)
        rec, values = measure(workload, args.seconds, bool(args.trace))
        results[name] = result_line(rec, values, spec)
        print("\n".join(describe(workload, rec, values, bool(args.trace))), flush=True)
        OUT_DIR.mkdir(exist_ok=True)
        record = {"env": {**env, "workload": name}, "result": results[name],
                  "samples_s": rec.samples, "pass_totals_s": rec.pass_totals,
                  "failures": rec.messages}
        if not args.trace:
            record["report"] = {row[0]: row[2] for row in workload.report(rec)}
        path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}.json"
        path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{wl}/{m}": v for wl, r in results.items()
                        for m, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
