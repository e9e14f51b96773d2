"""End-to-end orchestration: memory construction, retrieval training, baselines,
motif statistics, bound checks, and the report bundle.

Phase 1 estimates seed adapters, selects the rank, freezes the projection,
clusters prototypes, and certifies coverage. Phase 2 trains the retrieval
network (behind an optional residual descriptor warp) on the outer objective
with early stopping.
The lambda-eta penalty sweep and the support-size sweep are steps of their
own (``run_penalty_sweep``, ``run_support_sweep``) that reuse the trained
network; so is the motif power curve (``run_power_curve``). ``run_*``
functions compute; ``persist_*`` functions only write.
All tabular outputs are deterministic functions of the run configuration;
time and memory go to runtime.txt only, never into CSVs: each timed stage
appends one line, ``stage=<name> ms=<wall ms>[ tasks=<n>] rss_mb=<MB>
run=<config hash>`` (``util.StageTimer``). Per-task latency is ms / tasks;
``rss_mb`` is the process's peak resident set so far, not the stage's own.
Phase 1's line is followed by one line per step inside it (``phase1.corpus``,
``phase1.adapters``, ``phase1.rank``, ``phase1.memory``, ``phase1.merge``,
``phase1.certificate``, ``phase1.standardizer``), and phase 2's fit line by
``phase2.fit.inputs`` (the splits' descriptors, adapters and query blocks)
and ``phase2.fit.train``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .adapters import (
    RIDGE_ALPHA,
    Canonicalizer,
    assemble_theta,
    fit_canonicalizer,
    ridge_adapter,
    ridge_fit,
)
from .descriptors import ProbeHead, Standardizer, build_descriptor, descriptors_to_csv
from .metrics import calibration_bins, compute_metrics
from .motifs import (
    CALIB_FRAC,
    DESK_PERMUTATION_FLOOR,
    N_INNER_FOLDS,
    CalibrationError,
    calibrate_tau,
    channel_activations,
    fit_background,
    make_channels,
    motif_test_report,
    power_curve,
    stratified_part_size,
)
from .prototypes import (
    KAPPA_THRESHOLD,
    MU_THRESHOLD,
    ProjectionChain,
    cluster_prototypes,
    coverage_certificate,
    coverage_fits,
    merge_prototypes,
)
from .retrieval import (
    Episodes,
    ProximalConfig,
    TrainConfig,
    objective_trace,
    predict_tasks,
    sweep_lambda_eta,
    train_retrieval,
)
from .riskbound import BoundReport, check_bounds_over_tasks, feature_radius_of
from .spectral import (
    TaskGradientSummary,
    corpus_fisher_matrix,
    feature_gradients,
    fisher_energy_test_tasks,
    jl_outside_energy,
    pca_rank,
    rank_curve,
)
from .synthdata import (
    FRAC_PRE,
    FRAC_SEED,
    RET_FRACS,
    GeneratorConfig,
    generate_corpus,
    partition_sizes,
    partition_tags,
    resample_support,
    save_corpus_manifest,
)
from .tanhmap import TanhMap
from .util import (
    StageTimer,
    check_fields,
    check_finite,
    child_rng,
    config_hash,
    require,
    sigmoid,
    write_csv,
    write_json,
    write_records,
)

# Grids from the experiment protocol: RunConfig.k_grid's default (the profiles
# override it), the penalty sweep's lambdas, and the seed-stability and
# support-sweep defaults.
DEFAULT_K_GRID = (50, 100, 200)
DEFAULT_LAMBDA_GRID = (1e-6, 1e-5, 1e-4, 1e-3)
DEFAULT_SEEDS = (42, 2023, 777)
DEFAULT_SUPPORT_SIZES = (5, 10, 20, 50)
# the energy fraction that sets the PCA rank, and the fractions of the rank curve
RHO = 0.99
RHO_LIST = (0.9, 0.95, RHO)


@dataclass
class WarpConfig:
    kind: str = "mlp"          # "mlp" (residual z + map(z)) or "none"
    hidden: int = 8
    init_scale: float = 0.1

    BOUNDS = {"hidden": (">=", 1)}


@dataclass
class MotifRunConfig:
    n_channels: int = 60
    n_pos: int = 20
    n_neg: int = 20
    b_min: int = DESK_PERMUTATION_FLOOR
    b_max: int = 20_000
    null_pool_size: int = 128
    cohorts: tuple[str, ...] = ("cohortA", "cohortB", "cohortC", "cohortD", "cohortE")

    BOUNDS = {"n_channels": (">=", 1), "b_min": (">=", 1), "null_pool_size": (">=", 1)}


@dataclass
class RunConfig:
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    seed: int = 42

    # rank selection and memory
    k_grid: tuple[int, ...] = DEFAULT_K_GRID
    n_restarts: int = 8
    # per-sample ridge coefficient for few-shot supports (the effective
    # penalty is alpha * n_support, keeping the shrinkage ratio constant
    # across support sizes); tuned on validation splits
    ridge_alpha_retrieval: float = 0.2
    coverage_n_boot: int = 1000
    canonicalize: bool = True
    fixed_r: int | None = None          # ablation: skip rank selection

    # retrieval
    gamma: float = 0.1                  # at retrieval.GAMMA_REF_SIZE support examples
    r_keep: int | None = None           # None: min(selected rank, K); see _r_keep
    hard_threshold: bool = True         # ablation C: False is r_keep = K (see _r_keep)
    epochs: int = 400
    weight_decay: float = 0.0
    patience: int = 40
    # support sizes of the training episodes, one per task and size; the smallest
    # is also the validation, test and standardizer size
    train_sizes: tuple[int, ...] = DEFAULT_SUPPORT_SIZES

    # descriptor warp and motifs
    warp: WarpConfig = field(default_factory=WarpConfig)
    motifs: MotifRunConfig = field(default_factory=MotifRunConfig)

    BOUNDS = {"k_grid": (">=", 1), "n_restarts": (">=", 1), "ridge_alpha_retrieval": (">", 0.0),
              "coverage_n_boot": (">=", 1), "fixed_r": (">=", 1), "gamma": (">=", 0.0),
              "r_keep": (">=", 1), "epochs": (">=", 1), "weight_decay": (">=", 0.0),
              "patience": (">=", 0), "train_sizes": (">=", 2)}

    def validate(self) -> None:
        """Refuse a bad value by name: ``section.field must be …, got …``.

        ``util.check_fields`` checks each section's annotated types and ``BOUNDS``. The
        cross-field rules: generator.r_true (in ``GeneratorConfig.validate``) and fixed_r
        at most generator.d_theta; r_keep only with hard_threshold; motifs.b_max >=
        motifs.b_min; warp.kind "mlp" or "none"; the motif calibration fold's minimum; and
        at least max(2, min(k_grid)) Pre-Seed tasks from generator.n_tasks.
        """
        gen, warp, mot = self.generator, self.warp, self.motifs
        check_fields(self, self.BOUNDS, "")
        gen.validate()
        check_fields(warp, warp.BOUNDS, "warp.")
        check_fields(mot, mot.BOUNDS, "motifs.")
        require(self.fixed_r is None or self.fixed_r <= gen.d_theta,
                f"fixed_r must be at most generator.d_theta = {gen.d_theta}, got {self.fixed_r}")
        require(self.r_keep is None or self.hard_threshold, f"r_keep must be None when "
                f"hard_threshold is False (the soft rule keeps all K), got {self.r_keep}")
        require(mot.b_max >= mot.b_min,
                f"motifs.b_max must be at least motifs.b_min = {mot.b_min}, got {mot.b_max}")
        require(warp.kind in ("mlp", "none"),
                f"warp.kind must be 'mlp' or 'none', got {warp.kind!r}")
        # calibrate_tau splits its stratified calibration fold into inner folds of two or more
        fold = (stratified_part_size(mot.n_pos, CALIB_FRAC)
                + stratified_part_size(mot.n_neg, CALIB_FRAC))
        require(fold >= 2 * N_INNER_FOLDS,
                f"motifs.n_pos = {mot.n_pos} and motifs.n_neg = {mot.n_neg} leave a calibration "
                f"fold of {fold} repertoires, below {2 * N_INNER_FOLDS}")
        need = max(2, min(self.k_grid))  # two for the rank test, min(k_grid) for the memory
        require(partition_sizes(gen.n_tasks, FRAC_PRE, FRAC_SEED, RET_FRACS)["Pre-Seed"] >= need,
                f"generator.n_tasks must leave at least max(2, min(k_grid)) = {need} "
                f"Pre-Seed tasks, got {gen.n_tasks}")

    def to_dict(self) -> dict:
        # one level of sections; json writes the tuples as lists
        return {k: dict(vars(v)) if is_dataclass(v) else v for k, v in vars(self).items()}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        def tuples(section: dict) -> dict:  # JSON has lists where a config has tuples
            return {k: tuple(v) if isinstance(v, list) else v for k, v in section.items()}

        sections = {"generator": GeneratorConfig, "warp": WarpConfig, "motifs": MotifRunConfig}
        cfg = cls(**{k: sections[k](**tuples(v)) if k in sections else v
                     for k, v in tuples(data).items()})
        cfg.validate()
        return cfg

    def hash(self) -> str:
        return config_hash(self.to_dict())


def desk_config(seed: int = 42) -> RunConfig:
    """Small-corpus profile that exercises every stage in seconds."""
    return RunConfig(
        generator=GeneratorConfig(d_theta=8, q=16, r_true=2, n_tasks=120,
                                  n_support=300, n_query=60, seed=seed, n_clusters=3,
                                  cluster_spread=0.10),
        seed=seed,
        k_grid=(4, 6, 8),
        epochs=80,
        patience=30,
        train_sizes=(5,),
        weight_decay=2e-3,
    )


def fewshot_benchmark_config(seed: int = 42) -> RunConfig:
    """The planted-corpus profile used for few-shot scaling and seed stability.

    It trains at every support size the support sweep evaluates.
    """
    return RunConfig(
        generator=GeneratorConfig(d_theta=8, q=16, r_true=2, n_tasks=240,
                                  n_support=800, n_query=400, seed=seed, n_clusters=3,
                                  cluster_spread=0.10),
        seed=seed,
        k_grid=(4, 6, 8),
        epochs=300,
        patience=60,
        weight_decay=2e-3,
    )


# ---------------------------------------------------------------------------
# Descriptor warp
# ---------------------------------------------------------------------------

class MlpTransform(TanhMap):
    """Residual descriptor warp z + map(z); it trains in the network's Adam step.

    ``vjp`` is the map's: its parameter gradients are the warp's, its input
    gradient leaves out the identity term.
    """

    def forward(self, z: np.ndarray):
        """The warped point and the map's hidden layer."""
        y, h = super().forward(z)
        return z + y, h


def make_transform(d_z: int, cfg: WarpConfig, seed: int):
    """The configured descriptor warp, or None when ``cfg.kind`` is "none"."""
    if cfg.kind == "none":
        return None
    require(cfg.kind == "mlp", f"warp.kind must be 'mlp' or 'none', got {cfg.kind!r}")
    return MlpTransform(d_z, cfg.hidden, d_z, seed, "mlp-transform", cfg.init_scale)


# ---------------------------------------------------------------------------
# Phase 1
# ---------------------------------------------------------------------------

def _support_size(cfg: RunConfig) -> int:
    """The smallest training size.

    Validation and test episodes use it, so the hardest regime drives early
    stopping and is the reported few-shot operating point; so do the tasks
    the descriptor standardizer is fitted on.
    """
    return min(cfg.train_sizes)


def _r_keep(cfg: RunConfig, r: int, k: int) -> int:
    """The operating sparsity: K when soft, else the configured ``r_keep``, else min(r, K).

    The top-r rule keeps this many activations in every phase-2 step; phase 1
    merges and certifies coverage at it too, capped at r.
    """
    if not cfg.hard_threshold:
        return k
    return cfg.r_keep if cfg.r_keep is not None else min(r, k)


@dataclass
class Phase1Artifacts:
    cfg: RunConfig
    corpus: object
    theta_seed: object
    theta_pre: object
    rank_selected: int
    dim_report_tasks: object
    rank_curve: list
    jl_report: object
    memory: object
    certificate: object
    probe: ProbeHead
    standardizer: Standardizer
    merge_log: list
    k_chosen: int
    notes: list
    runtime: list           # the phase1 stage line, then one per step inside it


def build_corpus(cfg: RunConfig):
    """Phase 1's first step, which ``protoadapt generate`` runs on its own.

    Validates the config, then generates the corpus with every task tagged by
    its partition. The tags come first, so only the pretraining tasks keep
    their full supports. Returns the tagged corpus.
    """
    cfg.validate()
    return generate_corpus(cfg.generator, partition_tags(cfg.generator.n_tasks, cfg.seed))


def run_phase1(cfg: RunConfig, outdir: Path | None = None) -> Phase1Artifacts:
    """Memory construction: adapters, rank rule and check, clustering, certificate.

    ``pca_rank`` sets the rank; the task-resampling Fisher test is recorded as
    the check against it.
    """
    timer = StageTimer(cfg.hash())
    with timer.stage("phase1", None):
        with timer.stage("phase1.corpus", None):
            corpus = build_corpus(cfg)
            fmap = corpus.feature_map()
        notes: list[str] = []

        seed_tasks = corpus.tasks_in("Pre-Seed")
        pre_tasks = corpus.tasks_in("Pre-Seed", "Pre-Rest")
        adapters, summaries = {}, []
        with timer.stage("phase1.adapters", len(pre_tasks)):
            # each Pre support is mapped once, for its adapter and, on a Pre-Seed task, the
            # rank test's gradient summary; one task's features at a time, since holding all
            # 120 fewshot supports' (800 x 8 floats each) raised peak RSS by 6 MB
            for t in pre_tasks:
                x = check_finite(fmap(t.support_x), "support features")
                adapters[t.task_id] = ridge_fit(x, t.support_y, RIDGE_ALPHA)
                if t.partition == "Pre-Seed":
                    summaries.append(TaskGradientSummary.from_gradients(
                        feature_gradients(x, t.support_y)))
            theta_seed = assemble_theta([adapters[t.task_id] for t in seed_tasks],
                                        task_ids=[t.task_id for t in seed_tasks])
            theta_pre = assemble_theta([adapters[t.task_id] for t in pre_tasks],
                                       task_ids=[t.task_id for t in pre_tasks])

        with timer.stage("phase1.rank", None):
            if cfg.fixed_r is not None:
                r_selected = cfg.fixed_r
                notes.append(f"rank selection disabled; fixed r={r_selected}")
            else:
                r_selected = pca_rank(theta_seed, RHO)

            dim_report_tasks = fisher_energy_test_tasks(summaries, r_center=r_selected,
                                                        seed=cfg.seed)
            curve = rank_curve(theta_seed, RHO_LIST, seed=cfg.seed)

            canon = (fit_canonicalizer(theta_seed) if cfg.canonicalize
                     else Canonicalizer.identity(theta_seed.d_theta))
            chain = ProjectionChain(canonicalizer=canon, r=r_selected)

            rest_tasks = corpus.tasks_in("Pre-Rest")
            jl_report = None
            d_theta = theta_seed.d_theta
            s_dim = min(d_theta - 1, max(r_selected + 1, (r_selected + d_theta) // 2))
            if len(rest_tasks) >= 3 and r_selected < s_dim < d_theta:
                holdout = assemble_theta([adapters[t.task_id] for t in rest_tasks])
                fisher_mat = corpus_fisher_matrix(summaries, bias_correct=False)
                jl_report = jl_outside_energy(holdout, fisher_mat, r=r_selected, s=s_dim,
                                              n_maps=16, seed=cfg.seed)
            else:
                notes.append("projection leakage check skipped: no holdout dimension "
                             f"with r={r_selected} < s < d={d_theta} available")

        with timer.stage("phase1.memory", None):
            n_seed = theta_seed.n_tasks
            usable_k = [k for k in cfg.k_grid if k <= n_seed]
            if len(usable_k) < len(cfg.k_grid):
                notes.append(f"K grid values above the seed count {n_seed} skipped: "
                             f"{[k for k in cfg.k_grid if k > n_seed]}")
            # K selection: best cluster separation (silhouette), restart stability
            # as the tie-breaker, then parsimony
            candidates = []
            for k in usable_k:
                mem = cluster_prototypes(theta_seed, chain, k=k,
                                         n_restarts=cfg.n_restarts, seed=cfg.seed)
                candidates.append((round(mem.silhouette, 6), mem.restart_stability, -k, mem))
            candidates.sort(key=lambda c: (c[0], c[1], c[2]), reverse=True)
            memory = candidates[0][3]
            k_chosen = memory.K

        def fit_sparsity(k):
            # the retrieval's operating sparsity, within what l0_fit accepts
            return min(_r_keep(cfg, r_selected, k), r_selected, k)

        merge_log, fits = [], None
        with timer.stage("phase1.merge", None):
            if memory.mu > MU_THRESHOLD or memory.kappa > KAPPA_THRESHOLD:
                # fit_sparsity(k) is min(c, k) for a c that k does not set, so the fits
                # merging returns for its final rows are at fit_sparsity(memory.K)
                memory, merge_log, fits = merge_prototypes(memory, theta_pre=theta_pre,
                                                           r_sparse=fit_sparsity(memory.K))
                notes.append(f"prototype merging triggered: {len(merge_log)} merges, "
                             f"K {k_chosen} -> {memory.K}")

        with timer.stage("phase1.certificate", len(pre_tasks)):
            if fits is None:
                fits = coverage_fits(memory.chain, memory.centroids, theta_pre,
                                     fit_sparsity(memory.K))
            certificate = coverage_certificate(fits, n_boot=cfg.coverage_n_boot, seed=cfg.seed)
        if certificate.r_sparse == r_selected:
            notes.append(f"coverage certified at sparsity r={r_selected}: r prototypes "
                         "span the r-dimensional projected space, so the fit is exact "
                         "and eps_upper is zero up to rounding")

        with timer.stage("phase1.standardizer", len(pre_tasks)):
            probe = ProbeHead.create(cfg.generator.d_theta, seed=cfg.seed)
            # standardization statistics must match the support sizes the retrieval
            # stage will see; the fit set stays pretraining-only
            std_size = _support_size(cfg)
            standardizer = Standardizer().fit_from_tasks(
                [resample_support(corpus, t, std_size, tag="standardizer") for t in pre_tasks])

    artifacts = Phase1Artifacts(
        cfg=cfg, corpus=corpus, theta_seed=theta_seed,
        theta_pre=theta_pre, rank_selected=r_selected,
        dim_report_tasks=dim_report_tasks, rank_curve=curve,
        jl_report=jl_report, memory=memory, certificate=certificate,
        probe=probe, standardizer=standardizer, merge_log=merge_log,
        k_chosen=k_chosen, notes=notes, runtime=timer.lines,
    )
    if outdir is not None:
        persist_phase1(artifacts, Path(outdir))
    return artifacts


def persist_phase1(artifacts: Phase1Artifacts, outdir: Path) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = artifacts.cfg
    write_json(outdir / "config.json", {"config": cfg.to_dict(), "hash": cfg.hash()})
    save_corpus_manifest(artifacts.corpus, outdir / "corpus_manifest.json")
    artifacts.theta_seed.to_csv(outdir / "adapters_seed.csv")
    artifacts.dim_report_tasks.to_csv(outdir / "rank_test_tasks.csv")
    write_records(outdir / "rank_curve.csv", artifacts.rank_curve)
    if artifacts.jl_report is not None:
        jl = artifacts.jl_report
        write_csv(outdir / "projection_energy.csv",
                  ["map_index", "outside_fraction", "upper95", "threshold", "accept"],
                  [[i, f, jl.upper95, jl.threshold, jl.accept]
                   for i, f in enumerate(jl.fractions)])
    artifacts.memory.save(outdir / "memory.csv", outdir / "memory.json", artifacts.certificate)
    if artifacts.merge_log:
        lines = [f"merge pair={evt.pair} mu_before={evt.mu_before:.6f} "
                 f"K_after={evt.k_after} coverage {evt.coverage_before} -> {evt.coverage_after}"
                 for evt in artifacts.merge_log]
        (outdir / "merge_log.txt").write_text("\n".join(lines) + "\n")
    write_json(outdir / "phase1_summary.json", {
        "rank_selected": artifacts.rank_selected,
        "fisher_selected_tasks": artifacts.dim_report_tasks.selected_r,
        "k_chosen": artifacts.k_chosen,
        "k_final": artifacts.memory.K,
        "kappa": None if np.isinf(artifacts.memory.kappa) else artifacts.memory.kappa,
        "mu": artifacts.memory.mu,
        "eps_hat": artifacts.certificate.eps_hat,
        "eps_upper": artifacts.certificate.eps_upper,
        "notes": artifacts.notes,
    })
    _append(outdir / "runtime.txt", artifacts.runtime)


# ---------------------------------------------------------------------------
# Phase 2
# ---------------------------------------------------------------------------

@dataclass
class Phase2Result:
    net: object
    transform: object
    history: list
    metrics: dict
    splits: dict            # "train", "val", "test" -> the split's Episodes
    runtime: list           # stage lines of the fit and of each split's predictions
    stopped_epoch: int
    test_probs: np.ndarray
    test_labels: np.ndarray
    calibration: list       # calibration_bins of the test predictions
    solver_trace: list      # objective per active-set iteration of the first test task


def _ret_tasks_at_size(artifacts: Phase1Artifacts, tag: str, size: int):
    return [resample_support(artifacts.corpus, t, size, tag="support-size")
            for t in artifacts.corpus.tasks_in(tag)]


def _ret_train_tasks(artifacts: Phase1Artifacts, sizes):
    """One training episode per (task, size), its id suffixed "@size"."""
    return [replace(task, task_id=f"{task.task_id}@{size}") for size in sizes
            for task in _ret_tasks_at_size(artifacts, "Ret-Train", size)]


def _prepare_inputs(cfg: RunConfig, artifacts: Phase1Artifacts, tasks) -> Episodes:
    """The tasks' phase-2 inputs: descriptors, support adapters and query coordinates."""
    fmap = artifacts.corpus.feature_map()
    z = [build_descriptor(task, artifacts.probe, artifacts.memory.chain,
                          artifacts.standardizer, fmap) for task in tasks]
    theta_hats = [ridge_adapter(task, fmap, cfg.ridge_alpha_retrieval * task.n_support)
                  for task in tasks]
    return Episodes.of(tasks, np.stack(z), np.stack(theta_hats), artifacts.memory, fmap)


def _proximal_config(cfg: RunConfig) -> ProximalConfig:
    """The solver settings; retrieval scales gamma to each task's support size."""
    return ProximalConfig(gamma=cfg.gamma)


def _gamma_zero_problem(cfg: RunConfig, memory) -> str | None:
    """Why ``cfg`` cannot solve on ``memory``, or None.

    At gamma = 0, H = M M^T is singular when the memory's rank is below K,
    and the inner problem has no unique minimizer.
    """
    if cfg.gamma == 0.0 and memory.rank < memory.K:
        return (f"gamma = 0 needs a memory of full rank, but its rank is {memory.rank} "
                f"< K = {memory.K}")
    return None


def _append(path: Path, lines) -> None:
    with open(path, "a") as fh:
        fh.write("".join(f"{line}\n" for line in lines))


def _prefixed(prefix: str, lines) -> list:
    """Stage lines whose names start with ``prefix.``: one run's stages inside another's."""
    return [line.replace("stage=", f"stage={prefix}.", 1) for line in lines]


def _split_metrics(artifacts, episodes, net, transform, pcfg, r_keep, timer: StageTimer,
                   stage: str):
    """Pooled metrics, probabilities, labels and solution; ``stage`` times the predictions."""
    with timer.stage(stage, len(episodes.task_ids)):
        probs, labels, solution = predict_tasks(episodes, artifacts.memory, net, pcfg,
                                                r_keep, transform=transform)
    return compute_metrics(probs, labels), probs, labels, solution


def run_phase2(cfg: RunConfig, artifacts: Phase1Artifacts,
               outdir: Path | None = None, seed: int | None = None) -> Phase2Result:
    """Retrieval training on the anti-leakage splits plus test metrics."""
    seed = cfg.seed if seed is None else seed
    size = _support_size(cfg)
    timer = StageTimer(cfg.hash())
    problem = _gamma_zero_problem(cfg, artifacts.memory)
    require(problem is None, problem)
    pcfg = _proximal_config(cfg)
    r_keep = _r_keep(cfg, artifacts.rank_selected, artifacts.memory.K)
    with timer.stage("phase2.fit", None):
        with timer.stage("phase2.fit.inputs", None):
            splits = {tag: _prepare_inputs(cfg, artifacts, tasks) for tag, tasks in (
                ("train", _ret_train_tasks(artifacts, cfg.train_sizes)),
                ("val", _ret_tasks_at_size(artifacts, "Ret-Val", size)),
                ("test", _ret_tasks_at_size(artifacts, "Ret-Test", size)))}
        with timer.stage("phase2.fit.train", None):
            transform = make_transform(splits["train"].z.shape[1], cfg.warp, seed=seed)
            tcfg = TrainConfig(epochs=cfg.epochs, weight_decay=cfg.weight_decay,
                               patience=cfg.patience, seed=seed, r_keep=r_keep)
            result = train_retrieval(splits["train"], artifacts.memory, pcfg, tcfg,
                                     val=splits["val"], transform=transform)

    evaluated = {tag: _split_metrics(artifacts, episodes, result.net, transform, pcfg,
                                     r_keep, timer, f"phase2.predict.{tag}")
                 for tag, episodes in splits.items()}
    _, test_probs, test_labels, test_solution = evaluated["test"]

    out = Phase2Result(net=result.net, transform=transform, history=result.history,
                       metrics={tag: split[0] for tag, split in evaluated.items()},
                       splits=splits, runtime=timer.lines,
                       stopped_epoch=result.stopped_epoch,
                       test_probs=test_probs, test_labels=test_labels,
                       calibration=calibration_bins(test_probs, test_labels),
                       solver_trace=objective_trace(
                           splits["test"].theta_hats[0], artifacts.memory,
                           test_solution.p[0], pcfg.lam, test_solution.gamma[0]).tolist())
    if outdir is not None:
        persist_phase2(out, Path(outdir))
    return out


def persist_phase2(result: Phase2Result, outdir: Path) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_records(outdir / "training_curve.csv", result.history)
    write_records(outdir / "metrics.csv",
                  [{"split": tag, **vars(rec)} for tag, rec in result.metrics.items()])
    write_records(outdir / "calibration_bins.csv", result.calibration)
    descriptors_to_csv(result.splits.values(), outdir / "descriptors.csv")

    # trained retrieval parameters into the run manifest: the network, and the
    # descriptor warp when there is one
    write_json(outdir / "retrieval_net.json",
               {name: arr.tolist() for name, arr in result.net.params.items()})
    if result.transform is not None:
        write_json(outdir / "retrieval_warp.json",
                   {name: arr.tolist() for name, arr in result.transform.params.items()})
    write_csv(outdir / "solver_trace.csv", ["iteration", "objective"],
              list(enumerate(result.solver_trace)))

    _append(outdir / "run.log", [f"phase2 stopped at epoch {result.stopped_epoch}"])
    _append(outdir / "runtime.txt", result.runtime)


def run_penalty_sweep(cfg: RunConfig, artifacts: Phase1Artifacts, phase2: Phase2Result,
                      outdir: Path | None = None):
    """Validation surface over the (lam, eta) penalty grid with the trained net.

    Reuses phase 2's validation block, so no input is rebuilt.
    """
    timer = StageTimer(cfg.hash())
    with timer.stage("penalty_sweep", None):
        surface = sweep_lambda_eta(DEFAULT_LAMBDA_GRID, (0.0, TrainConfig.eta),
                                   phase2.splits["val"], artifacts.memory, phase2.net,
                                   _proximal_config(cfg),
                                   _r_keep(cfg, artifacts.rank_selected, artifacts.memory.K),
                                   transform=phase2.transform)
    if outdir is not None:
        outdir = Path(outdir)
        write_records(outdir / "sweep_lambda_eta.csv", surface)
        _append(outdir / "runtime.txt", timer.lines)
    return surface


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def _nearest_centroid_probs(task):
    """Query probabilities from the distance margin to the support's class centroids."""
    c_pos = task.support_x[task.support_y == 1].mean(axis=0)
    c_neg = task.support_x[task.support_y == 0].mean(axis=0)
    return sigmoid(np.linalg.norm(task.query_x - c_neg, axis=1)
                   - np.linalg.norm(task.query_x - c_pos, axis=1))


def run_baselines(cfg: RunConfig, artifacts: Phase1Artifacts,
                  outdir: Path | None = None, support_size: int | None = None):
    """Support-side ridge, nearest-centroid, and the query-trained oracle ridge.

    Supports default to phase 2's evaluation size, so the baselines and the
    retrieval report the same few-shot operating point. Returns each
    baseline's test metrics by name; each baseline's predictions are one stage.
    """
    size = support_size if support_size is not None else _support_size(cfg)
    test_tasks = _ret_tasks_at_size(artifacts, "Ret-Test", size)
    fmap = artifacts.corpus.feature_map()

    def ridge(donor, task):
        return sigmoid(fmap(task.query_x) @ ridge_adapter(donor, fmap))

    predictors = {
        "ridge_support": lambda task: ridge(task, task),
        "nearest_centroid": _nearest_centroid_probs,
        "oracle_ridge": lambda task: ridge(replace(task, support_x=task.query_x,
                                                   support_y=task.query_y), task),
    }
    labels = np.concatenate([task.query_y for task in test_tasks])
    timer = StageTimer(cfg.hash())
    results = {}
    for name, predict in predictors.items():
        with timer.stage(f"baseline.{name}", len(test_tasks)):
            probs = [predict(task) for task in test_tasks]
        results[name] = compute_metrics(np.concatenate(probs), labels)

    if outdir is not None:
        outdir = Path(outdir)
        write_records(outdir / "baselines.csv",
                      [{"baseline": name, **vars(rec)} for name, rec in results.items()])
        _append(outdir / "runtime.txt", timer.lines)
    return results


# ---------------------------------------------------------------------------
# Support-size sweep and seed stability
# ---------------------------------------------------------------------------

def run_support_sweep(cfg: RunConfig, artifacts: Phase1Artifacts, phase2: Phase2Result,
                      outdir: Path | None = None, sizes=DEFAULT_SUPPORT_SIZES):
    """Test metrics across support sizes with the trained retrieval net."""
    pcfg = _proximal_config(cfg)
    r_keep = _r_keep(cfg, artifacts.rank_selected, artifacts.memory.K)
    timer = StageTimer(cfg.hash())
    rows = []
    for size in sizes:
        episodes = _prepare_inputs(cfg, artifacts,
                                   _ret_tasks_at_size(artifacts, "Ret-Test", size))
        record, *_ = _split_metrics(artifacts, episodes, phase2.net, phase2.transform, pcfg,
                                    r_keep, timer, f"support.{size}")
        rows.append({"support_size": size, "auc": record.auc, "f1": record.f1,
                     "ece": record.ece})
    if outdir is not None:
        outdir = Path(outdir)
        write_records(outdir / "support_curve.csv", rows)
        _append(outdir / "runtime.txt", timer.lines)
    return rows


def run_seed_stability(cfg: RunConfig, artifacts: Phase1Artifacts,
                       outdir: Path | None = None, seeds=DEFAULT_SEEDS):
    """Phase-2 metric spread across training seeds on the fixed corpus.

    runtime.txt gets each seed's phase-2 stage lines, prefixed ``seed_stability.<seed>.``.
    """
    per_seed, runtime = {}, []
    for seed in seeds:
        result = run_phase2(cfg, artifacts, seed=seed)
        per_seed[seed] = result.metrics["test"]
        runtime += _prefixed(f"seed_stability.{seed}", result.runtime)
    stats = {}
    for metric in ("auc", "f1", "ece"):
        vals = np.array([getattr(rec, metric) for rec in per_seed.values()])
        stats[metric] = {"mean": float(vals.mean()), "std": float(vals.std()),
                         "range_lo": float(vals.min()), "range_hi": float(vals.max())}
    if outdir is not None:
        outdir = Path(outdir)
        write_records(outdir / "seed_stability.csv",
                      [{"metric": m, **s} for m, s in stats.items()])
        _append(outdir / "runtime.txt", runtime)
    return per_seed, stats


# ---------------------------------------------------------------------------
# Motif pipeline over synthetic cohorts
# ---------------------------------------------------------------------------

# chance that a sequence of a positive repertoire carries a planted motif
PLANT_RATE = 0.9
# the synthetic motif corpus: planted k-mer length, alphabet, the background's
# Markov order and smoothing, sequence lengths and sequences per repertoire,
# and the fraction of channels the screen keeps
KMER = 3
ALPHABET_SIZE = 4
MARKOV_ORDER = 2
PSEUDOCOUNT = 0.5
SEQ_LEN_LO, SEQ_LEN_HI = 8, 14
SEQS_PER_REPERTOIRE = 20
TOP_FRAC = 0.2


def _synthetic_repertoire(background, channels, n_seqs, plant, rng):
    seqs = background.sample(n_seqs, rng)
    if plant:
        k = channels.shape[1]
        for seq in seqs:
            if seq.size >= k and rng.random() < PLANT_RATE:
                motif = channels[rng.integers(0, channels.shape[0])]
                pos = rng.integers(0, seq.size - k + 1)
                seq[pos:pos + k] = motif
    return seqs


def run_motifs(cfg: RunConfig, outdir: Path | None = None):
    """Synthetic-cohort motif statistics: screening, q-values, calibration.

    A failed cohort gets a run.log line and no CSV row; after writing the files, one
    ``CalibrationError`` names every failed cohort and carries the results (None at each).
    """
    mcfg = cfg.motifs
    timer = StageTimer(cfg.hash())
    with timer.stage("motifs", None):
        rng_base = child_rng(cfg.seed, "motif-corpus")
        base_seqs = [rng_base.integers(0, ALPHABET_SIZE,
                                       size=rng_base.integers(SEQ_LEN_LO, SEQ_LEN_HI + 1))
                     for _ in range(200)]
        background = fit_background(base_seqs, order=MARKOV_ORDER, pseudocount=PSEUDOCOUNT,
                                    alphabet_size=ALPHABET_SIZE)

        calibrations, failures = [], {}  # failures: cohort -> the error's message
        report = None
        for c_i, cohort in enumerate(mcfg.cohorts):
            channels = make_channels(mcfg.n_channels, k=KMER, alphabet_size=ALPHABET_SIZE,
                                     seed=cfg.seed + 101 * c_i)
            rngs = child_rng(cfg.seed, "motif-cohort", cohort)
            planted = channels[: max(2, mcfg.n_channels // 10)]
            pos_reps = [_synthetic_repertoire(background, planted, SEQS_PER_REPERTOIRE,
                                              True, rngs) for _ in range(mcfg.n_pos)]
            neg_reps = [_synthetic_repertoire(background, planted, SEQS_PER_REPERTOIRE,
                                              False, rngs) for _ in range(mcfg.n_neg)]
            repertoires = pos_reps + neg_reps
            labels = np.array([1] * mcfg.n_pos + [0] * mcfg.n_neg)
            activations = channel_activations(channels, repertoires)
            try:
                calibrations.append(calibrate_tau(activations, labels, cohort=cohort,
                                                  seed=cfg.seed))
            except CalibrationError as exc:
                calibrations.append(None)
                failures[cohort] = str(exc)
            if c_i == 0:
                report = motif_test_report(channels, repertoires, background,
                                           top_frac=TOP_FRAC, b_min=mcfg.b_min,
                                           b_max=mcfg.b_max,
                                           null_pool_size=mcfg.null_pool_size,
                                           seed=cfg.seed)

    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        write_csv(outdir / "threshold_calibration.csv",
                  ["cohort", "tau_bar", "se", "t_abs", "p_value", "delta_auc",
                   "zero_variance", "retries"],
                  [[c.cohort, c.tau_bar, c.se, c.t_abs, c.p_value, c.delta_auc,
                    c.zero_variance, c.n_retries]
                   for c in calibrations if c is not None])
        write_csv(outdir / "motif_tests.csv",
                  ["channel", "p_value", "q_value", "b_used"],
                  [[int(ch), p, q, int(b)] for ch, p, q, b in
                   zip(report.screened, report.p_values, report.q_values, report.b_used)])
        write_json(outdir / "motif_summary.json", {
            "pi0": report.pi0.pi0,
            "pi0_ci90": list(report.pi0.ci90),
            "screened": int(report.screened.size),
            "significant_at_q10": int(report.significant(0.1).size),
        })
        _append(outdir / "runtime.txt", timer.lines)
        if failures:
            _append(outdir / "run.log", [f"motifs {cohort}: CalibrationError: {message}"
                                         for cohort, message in failures.items()])
    if failures:
        raise CalibrationError("; ".join(failures.values()), calibrations, report)
    return calibrations, report


def run_power_curve(cfg: RunConfig, outdir: Path | None = None):
    """Detection rates of the permutation test and q-values against effect size.

    Gaussian nulls, 30 channels and 60 trials per effect; rows of effect,
    raw-p rate and q-value rate.
    """
    timer = StageTimer(cfg.hash())
    with timer.stage("power_curve", None):
        curve = power_curve((0.0, 0.5, 1.0, 2.0, 4.0), alpha=0.05,
                            null_sampler=lambda rng, size: rng.normal(size=size),
                            n_trials=60, m_channels=30, b_perm=300, seed=cfg.seed)
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        write_records(outdir / "power_curve.csv", curve)
        _append(outdir / "runtime.txt", timer.lines)
    return curve


# ---------------------------------------------------------------------------
# Risk-bound harness
# ---------------------------------------------------------------------------

def run_riskbound(cfg: RunConfig, artifacts: Phase1Artifacts,
                  outdir: Path | None = None):
    corpus = artifacts.corpus
    tasks = corpus.tasks
    fmap = corpus.feature_map()
    timer = StageTimer(cfg.hash())
    with timer.stage("riskbound", len(tasks)):
        summary = check_bounds_over_tasks(tasks, artifacts.memory, artifacts.certificate,
                                          fmap)
        # the logistic loss's Lipschitz constant in the adapter is the largest feature radius;
        # each report's lipschitz is its query set's radius, so only the full supports are left
        # to map, a retrieval task's drawn again one at a time
        radius = max(feature_radius_of((corpus.full_support(task)[0] for task in tasks), fmap),
                     *(r.lipschitz for r in summary.reports))
    require(np.isfinite(radius) and radius > 0, "feature radius must be finite and positive")
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        write_records(outdir / "riskbound.csv", summary.reports,
                      [f.name for f in fields(BoundReport) if f.name != "triangle_slack"])
        _append(outdir / "run.log",
                [summary.as_text() + f" | global lipschitz {radius:.4f}"])
        _append(outdir / "runtime.txt", timer.lines)
    return summary


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------

ABLATION_VARIANTS = {
    "full": {},
    "fixed_r": {"fixed_r": 5},
    "soft_l1_only": {"hard_threshold": False, "r_keep": None},
    "gamma_zero": {"gamma": 0.0},
    "no_canonicalization": {"canonicalize": False},
    "no_transform": {"warp": WarpConfig(kind="none")},
}


def ablation_config(cfg: RunConfig, variant: str) -> RunConfig:
    require(variant in ABLATION_VARIANTS, f"unknown ablation variant {variant!r}")
    return replace(cfg, **ABLATION_VARIANTS[variant])


def run_ablations(cfg: RunConfig, variants, outdir: Path | None = None):
    """One phase-1 and phase-2 run per variant.

    run.log names each variant that turns off a top-r rule which keeps every
    activation anyway (r_keep >= K): that row equals ``full`` by construction.
    A variant whose memory cannot take its gamma (``_gamma_zero_problem``) has
    no row, and run.log says why. runtime.txt gets each variant's phase-1 and
    phase-2 stage lines, their names prefixed with ``ablation.<variant>.``.
    """
    rows, notes, runtime = [], [], []
    for variant in variants:
        vcfg = ablation_config(cfg, variant)
        artifacts = run_phase1(vcfg)
        runtime += _prefixed(f"ablation.{variant}", artifacts.runtime)
        problem = _gamma_zero_problem(vcfg, artifacts.memory)
        if problem is not None:
            notes.append(f"ablation {variant}: no row, {problem}")
            continue
        result = run_phase2(vcfg, artifacts)
        runtime += _prefixed(f"ablation.{variant}", result.runtime)
        rec = result.metrics["test"]
        rows.append({"variant": variant, "auc": rec.auc, "f1": rec.f1, "ece": rec.ece,
                     "rank": artifacts.rank_selected, "k": artifacts.memory.K})
        k = artifacts.memory.K
        r_keep = _r_keep(cfg, artifacts.rank_selected, k)  # the base's: a soft vcfg's is K
        if cfg.hard_threshold and not vcfg.hard_threshold and r_keep >= k:
            notes.append(f"ablation {variant}: r_keep {r_keep} >= K {k}, so hard_top_r "
                         "keeps every activation and this row equals full by construction")
    if outdir is not None:
        outdir = Path(outdir)
        write_records(outdir / "ablations.csv", rows, ["variant", "auc", "f1", "ece", "rank", "k"])
        _append(outdir / "runtime.txt", runtime)
        if notes:
            _append(outdir / "run.log", notes)
    return rows


# ---------------------------------------------------------------------------
# Report bundle
# ---------------------------------------------------------------------------

def _stage_table(runtime: Path) -> list:
    """One row per ``runtime.txt`` stage line: stage, ms, tasks, ms per task, rss_mb."""
    entries = [dict(field.split("=", 1) for field in line.split())
               for line in runtime.read_text().splitlines()]
    width = max([len("stage")] + [len(e["stage"]) for e in entries])
    rows = [f"{'stage':<{width}} {'ms':>10} {'tasks':>6} {'ms/task':>9} {'rss_mb':>7}"]
    for e in entries:
        tasks = int(e.get("tasks", 0))
        per_task = f"{float(e['ms']) / tasks:.3f}" if tasks else "-"
        rows.append(f"{e['stage']:<{width}} {e['ms']:>10} {e.get('tasks', '-'):>6} "
                    f"{per_task:>9} {e['rss_mb']:>7}")
    return rows


def emit_report(outdir: Path) -> Path:
    """Assemble the plain-text summary over whatever artifacts exist.

    After the checklist of files come the stage table of ``runtime.txt`` (where
    the time and the memory went) and the solver counters of the last
    ``training_curve.csv`` row (where the work went), each when its file exists.
    """
    outdir = Path(outdir)
    require(outdir.exists(), f"output directory {outdir} does not exist")
    lines = ["run report", "=" * 40]
    expected = [
        ("config.json", "configuration"),
        ("phase1_summary.json", "memory construction"),
        ("metrics.csv", "retrieval metrics"),
        ("baselines.csv", "baselines"),
        ("support_curve.csv", "support-size sweep"),
        ("seed_stability.csv", "seed stability"),
        ("threshold_calibration.csv", "threshold calibration"),
        ("riskbound.csv", "bound checks"),
        ("ablations.csv", "ablations"),
    ]
    for name, label in expected:
        present = (outdir / name).exists()
        lines.append(f"[{'x' if present else ' '}] {label}: {name}")
    phase2_present = (outdir / "metrics.csv").exists()
    if not phase2_present:
        lines.append("phase-1-only bundle: retrieval training has not run")
    runtime, curve = outdir / "runtime.txt", outdir / "training_curve.csv"
    if runtime.exists():
        lines += ["", "stages (runtime.txt):"] + _stage_table(runtime)
    if curve.exists():
        header, *rows = (line.split(",") for line in curve.read_text().splitlines())
        last = dict(zip(header, rows[-1]))
        counters = ", ".join(f"{name} {last[name]}"
                             for name in ("solver_iterations", "mean_active_size"))
        lines += ["", f"solver counters at the last epoch ({last['epoch']}) of "
                      f"training_curve.csv: {counters}"]
    summary = outdir / "summary.txt"
    summary.write_text("\n".join(lines) + "\n")
    return summary
