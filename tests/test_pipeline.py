import inspect
import json
import re
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from protoadapt import pipeline, retrieval, synthdata
from protoadapt.adapters import ridge_adapter
from protoadapt.cli import main
from protoadapt.metrics import compute_metrics
from protoadapt.motifs import CalibrationError
from protoadapt.prototypes import coverage_certificate, coverage_fits
from protoadapt.pipeline import (
    ABLATION_VARIANTS,
    DEFAULT_K_GRID,
    DEFAULT_LAMBDA_GRID,
    DEFAULT_SEEDS,
    DEFAULT_SUPPORT_SIZES,
    MlpTransform,
    RunConfig,
    WarpConfig,
    ablation_config,
    desk_config,
    emit_report,
    fewshot_benchmark_config,
    make_transform,
    persist_phase1,
    persist_phase2,
    run_baselines,
    run_motifs,
    run_penalty_sweep,
    run_phase1,
    run_phase2,
    run_power_curve,
    run_riskbound,
    run_seed_stability,
    run_support_sweep,
)
from protoadapt.riskbound import feature_radius_of
from protoadapt.spectral import TaskGradientSummary, fisher_energy_test_tasks
from protoadapt.synthdata import PRE_PARTITIONS, GeneratorConfig, generate_corpus
from protoadapt.util import ValidationError, sigmoid
from test_synthdata import generate_capturing_queries, generate_reading, generate_then_partition

# one runtime.txt line: stage, wall ms, the task count of per-task stages, peak RSS, run hash
STAGE_LINE = re.compile(r"stage=([a-z0-9_.]+) ms=[0-9]+\.[0-9]{3}(?: tasks=([0-9]+))? "
                        r"rss_mb=[0-9]+\.[0-9] run=([0-9a-f]{16})")


# RunConfig fields that are gone, and with them their validate() rules
REMOVED_FIELDS = {"t_prox", "solver_tol", "seeds", "support_sizes_eval", "lam_grid", "ret_fracs",
                  "rho", "dim_n_boot", "lam", "eta", "batch_size", "lr", "jaccard_min"}


# the steps inside phase 1, each with its own runtime.txt line after the phase1 line
PHASE1_STEPS = ("phase1.corpus", "phase1.rank", "phase1.memory", "phase1.merge",
                "phase1.certificate", "phase1.standardizer")
# the steps inside phase 2's fit, each with its own line after the phase2.fit line
PHASE2_FIT_STEPS = ("phase2.fit.inputs", "phase2.fit.train")


def tiny_config(seed=42, **overrides):
    cfg = desk_config(seed=seed)
    gen = replace(cfg.generator, n_tasks=60, n_support=120, n_query=30)
    cfg = replace(cfg, generator=gen, epochs=6, patience=5, coverage_n_boot=200,
                  n_restarts=3, **overrides)
    return cfg


def small_fewshot_config():
    """The fewshot profile on a smaller corpus, for 3 epochs: K = 3 prototypes of rank 2."""
    cfg = fewshot_benchmark_config()
    gen = replace(cfg.generator, n_tasks=90, n_support=400, n_query=30)
    return replace(cfg, generator=gen, epochs=3, patience=4, coverage_n_boot=200, n_restarts=3)


@pytest.fixture(scope="module")
def tiny_artifacts():
    cfg = tiny_config()
    return cfg, run_phase1(cfg)


class TestDefaults:
    def test_protocol_grids(self):
        cfg = RunConfig()
        assert cfg.k_grid == DEFAULT_K_GRID == (50, 100, 200)
        assert DEFAULT_LAMBDA_GRID == (1e-6, 1e-5, 1e-4, 1e-3)
        assert inspect.signature(run_seed_stability).parameters["seeds"].default \
            == DEFAULT_SEEDS == (42, 2023, 777)
        assert cfg.patience == 40
        assert cfg.epochs <= 1000
        assert retrieval.TrainConfig.batch_size == 100

    def test_config_roundtrip_and_hash(self):
        cfg = tiny_config()
        blob = cfg.to_dict()
        again = RunConfig.from_dict(json.loads(json.dumps(blob)))
        assert again.to_dict() == blob
        assert again.hash() == cfg.hash()

    @pytest.mark.parametrize("profile", [desk_config, fewshot_benchmark_config])
    def test_profile_survives_json_roundtrip(self, profile):
        cfg = profile()
        assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_support_sizes_protocol(self):
        assert inspect.signature(run_support_sweep).parameters["sizes"].default \
            == DEFAULT_SUPPORT_SIZES == (5, 10, 20, 50)

    def test_removed_hidden_key_is_rejected(self):
        blob = desk_config().to_dict()
        blob["hidden"] = 16
        with pytest.raises(TypeError, match="hidden"):
            RunConfig.from_dict(blob)

    @pytest.mark.parametrize("name", ["dim_n_boot", "coverage_n_boot"])
    def test_resample_count_below_one_is_rejected(self, name):
        if name in REMOVED_FIELDS:  # the energy test's resample count is its n_boot default
            with pytest.raises(TypeError, match=name):
                replace(tiny_config(), **{name: 0})
            return
        cfg = replace(tiny_config(), **{name: 0})
        with pytest.raises(ValidationError, match=name):
            cfg.validate()

    def test_removed_diag_period_key_is_rejected(self):
        blob = desk_config().to_dict()
        blob["diag_period"] = 25
        with pytest.raises(TypeError, match="diag_period"):
            RunConfig.from_dict(blob)

    def test_removed_ode_key_is_rejected(self):
        blob = desk_config().to_dict()
        blob["ode"] = {"kind": "ode", "hidden": 8, "t1": 1.0, "rtol": 1e-5,
                       "atol": 1e-7, "lr": 1e-3, "init_scale": 0.1}
        with pytest.raises(TypeError, match="ode"):
            RunConfig.from_dict(blob)

    @pytest.mark.parametrize("key,value", [
        ("r_sparse", 2),
        ("gamma_ref_size", 5),
        ("fixed_tau", 0.5),
        ("use_storey", False),
        ("support_size_train", 5),
        ("warp.lr", 1e-3),
        ("outdir", "runs/desk"),
        ("tau_sim", 0.8),
        # fields that no profile, ablation, benchmark, demo or test set to a second value
        ("seeds", [1, 2]),
        ("support_sizes_eval", [5]),
        ("lam_grid", [1e-4]),
        ("frac_pre", 0.4),
        ("frac_seed", 0.7),
        ("ret_fracs", [0.5, 0.25, 0.25]),
        ("rho", 0.95),
        ("rho_list", [0.9]),
        ("ridge_alpha", 0.1),
        ("dim_n_boot", 500),
        ("mu_threshold", 0.9),
        ("kappa_threshold", 1e3),
        ("lam", 1e-3),
        ("eta", 0.1),
        ("batch_size", 50),
        ("lr", 1e-2),
        ("jaccard_min", 0.8),
        ("motifs.kmer", 4),
        ("motifs.alphabet_size", 20),
        ("motifs.order", 1),
        ("motifs.pseudocount", 1.0),
        ("motifs.seq_len_lo", 6),
        ("motifs.seq_len_hi", 16),
        ("motifs.seqs_per_repertoire", 30),
        ("motifs.top_frac", 0.1),
        ("generator.noise_sigma", 0.0),
    ])
    def test_removed_memory_and_motif_key_is_rejected(self, key, value):
        blob = desk_config().to_dict()
        *section, name = key.split(".")
        (blob[section[0]] if section else blob)[name] = value
        with pytest.raises(TypeError, match=name):
            RunConfig.from_dict(blob)

    def test_removed_plant_rate_key_is_rejected(self):
        blob = desk_config().to_dict()
        blob["motifs"]["plant_rate"] = 0.6
        with pytest.raises(TypeError, match="plant_rate"):
            RunConfig.from_dict(blob)

    @pytest.mark.parametrize("name,value", [
        ("epochs", 0),
        ("batch_size", 0),
        ("t_prox", 0),
        ("t_prox", 21),
        ("warp.kind", "spline"),
        ("train_sizes", (1,)),
        ("train_sizes", (5, 1)),
        ("support_sizes_eval", (1, 5)),
        ("r_keep", 0),
        ("ret_fracs", (0.8, 0.3, -0.1)),
        ("lam", -1e-4),
        ("gamma", -0.1),
        ("solver_tol", 0.0),
        ("solver_tol", -1e-9),
        ("lr", -1e-3),
        ("weight_decay", -2e-3),
        ("eta", -0.01),
        ("rho", 0.0),
        ("rho", 1.0),
        ("rho", 1.5),
        ("fixed_r", 0),
        ("fixed_r", 9),  # above tiny_config's generator.d_theta = 8
        ("lam_grid", ()),
        ("jaccard_min", 2.0),
        ("jaccard_min", -0.1),
        ("patience", -1),
        ("dim_n_boot", 0),
        ("coverage_n_boot", 0),
        ("k_grid", (0, 4)),
        ("seeds", ()),
        ("hard_threshold", False),  # with r_keep set: the soft rule keeps all K
        ("train_sizes", ()),
        ("train_sizes", None),
        ("n_restarts", 0),
        ("ridge_alpha_retrieval", 0.0),
        ("motifs.b_min", 0),
        ("motifs.b_max", 100),  # below the default b_min
        ("motifs.n_channels", 0),
        ("motifs.null_pool_size", 0),
        ("motifs.cohorts", ()),
        ("motifs.n_pos", 0),  # a calibration fold of 0 + 4 repertoires at the default n_neg
        ("motifs.n_neg", 1),  # 4 + 1
        ("motifs.n_pos", -3),
        ("k_grid", None),
        ("k_grid", 5),
        ("k_grid", ()),
        ("generator.n_tasks", 3),  # partition_tags needs five
        ("generator.n_tasks", 6),  # two Pre-Seed tasks, below the smallest K = 4
        ("generator.n_tasks", 9),  # three
        ("warp.hidden", -1),
    ])
    def test_bad_field_is_rejected_naming_it(self, name, value):
        cfg = tiny_config()
        if name in REMOVED_FIELDS:
            # t_prox and solver_tol went with the unrolled solver (the exact solve has
            # neither an unroll length nor a tolerance), the others with the fields nothing
            # set: a config carrying the key is refused by name
            with pytest.raises(TypeError, match=name):
                replace(cfg, **{name: value})
            blob = cfg.to_dict()
            blob[name] = value
            with pytest.raises(TypeError, match=name):
                RunConfig.from_dict(blob)
            return
        if name == "hard_threshold":
            cfg = replace(cfg, r_keep=2)
        *section, key = name.split(".")
        if section:
            cfg = replace(cfg, **{section[0]: replace(getattr(cfg, section[0]), **{key: value})})
        else:
            cfg = replace(cfg, **{name: value})
        with pytest.raises(ValidationError, match=name):
            cfg.validate()
        with pytest.raises(ValidationError, match=name):
            RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))

    def test_zero_rates_and_penalties_are_legal(self):
        replace(tiny_config(), weight_decay=0.0, gamma=0.0).validate()


class TestPhase1(object):
    def test_artifacts_complete(self, tiny_artifacts):
        cfg, art = tiny_artifacts
        assert art.rank_selected >= 1
        assert art.memory.K <= max(cfg.k_grid)

    def test_stage_lines_name_every_step_inside_phase1(self, tiny_artifacts):
        cfg, art = tiny_artifacts
        entries = [dict(field.split("=", 1) for field in line.split()) for line in art.runtime]
        assert [e["stage"] for e in entries] == ["phase1", *PHASE1_STEPS]
        assert all(STAGE_LINE.fullmatch(line) for line in art.runtime)
        # the steps are timed inside phase 1, one after another
        assert sum(float(e["ms"]) for e in entries[1:]) <= float(entries[0]["ms"])

    def test_each_pre_support_is_mapped_once(self, monkeypatch, tmp_path):
        cfg = tiny_config()
        gen = cfg.generator
        feature_map, shapes = synthdata.Corpus.feature_map, []

        def counting(corpus):
            fmap = feature_map(corpus)

            def _map(x):
                shapes.append(np.shape(x))
                return fmap(x)

            return _map

        monkeypatch.setattr(synthdata.Corpus, "feature_map", counting)
        art = run_phase1(cfg)
        pre = art.corpus.tasks_in("Pre-Seed", "Pre-Rest")
        # generation maps every query set once as it is drawn, then hands the support over
        assert shapes == [shape for task in art.corpus.tasks for shape in
                          [(gen.n_query, gen.q)]
                          + [(gen.n_support, gen.q)] * (task.partition in PRE_PARTITIONS)]
        assert shapes.count((gen.n_support, gen.q)) == len(pre)
        monkeypatch.undo()
        # the one mapped block gives the bytes that mapping each held support for each use gave
        fmap = art.corpus.feature_map()
        held = {t.task_id: art.corpus.full_support(t) for t in pre}
        assert art.theta_pre.rows.tobytes() == np.stack(
            [ridge_adapter(held[task.task_id], fmap) for task in pre]).tobytes()
        summaries = [TaskGradientSummary.from_task(held[task.task_id], fmap)
                     for task in art.corpus.tasks_in("Pre-Seed")]
        fisher_energy_test_tasks(summaries, r_center=art.rank_selected,
                                 seed=cfg.seed).to_csv(tmp_path / "oracle.csv")
        art.dim_report_tasks.to_csv(tmp_path / "run.csv")
        assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_each_full_support_is_drawn_once(self, monkeypatch):
        """Phase 1 fits the pretraining supports as generation draws them, replaying none."""
        cfg = tiny_config()
        gen = cfg.generator
        sample, sizes = synthdata._sample_labeled_set, []

        def counting(rng, n, *args):
            sizes.append(n)
            return sample(rng, n, *args)

        def replay(corpus, task):
            raise AssertionError(f"phase 1 drew {task.task_id}'s support again")

        monkeypatch.setattr(synthdata, "_sample_labeled_set", counting)
        monkeypatch.setattr(synthdata.Corpus, "full_support", replay)
        run_phase1(cfg)
        assert gen.n_support not in (gen.n_query, *cfg.train_sizes)
        assert sizes.count(gen.n_support) == gen.n_tasks

    def test_corpus_and_pretraining_fits_hold_a_few_supports(self, monkeypatch):
        """tracemalloc's peak from the config to the last pretraining fit is what the corpus
        stores and a few supports: a corpus that keeps the pretraining supports fails here."""
        cfg = small_fewshot_config()
        gen = cfg.generator
        peaks = []

        class FitsDone(Exception):
            pass

        def peak_then_stop(*args, **kwargs):
            # phase 1 assembles the adapters once every pretraining support is fitted
            peaks.append(tracemalloc.get_traced_memory()[1])
            raise FitsDone

        pipeline.build_corpus(cfg)  # the imports generation makes on first use are not traced
        monkeypatch.setattr(pipeline, "assemble_theta", peak_then_stop)
        tracemalloc.start()
        try:
            with pytest.raises(FitsDone):
                run_phase1(cfg)
        finally:
            tracemalloc.stop()
        stored = gen.n_tasks * (gen.n_query * (gen.d_theta * 8 + 1) + gen.d_theta * 8)
        support, few = gen.n_support * gen.q * 8, 8
        # the task objects and one task's draw, features and fits take about 5 supports'
        # bytes; keeping the pretraining supports would add 45
        tags = synthdata.partition_tags(gen.n_tasks, cfg.seed)
        n_pre = sum(tag in PRE_PARTITIONS for tag in tags)
        assert 5 * few <= n_pre
        assert peaks[0] < stored + few * support, (peaks[0], stored, support)

    def test_k_grid_filtered_with_note(self):
        cfg = tiny_config(k_grid=(4, 5000))
        art = run_phase1(cfg)
        assert any("skipped" in n for n in art.notes)
        assert art.memory.K <= 4

    def test_persisted_bundle(self, tmp_path):
        cfg = tiny_config()
        run_phase1(cfg, outdir=tmp_path)
        for name in ("config.json", "corpus_manifest.json", "adapters_seed.csv",
                     "rank_test_tasks.csv", "rank_curve.csv", "memory.csv",
                     "memory.json", "phase1_summary.json"):
            assert (tmp_path / name).exists(), name
        assert not (tmp_path / "corpus.csv").exists()

    def test_manifest_rebuilds_the_corpus(self, tiny_artifacts, tmp_path):
        cfg, art = tiny_artifacts
        persist_phase1(art, tmp_path)
        manifest = json.loads((tmp_path / "corpus_manifest.json").read_text())
        assert set(manifest) == {"config", "partition"}
        assert set(manifest["config"]) == {f.name for f in fields(GeneratorConfig)}
        rebuilt = generate_corpus(GeneratorConfig(**manifest["config"]))
        assert [t.task_id for t in rebuilt.tasks] == [t.task_id for t in art.corpus.tasks]
        for again, task in zip(rebuilt.tasks, art.corpus.tasks):
            raw = rebuilt.replay(again)[2], art.corpus.replay(task)[2]
            assert raw[0].tobytes() == raw[1].tobytes(), task.task_id
            again, task = rebuilt.full_support(again), art.corpus.full_support(task)
            for name in ("support_x", "support_y", "query_feats", "query_y", "theta_true"):
                a, b = getattr(again, name), getattr(task, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (task.task_id, name)
        assert manifest["partition"] == {t.task_id: t.partition for t in art.corpus.tasks}
        assert set(manifest["partition"].values()) >= {"Pre-Seed", "Ret-Train", "Ret-Test"}

    @pytest.mark.parametrize("make_cfg", [
        tiny_config, small_fewshot_config,
        lambda: replace(tiny_config(), seed=7),   # the run's seed apart from the generator's
    ], ids=["tiny", "small_fewshot", "tiny_run_seed_7"])
    def test_corpus_is_the_generate_then_partition_corpus(self, make_cfg):
        """A run tags its tasks before generating them: the oracle generates, then tags."""
        cfg = make_cfg()
        corpus = pipeline.build_corpus(cfg)
        oracle, drawn = generate_reading(cfg.generator)
        generate_then_partition(oracle.tasks, seed=cfg.seed)
        assert corpus.feature_w.tobytes() == oracle.feature_w.tobytes()
        assert corpus.basis.tobytes() == oracle.basis.tobytes()
        assert [t.task_id for t in corpus.tasks] == [t.task_id for t in oracle.tasks]
        for task, want, (_, support_x, support_y, _) in zip(corpus.tasks, oracle.tasks, drawn):
            assert task.partition == want.partition
            for name in ("query_feats", "query_y", "theta_true"):
                a, b = getattr(task, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (task.task_id, name)
            assert not hasattr(task, "support_x") and not hasattr(task, "support_y")
            # the replay is the support the oracle's generation drew
            episode = corpus.full_support(task)
            for a, b in ((episode.support_x, support_x), (episode.support_y, support_y)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), task.task_id

    def test_corpus_bytes_are_the_query_sets_labels_and_theta(self):
        """The memory model of a run's corpus: a change that keeps a full support fails here."""
        cfg = small_fewshot_config()
        gen = cfg.generator
        corpus = pipeline.build_corpus(cfg)
        assert 0 < len(corpus.tasks_in(*PRE_PARTITIONS)) < gen.n_tasks
        assert not any(hasattr(task, "support_x") for task in corpus.tasks)
        # the query features are rows of one block, which owns its bytes
        block = corpus.tasks[0].query_feats.base
        assert block.base is None
        assert all(task.query_feats.base is block for task in corpus.tasks)
        arrays = [v for task in corpus.tasks for name, v in vars(task).items()
                  if isinstance(v, np.ndarray) and name != "query_feats"]
        assert all(a.base is None for a in arrays)  # each other array owns its bytes
        samples = gen.n_tasks * gen.n_query
        features, labels = samples * gen.d_theta * 8, samples  # float64 rows, int8 labels
        theta = gen.n_tasks * gen.d_theta * 8
        assert block.nbytes + sum(a.nbytes for a in arrays) == features + labels + theta

    def test_persist_only_writes(self, tiny_artifacts, tmp_path, monkeypatch):
        cfg, art = tiny_artifacts

        def forbidden(*args, **kwargs):
            raise AssertionError("persist_phase1 must not compute")

        for name in ("rank_curve", "generate_corpus", "cluster_prototypes"):
            monkeypatch.setattr(pipeline, name, forbidden)
        persist_phase1(art, tmp_path)
        for name in ("config.json", "corpus_manifest.json", "adapters_seed.csv",
                     "rank_test_tasks.csv", "rank_curve.csv", "memory.csv",
                     "memory.json", "phase1_summary.json"):
            assert (tmp_path / name).exists(), name
        rows = (tmp_path / "rank_curve.csv").read_text().splitlines()
        assert len(rows) == 1 + len(art.rank_curve)

    def test_memory_json_schema(self, tiny_artifacts, tmp_path):
        # each value has one home: the certificate block, not a top-level copy of it
        cfg, art = tiny_artifacts
        persist_phase1(art, tmp_path)
        meta = json.loads((tmp_path / "memory.json").read_text())
        assert set(meta) == {"K", "r", "kappa", "mu", "restart_stability", "sse",
                             "canonicalizer", "certificate"}
        assert set(meta["certificate"]) == {"eps_hat", "pct90", "eps_upper", "raw_eps_hat",
                                            "raw_pct90", "n_boot", "r_sparse"}
        assert meta["certificate"] == art.certificate.as_dict()

    def test_one_rank_test_on_disk(self, tiny_artifacts, tmp_path):
        cfg, art = tiny_artifacts
        persist_phase1(art, tmp_path)
        summary = json.loads((tmp_path / "phase1_summary.json").read_text())
        assert summary["fisher_selected_tasks"] == art.dim_report_tasks.selected_r
        for name in ("rank_test_eigenvalues.csv", "rank_sequential.csv"):
            assert not (tmp_path / name).exists(), name
        for key in ("fisher_selected_eigenvalues", "sequential_selected"):
            assert key not in summary

    def test_certificate_at_the_retrieval_operating_point(self, tiny_artifacts):
        # K = 3 < r here: the certificate fits at K atoms and is not exact
        cfg, art = tiny_artifacts
        assert art.memory.K < art.rank_selected
        assert art.certificate.r_sparse == pipeline._r_keep(cfg, art.rank_selected,
                                                            art.memory.K)
        assert not any("certified at sparsity" in n for n in art.notes)
        cfg = desk_config(seed=42)
        art = run_phase1(cfg)
        r_keep = pipeline._r_keep(cfg, art.rank_selected, art.memory.K)
        assert art.certificate.r_sparse == r_keep == art.rank_selected
        assert any("certified at sparsity" in n for n in art.notes)
        assert art.certificate.eps_upper < 1e-9

    def test_certificate_follows_r_keep(self):
        art = run_phase1(replace(desk_config(seed=42), r_keep=1))
        assert art.rank_selected > 1
        assert art.certificate.r_sparse == 1
        assert art.certificate.eps_upper > 0.5
        assert not any("certified at sparsity" in n for n in art.notes)

    @pytest.mark.parametrize("overrides", [{}, {"r_keep": 1}, {"hard_threshold": False}])
    def test_merge_fits_are_at_the_certificate_sparsity(self, overrides, monkeypatch):
        # the certificate takes merging's final fits as they are, with no check that they
        # belong to the merged memory: they must be at fit_sparsity(final K)
        returned, merge = [], pipeline.merge_prototypes
        monkeypatch.setattr(pipeline, "merge_prototypes",
                            lambda *a, **kw: returned.append(merge(*a, **kw)) or returned[-1])
        cfg = replace(desk_config(seed=42), **overrides)
        art = run_phase1(cfg)
        [(memory, log, fits)] = returned
        assert log and memory is art.memory
        k, r = memory.K, art.rank_selected
        assert fits.r_sparse == min(pipeline._r_keep(cfg, r, k), r, k) == art.certificate.r_sparse
        assert fits.chain is memory.chain
        assert fits.centroids.tobytes() == memory.centroids.tobytes()
        refit = coverage_fits(memory.chain, memory.centroids, art.theta_pre, fits.r_sparse)
        assert coverage_certificate(refit, n_boot=cfg.coverage_n_boot,
                                    seed=cfg.seed).as_dict() == art.certificate.as_dict()

    def test_fixed_r_ablation(self):
        cfg = tiny_config(fixed_r=3)
        art = run_phase1(cfg)
        assert art.rank_selected == 3
        assert any("fixed r" in n for n in art.notes)


class TestPhase2:
    def test_stage_lines_name_every_step_inside_the_fit(self, tiny_artifacts):
        cfg, art = tiny_artifacts
        result = run_phase2(cfg, art)
        entries = [dict(field.split("=", 1) for field in line.split()) for line in result.runtime]
        assert [e["stage"] for e in entries] == [
            "phase2.fit", *PHASE2_FIT_STEPS,
            *(f"phase2.predict.{tag}" for tag in ("train", "val", "test"))]
        assert all(STAGE_LINE.fullmatch(line) for line in result.runtime)
        # the steps are timed inside the fit, one after another
        assert sum(float(e["ms"]) for e in entries[1:3]) <= float(entries[0]["ms"])

    def test_metrics_and_outputs(self, tiny_artifacts, tmp_path):
        cfg, art = tiny_artifacts
        result = run_phase2(cfg, art, outdir=tmp_path)
        assert set(result.metrics) == {"train", "val", "test"}
        assert 0.0 <= result.metrics["test"].auc <= 1.0
        assert (tmp_path / "training_curve.csv").exists()
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "calibration_bins.csv").exists()
        assert not (tmp_path / "diagnostics.csv").exists()
        net = json.loads((tmp_path / "retrieval_net.json").read_text())
        assert len(net["w1"]) == 32
        # latency numbers stay out of the CSVs
        assert "ms" in (tmp_path / "runtime.txt").read_text()

    def test_training_curve_carries_the_solver_counters(self, tiny_artifacts, tmp_path,
                                                        monkeypatch):
        cfg, art = tiny_artifacts
        episodes, original = [], retrieval.minibatch_gradients

        def spy(*args, **kwargs):
            out = original(*args, **kwargs)
            episodes.append(out[1])
            return out

        monkeypatch.setattr(retrieval, "minibatch_gradients", spy)
        result = run_phase2(cfg, art, outdir=tmp_path)
        monkeypatch.undo()
        lines = (tmp_path / "training_curve.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_auc,jaccard,solver_iterations,mean_active_size"
        assert len(lines) == len(result.history) + 1
        n_batches = len(episodes) // len(result.history)
        r_keep = pipeline._r_keep(cfg, art.rank_selected, art.memory.K)
        for row, line in zip(result.history, lines[1:]):
            cells = line.split(",")
            assert int(cells[4]) == row.solver_iterations
            # the epoch's training episodes, recounted from the block solutions
            blocks = episodes[row.epoch * n_batches:(row.epoch + 1) * n_batches]
            n_episodes = sum(len(block.iterations) for block in blocks)
            assert row.solver_iterations == sum(int(block.iterations.sum()) for block in blocks)
            assert row.mean_active_size == np.mean([np.count_nonzero(w_tilde) for block in blocks
                                                    for w_tilde in block.w_tilde])
            # the exact solve: active-set iterations within the cap
            assert (n_episodes <= row.solver_iterations
                    <= n_episodes * retrieval.MAX_ACTIVE_SET_ITERATIONS)
            assert 1.0 <= row.mean_active_size <= r_keep

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_each_query_set_is_mapped_once(self, monkeypatch, epochs):
        cfg = replace(tiny_config(), epochs=epochs, patience=epochs + 1, train_sizes=(5, 10))
        gen = cfg.generator
        feature_map, rows = synthdata.Corpus.feature_map, []

        def counting(corpus):
            fmap = feature_map(corpus)

            def _map(x):
                rows.append(len(x))
                return fmap(x)

            return _map

        def replay(corpus, task):
            raise AssertionError(f"phase 2 drew {task.task_id}'s raw query again")

        monkeypatch.setattr(synthdata.Corpus, "feature_map", counting)
        art = run_phase1(cfg)
        # generation maps each query set as it draws it, and phase 1 each Pre support
        assert rows.count(gen.n_query) == gen.n_tasks
        assert gen.n_query not in (gen.n_support, 5, 10)
        rows.clear()
        monkeypatch.setattr(synthdata.Corpus, "replay", replay)
        result = run_phase2(cfg, art)
        assert len(result.history) == epochs
        # phase 2 maps each episode's support twice (its descriptor and its adapter), at two
        # training sizes for Ret-Train, and no query set
        n_train, n_val, n_test = (len(art.corpus.tasks_in(tag))
                                  for tag in ("Ret-Train", "Ret-Val", "Ret-Test"))
        assert Counter(rows) == Counter({5: 2 * (n_train + n_val + n_test), 10: 2 * n_train})

    def test_persist_only_writes_and_sweep_is_separate(self, tiny_artifacts, tmp_path,
                                                       monkeypatch):
        cfg, art = tiny_artifacts
        result = run_phase2(cfg, art)

        def forbidden(*args, **kwargs):
            raise AssertionError("persist_phase2 must not compute")

        for name in ("solve_proximal", "predict_task"):
            monkeypatch.setattr(retrieval, name, forbidden)
        for name in ("predict_tasks", "sweep_lambda_eta", "build_descriptor",
                     "ridge_adapter", "resample_support", "objective_trace",
                     "calibration_bins"):
            monkeypatch.setattr(pipeline, name, forbidden)
        persist_phase2(result, tmp_path)
        for name in ("training_curve.csv", "metrics.csv", "calibration_bins.csv",
                     "descriptors.csv", "solver_trace.csv",
                     "retrieval_net.json", "retrieval_warp.json", "run.log", "runtime.txt"):
            assert (tmp_path / name).exists(), name
        # the penalty sweep is a step of its own
        assert not (tmp_path / "sweep_lambda_eta.csv").exists()
        monkeypatch.undo()
        rows = run_penalty_sweep(cfg, art, result, outdir=tmp_path)
        assert len(rows) == 2 * len(DEFAULT_LAMBDA_GRID)
        assert (tmp_path / "sweep_lambda_eta.csv").exists()

    def test_run_files_rebuild_the_test_predictions_bit_for_bit(self, tiny_artifacts,
                                                                tmp_path):
        cfg, art = tiny_artifacts
        persist_phase1(art, tmp_path)
        result = run_phase2(cfg, art, outdir=tmp_path)
        # everything below comes from the run's files: the config, then the
        # network's and the warp's trained arrays
        cfg_disk = RunConfig.from_dict(
            json.loads((tmp_path / "config.json").read_text())["config"])
        art_disk = run_phase1(cfg_disk)
        tasks = pipeline._ret_tasks_at_size(art_disk, "Ret-Test",
                                            pipeline._support_size(cfg_disk))
        episodes = pipeline._prepare_inputs(cfg_disk, art_disk, tasks)
        d_z = episodes.z.shape[1]
        net = retrieval.RetrievalNet(d_z, art_disk.memory.K)
        warp = make_transform(d_z, cfg_disk.warp, seed=cfg_disk.seed)
        untrained = {key: arr.copy() for key, arr in warp.params.items()}
        for tmap, name in ((net, "retrieval_net.json"), (warp, "retrieval_warp.json")):
            saved = json.loads((tmp_path / name).read_text())
            tmap.params = {key: np.asarray(value, dtype=float) for key, value in saved.items()}
        assert any(not np.array_equal(warp.params[key], untrained[key]) for key in untrained)
        probs, labels, _ = retrieval.predict_tasks(
            episodes, art_disk.memory, net, pipeline._proximal_config(cfg_disk),
            pipeline._r_keep(cfg_disk, art_disk.rank_selected, art_disk.memory.K),
            transform=warp)
        assert probs.tobytes() == result.test_probs.tobytes()
        assert np.array_equal(labels, result.test_labels)

    def test_no_warp_file_without_a_warp(self, tiny_artifacts, tmp_path):
        cfg, art = tiny_artifacts
        run_phase2(replace(cfg, warp=replace(cfg.warp, kind="none")), art, outdir=tmp_path)
        assert (tmp_path / "retrieval_net.json").exists()
        assert not (tmp_path / "retrieval_warp.json").exists()

    def test_every_stage_appends_one_runtime_line_format(self, tiny_artifacts, tmp_path):
        cfg, art = tiny_artifacts
        persist_phase1(art, tmp_path)
        result = run_phase2(cfg, art, outdir=tmp_path)
        run_support_sweep(cfg, art, result, outdir=tmp_path, sizes=(5, 10))
        run_baselines(cfg, art, outdir=tmp_path, support_size=5)
        variants = ("full", "no_transform")
        pipeline.run_ablations(cfg, variants, outdir=tmp_path)
        run_seed_stability(cfg, art, outdir=tmp_path, seeds=(1, 2))
        n_test = len(result.splits["test"].task_ids)
        n_pre = art.theta_pre.n_tasks
        phase_stages = {"phase1": None, "phase1.corpus": None, "phase1.rank": None,
                        "phase1.memory": None, "phase1.merge": None,
                        "phase1.certificate": n_pre, "phase1.standardizer": n_pre,
                        "phase2.fit": None, **dict.fromkeys(PHASE2_FIT_STEPS),
                        **{f"phase2.predict.{tag}": len(episodes.task_ids)
                           for tag, episodes in result.splits.items()}}
        expected = {name: (cfg.hash(), tasks) for name, tasks in phase_stages.items()}
        expected.update({f"support.{size}": (cfg.hash(), n_test) for size in (5, 10)})
        expected.update({f"baseline.{name}": (cfg.hash(), n_test)
                         for name in ("ridge_support", "nearest_centroid", "oracle_ridge")})
        for variant in variants:
            run = ablation_config(cfg, variant).hash()
            # the variants train on the same splits, so the task counts carry over
            expected.update({f"ablation.{variant}.{name}": (run, tasks)
                             for name, tasks in phase_stages.items()})
        for seed in (1, 2):
            expected.update({f"seed_stability.{seed}.{name}": (cfg.hash(), tasks)
                             for name, tasks in phase_stages.items()
                             if not name.startswith("phase1")})
        stages = []
        for line in (tmp_path / "runtime.txt").read_text().splitlines():
            match = STAGE_LINE.fullmatch(line)
            assert match, line
            name, tasks, run = match.groups()
            stages.append((name, (run, None if tasks is None else int(tasks))))
        assert sorted(stages) == sorted(expected.items())

    def test_untimed_steps_append_one_stage_line_each(self, tiny_artifacts, tmp_path):
        cfg, art = tiny_artifacts
        mcfg = replace(cfg, motifs=replace(cfg.motifs, n_channels=24, n_pos=16, n_neg=16,
                                           b_min=200, b_max=400, null_pool_size=48,
                                           cohorts=("cohortA",)))
        result = run_phase2(cfg, art)
        run_penalty_sweep(cfg, art, result, outdir=tmp_path)
        run_riskbound(cfg, art, outdir=tmp_path)
        run_motifs(mcfg, outdir=tmp_path)
        run_power_curve(mcfg, outdir=tmp_path)
        stages = []
        for line in (tmp_path / "runtime.txt").read_text().splitlines():
            match = STAGE_LINE.fullmatch(line)
            assert match, line
            name, tasks, run = match.groups()
            stages.append((name, run, None if tasks is None else int(tasks)))
        assert stages == [("penalty_sweep", cfg.hash(), None),
                          ("riskbound", cfg.hash(), len(art.corpus.tasks)),
                          ("motifs", mcfg.hash(), None),
                          ("power_curve", mcfg.hash(), None)]

    def test_determinism_across_runs(self, tmp_path):
        cfg = tiny_config()
        art1 = run_phase1(cfg)
        art2 = run_phase1(cfg)
        r1 = run_phase2(cfg, art1, outdir=tmp_path / "a")
        r2 = run_phase2(cfg, art2, outdir=tmp_path / "b")
        for name in ("training_curve.csv", "metrics.csv", "calibration_bins.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_transforms(self):
        mlp = make_transform(6, WarpConfig(hidden=4), seed=0)
        none = make_transform(6, WarpConfig(kind="none"), seed=0)
        z = np.linspace(-1, 1, 6)
        assert isinstance(mlp, MlpTransform) and mlp.forward(z)[0].shape == (6,)
        assert none is None
        # near-identity initialization keeps the warp gentle
        assert np.linalg.norm(mlp.forward(z)[0] - z) < 1.0
        assert RunConfig().warp.kind == "mlp"
        with pytest.raises(ValidationError, match="warp.kind"):
            make_transform(6, WarpConfig(kind="ode"), seed=0)

    def test_soft_config_reports_the_same_whichever_way_artifacts_were_built(self):
        cfg = small_fewshot_config()
        soft_cfg = replace(cfg, hard_threshold=False)
        built_hard, built_soft = run_phase1(cfg), run_phase1(soft_cfg)
        # K above the operating sparsity, so the top-r rule changes the solution
        assert built_hard.memory.K > pipeline._r_keep(cfg, built_hard.rank_selected,
                                                      built_hard.memory.K)
        on_hard = run_phase2(soft_cfg, built_hard)
        on_soft = run_phase2(soft_cfg, built_soft)
        assert on_hard.history == on_soft.history
        for split in ("train", "val", "test"):
            assert vars(on_hard.metrics[split]) == vars(on_soft.metrics[split]), split

    def test_supports_below_five_train_and_sweep(self):
        cfg = replace(tiny_config(train_sizes=(3, 10)), epochs=2, patience=3)
        art = run_phase1(cfg)
        result = run_phase2(cfg, art)
        d_z = {episodes.z.shape[1] for episodes in result.splits.values()}
        assert len(d_z) == 1
        rows = run_support_sweep(cfg, art, result)
        assert [r["support_size"] for r in rows] == list(DEFAULT_SUPPORT_SIZES)
        assert all(0.0 <= r["auc"] <= 1.0 for r in rows)


class TestLeakage:
    """Phase 1 reads no retrieval task, and training reads no Ret-Test task.

    Every task of one retrieval partition is overwritten after partitioning:
    theta_true negated and shifted, the query feature rows overwritten in place
    by the features of a redrawn query set, and query_y flipped. The files
    that must not see that partition stay byte-identical.
    """

    PHASE2_TRAINED = ("retrieval_net.json", "retrieval_warp.json", "training_curve.csv")

    @staticmethod
    def _run(cfg, outdir, monkeypatch=None, tag=None):
        if tag is not None:
            build_corpus = pipeline.build_corpus

            def overwritten(config, read_support=None):
                corpus = build_corpus(config, read_support)
                rng, fmap, gen = np.random.default_rng(7), corpus.feature_map(), config.generator
                for task in corpus.tasks_in(tag):
                    # a task holds no support: phase 2 draws each episode from theta_true
                    task.theta_true = 1.0 - task.theta_true
                    # the features of a redrawn raw query set, written over the task's row
                    task.query_feats[:] = fmap(rng.normal(size=(gen.n_query, gen.q)))
                    task.query_y = (1 - task.query_y).astype(task.query_y.dtype)
                return corpus

            monkeypatch.setattr(pipeline, "build_corpus", overwritten)
        art = run_phase1(cfg, outdir=outdir / "phase1")
        phase2 = run_phase2(cfg, art, outdir=outdir / "phase2")
        return art, phase2

    @staticmethod
    def _files(directory, names=None):
        names = names or sorted(p.name for p in directory.iterdir() if p.name != "runtime.txt")
        return {name: (directory / name).read_bytes() for name in names}

    def test_ret_test_reaches_neither_phase1_nor_training(self, monkeypatch, tmp_path):
        cfg = tiny_config()
        clean_art, clean = self._run(cfg, tmp_path / "clean")
        probed_art, probed = self._run(cfg, tmp_path / "probed", monkeypatch, "Ret-Test")
        # the overwrite reached the run: the test split scores differently
        assert probed.metrics["test"].auc != clean.metrics["test"].auc
        assert [t.theta_true.tobytes() for t in probed_art.corpus.tasks_in("Ret-Test")] != [
            t.theta_true.tobytes() for t in clean_art.corpus.tasks_in("Ret-Test")]
        assert (self._files(tmp_path / "probed" / "phase1")
                == self._files(tmp_path / "clean" / "phase1"))
        assert (self._files(tmp_path / "probed" / "phase2", self.PHASE2_TRAINED)
                == self._files(tmp_path / "clean" / "phase2", self.PHASE2_TRAINED))

    def test_ret_val_does_not_reach_phase1(self, monkeypatch, tmp_path):
        cfg = tiny_config()
        self._run(cfg, tmp_path / "clean")
        _, probed = self._run(cfg, tmp_path / "probed", monkeypatch, "Ret-Val")
        assert probed.metrics["val"].auc < 0.5  # flipped labels under the trained network
        assert (self._files(tmp_path / "probed" / "phase1")
                == self._files(tmp_path / "clean" / "phase1"))


class TestBaselinesAndSweeps:
    def test_baselines_ordering(self, tiny_artifacts, tmp_path):
        cfg, art = tiny_artifacts
        results = run_baselines(cfg, art, outdir=tmp_path, support_size=5)
        assert results["oracle_ridge"].auc >= results["ridge_support"].auc
        assert (tmp_path / "baselines.csv").exists()

    def test_baselines_equal_the_raw_query_forms(self, tiny_artifacts):
        """Each baseline's metrics equal those of its form on the raw query sets generation
        drew: the ridge baselines map them, nearest-centroid measures raw distances."""
        cfg, art = tiny_artifacts
        _, queries = generate_capturing_queries(cfg.generator)  # the tags change no array
        fmap, tasks = art.corpus.feature_map(), pipeline._ret_tasks_at_size(art, "Ret-Test", 5)
        probs = {"ridge_support": [], "nearest_centroid": [], "oracle_ridge": []}
        for task in tasks:
            query_x = queries[task.index]
            oracle_task = replace(task, support_x=query_x, support_y=task.query_y)
            c_pos = task.support_x[task.support_y == 1].mean(axis=0)
            c_neg = task.support_x[task.support_y == 0].mean(axis=0)
            probs["ridge_support"].append(sigmoid(fmap(query_x) @ ridge_adapter(task, fmap)))
            probs["nearest_centroid"].append(sigmoid(np.linalg.norm(query_x - c_neg, axis=1)
                                                     - np.linalg.norm(query_x - c_pos, axis=1)))
            probs["oracle_ridge"].append(sigmoid(fmap(query_x) @ ridge_adapter(oracle_task, fmap)))
        labels = np.concatenate([task.query_y for task in tasks])
        results = run_baselines(cfg, art, support_size=5)
        for name, got in probs.items():
            assert results[name] == compute_metrics(np.concatenate(got), labels), name

    def test_fewshot_baselines_use_the_phase2_support_size(self):
        cfg = fewshot_benchmark_config()
        assert min(cfg.train_sizes) == 5
        art = run_phase1(cfg)
        default = run_baselines(cfg, art)
        at_five = run_baselines(cfg, art, support_size=5)
        assert set(default) == set(at_five)
        for name, rec in default.items():
            assert vars(rec) == vars(at_five[name]), name

    def test_one_cluster_corpus_centroid_near_chance(self):
        cfg = tiny_config()
        gen = replace(cfg.generator, n_clusters=1, cluster_spread=0.0,
                      adapter_scale=0.05, n_tasks=60)
        cfg = replace(cfg, generator=gen)
        art = run_phase1(cfg)
        results = run_baselines(cfg, art, support_size=5)
        # labels are nearly coin flips, so no baseline finds real signal
        assert abs(results["nearest_centroid"].auc - 0.5) < 0.1

    def test_support_sweep_rows(self, tiny_artifacts, tmp_path):
        cfg, art = tiny_artifacts
        result = run_phase2(cfg, art)
        rows = run_support_sweep(cfg, art, result, outdir=tmp_path, sizes=(5, 10))
        assert [r["support_size"] for r in rows] == [5, 10]
        assert (tmp_path / "support_curve.csv").exists()


class TestMotifAndRiskRuns:
    def test_motif_run_outputs(self, tmp_path):
        cfg = tiny_config()
        mot = replace(cfg.motifs, n_channels=24, n_pos=16, n_neg=16, b_min=200,
                      b_max=400, null_pool_size=48, cohorts=("cohortA", "cohortB"))
        cfg = replace(cfg, motifs=mot)
        calibrations, report = run_motifs(cfg, outdir=tmp_path)
        assert [c.cohort for c in calibrations] == ["cohortA", "cohortB"]
        header = (tmp_path / "threshold_calibration.csv").read_text().splitlines()[0]
        assert header == "cohort,tau_bar,se,t_abs,p_value,delta_auc,zero_variance,retries"
        assert (tmp_path / "motif_tests.csv").exists()
        # the power curve is a step of its own
        assert not (tmp_path / "power_curve.csv").exists()
        curve = run_power_curve(cfg, outdir=tmp_path)
        assert [row["effect"] for row in curve] == [0.0, 0.5, 1.0, 2.0, 4.0]
        assert (tmp_path / "power_curve.csv").exists()

    def test_a_failed_calibration_keeps_the_other_cohorts(self, tmp_path):
        # desk seed 2023: cohortC's calibration does not pass within its retries, so
        # run_motifs raises once, after writing the other cohorts' files
        with pytest.raises(CalibrationError, match=r"^calibration for 'cohortC' did not pass "
                                                   r"within 5 retries$") as caught:
            run_motifs(desk_config(seed=2023), outdir=tmp_path)
        calibrations, report = caught.value.calibrations, caught.value.report
        assert [c is None for c in calibrations] == [False, False, True, False, False]
        assert report.screened.size >= 1  # cohort 0's screening still runs
        rows = (tmp_path / "threshold_calibration.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["cohortA", "cohortB", "cohortD", "cohortE"]
        assert (tmp_path / "motif_tests.csv").exists()
        assert (tmp_path / "motif_summary.json").exists()
        assert (tmp_path / "run.log").read_text().splitlines() == [
            "motifs cohortC: CalibrationError: calibration for 'cohortC' did not pass "
            "within 5 retries"]

    def test_riskbound_run(self, tiny_artifacts, tmp_path):
        cfg, art = tiny_artifacts
        summary = run_riskbound(cfg, art, outdir=tmp_path)
        assert summary.triangle_rate == 1.0
        assert summary.per_task_rate == 1.0
        assert (tmp_path / "riskbound.csv").exists()

    def test_riskbound_maps_each_task_block_once(self, tiny_artifacts, tmp_path, monkeypatch):
        cfg, art = tiny_artifacts
        fmap, calls = art.corpus.feature_map(), []

        def counting_map(x):
            calls.append(len(x))
            return fmap(x)

        monkeypatch.setattr(art.corpus, "feature_map", lambda: counting_map)
        run_riskbound(cfg, art, outdir=tmp_path)
        monkeypatch.undo()
        tasks = art.corpus.tasks
        # the query sets are read as their features: only the full supports are mapped
        assert calls == [cfg.generator.n_support] * len(tasks)
        # the global radius is still the largest over every full support and query row, each
        # raw block drawn again and mapped
        blocks = (b for t in tasks for b in art.corpus.replay(t)[::2])
        radius = feature_radius_of(blocks, fmap)
        log = (tmp_path / "run.log").read_text().splitlines()
        assert log[-1].endswith(f" | global lipschitz {radius:.4f}")


class TestCommandLine:
    @staticmethod
    def _config_file(cfg, path):
        path.write_text(json.dumps({"config": cfg.to_dict()}))
        return str(path)

    def test_generate_writes_the_partition_phase1_writes(self, tmp_path, capsys):
        cfg = tiny_config()
        config = self._config_file(cfg, tmp_path / "config.json")
        assert main(["--config", config, "--outdir", str(tmp_path / "gen"), "generate"]) == 0
        run_phase1(cfg, outdir=tmp_path / "phase1")
        generated = (tmp_path / "gen" / "corpus_manifest.json").read_bytes()
        assert generated == (tmp_path / "phase1" / "corpus_manifest.json").read_bytes()
        assert set(json.loads(generated)["partition"].values()) == {
            "Pre-Seed", "Pre-Rest", "Ret-Train", "Ret-Val", "Ret-Test"}

    def test_motifs_prints_a_failed_calibration(self, tmp_path, capsys):
        # desk seed 2023's cohortC does not calibrate; the command still succeeds
        assert main(["--seed", "2023", "--outdir", str(tmp_path), "motifs"]) == 0
        assert "cohortC: calibration failed (see run.log)" in capsys.readouterr().out
        assert (tmp_path / "motif_tests.csv").exists()
        assert (tmp_path / "power_curve.csv").exists()

    def test_motifs_runs_the_power_curve_step(self, tmp_path, capsys):
        cfg = tiny_config()
        cfg = replace(cfg, motifs=replace(cfg.motifs, n_channels=24, n_pos=16, n_neg=16,
                                          b_min=200, b_max=400, null_pool_size=48,
                                          cohorts=("cohortA",)))
        config = self._config_file(cfg, tmp_path / "config.json")
        assert main(["--config", config, "--outdir", str(tmp_path / "cli"), "motifs"]) == 0
        run_power_curve(cfg, outdir=tmp_path / "step")
        assert ((tmp_path / "cli" / "power_curve.csv").read_bytes()
                == (tmp_path / "step" / "power_curve.csv").read_bytes())
        assert (tmp_path / "cli" / "motif_tests.csv").exists()


class TestAblations:
    def test_variant_configs(self):
        cfg = tiny_config()
        assert ablation_config(cfg, "gamma_zero").gamma == 0.0
        assert ablation_config(cfg, "soft_l1_only").hard_threshold is False
        # the soft rule keeps all K, so the ablation drops a base's r_keep
        soft = ablation_config(tiny_config(r_keep=2), "soft_l1_only")
        assert soft.r_keep is None
        soft.validate()
        assert ablation_config(cfg, "no_canonicalization").canonicalize is False
        assert ablation_config(cfg, "no_transform").warp.kind == "none"
        assert set(ABLATION_VARIANTS) >= {"full", "fixed_r", "soft_l1_only",
                                          "gamma_zero", "no_canonicalization",
                                          "no_transform"}

    def test_soft_rule_is_r_keep_equal_to_k(self):
        for r_keep in (None, 1, 3, 100):
            hard = tiny_config(r_keep=r_keep)
            soft = replace(hard, hard_threshold=False)
            for rank, k in ((2, 4), (4, 4), (6, 4)):
                assert pipeline._r_keep(soft, rank, k) == k
                expected = r_keep if r_keep is not None else min(rank, k)
                assert pipeline._r_keep(hard, rank, k) == expected

    def test_no_op_soft_ablation_is_flagged(self, tmp_path):
        # desk seed 42 ends at r_keep = K = 4: the top-r rule keeps everything
        rows = pipeline.run_ablations(desk_config(seed=42), ["full", "soft_l1_only"],
                                      outdir=tmp_path)
        full, soft = rows
        assert (soft["rank"], soft["k"]) == (4, 4)
        assert (full["auc"], full["f1"], full["ece"]) == (soft["auc"], soft["f1"], soft["ece"])
        log = (tmp_path / "run.log").read_text().splitlines()
        assert log == ["ablation soft_l1_only: r_keep 4 >= K 4, so hard_top_r keeps every "
                       "activation and this row equals full by construction"]

    def test_soft_ablation_with_k_above_r_keep_is_not_flagged(self, tmp_path):
        rows = pipeline.run_ablations(tiny_config(r_keep=1), ["soft_l1_only"], outdir=tmp_path)
        assert rows[0]["k"] > 1
        assert not (tmp_path / "run.log").exists()

    def test_soft_base_config_flags_no_variant(self, tmp_path):
        # every variant of a soft-threshold base is soft; none turns a rule off
        rows = pipeline.run_ablations(tiny_config(hard_threshold=False),
                                      ["full", "gamma_zero"], outdir=tmp_path)
        assert [row["variant"] for row in rows] == ["full", "gamma_zero"]
        assert not (tmp_path / "run.log").exists()

    def test_gamma_zero_on_a_rank_deficient_memory_fails_before_training(self, tmp_path,
                                                                       monkeypatch):
        # at gamma = 0, H = M M^T is singular when rank(M) < K: the solve has no unique minimizer
        cfg = replace(small_fewshot_config(), gamma=0.0)
        art = run_phase1(cfg)
        rank, k = art.memory.rank, art.memory.K
        assert rank < k

        def forbidden(*args, **kwargs):
            raise AssertionError("training must not start")

        monkeypatch.setattr(pipeline, "train_retrieval", forbidden)
        with pytest.raises(ValidationError, match=rf"its rank is {rank} < K = {k}"):
            run_phase2(cfg, art)
        monkeypatch.undo()
        # the gamma_zero ablation row stops existing there, and run.log says why
        rows = pipeline.run_ablations(replace(cfg, gamma=0.1), ["gamma_zero", "no_transform"],
                                      outdir=tmp_path)
        assert [row["variant"] for row in rows] == ["no_transform"]
        assert (tmp_path / "run.log").read_text().splitlines() == [
            f"ablation gamma_zero: no row, gamma = 0 needs a memory of full rank, but its "
            f"rank is {rank} < K = {k}"]
        stages = (tmp_path / "runtime.txt").read_text()
        assert "stage=ablation.gamma_zero.phase1 " in stages
        assert "stage=ablation.gamma_zero.phase2" not in stages

    def test_single_prototype_memory_degenerates(self):
        cfg = tiny_config(k_grid=(1,))
        art = run_phase1(cfg)
        assert art.memory.K == 1
        result = run_phase2(cfg, art)
        # single-prototype retrieval equals that prototype's direct classifier
        from protoadapt.util import sigmoid
        probs, labels = [], []
        from protoadapt.pipeline import _ret_tasks_at_size
        for t in _ret_tasks_at_size(art, "Ret-Test", min(cfg.train_sizes)):
            probs.append(sigmoid(t.query_feats @ art.memory.M[0]))
            labels.append(t.query_y)
        direct = compute_metrics(np.concatenate(probs), np.concatenate(labels))
        assert abs(result.metrics["test"].auc - direct.auc) < 0.05


class TestReportBundle:
    def test_phase1_only_guard(self, tmp_path):
        cfg = tiny_config()
        run_phase1(cfg, outdir=tmp_path)
        summary = emit_report(tmp_path)
        text = summary.read_text()
        assert "phase-1-only bundle" in text
        # the phase1 row, then one row per step under it, and no solver counters: the
        # CI workflow greps these rows
        rows = text.split("stages (runtime.txt):\n")[1].splitlines()
        assert re.fullmatch(r"phase1 +[0-9]+\.[0-9]{3} +- +- +[0-9]+\.[0-9]", rows[1])
        assert [row.split()[0] for row in rows[2:]] == list(PHASE1_STEPS)
        assert "solver counters" not in text

    def test_full_bundle_lists_artifacts(self, tmp_path):
        cfg = tiny_config()
        art = run_phase1(cfg, outdir=tmp_path)
        run_phase2(cfg, art, outdir=tmp_path)
        text = emit_report(tmp_path).read_text()
        assert "[x] retrieval metrics" in text
        assert "phase-1-only" not in text

    def test_stage_table_and_solver_counters(self, tmp_path):
        cfg = tiny_config()
        art = run_phase1(cfg, outdir=tmp_path)
        run_phase2(cfg, art, outdir=tmp_path)
        lines = emit_report(tmp_path).read_text().splitlines()
        stage_lines = (tmp_path / "runtime.txt").read_text().splitlines()
        head = lines.index("stages (runtime.txt):") + 1
        assert lines[head].split() == ["stage", "ms", "tasks", "ms/task", "rss_mb"]
        table = lines[head + 1:head + 1 + len(stage_lines)]
        assert [row.split()[0] for row in table] == [
            "phase1", *PHASE1_STEPS, "phase2.fit", *PHASE2_FIT_STEPS, "phase2.predict.train",
            "phase2.predict.val", "phase2.predict.test"]
        for row, stage_line in zip(table, stage_lines):
            fields = dict(field.split("=", 1) for field in stage_line.split())
            stage, ms, tasks, per_task, rss_mb = row.split()
            assert (stage, ms, rss_mb) == (fields["stage"], fields["ms"], fields["rss_mb"])
            if "tasks" in fields:
                assert tasks == fields["tasks"]
                assert per_task == f"{float(ms) / int(tasks):.3f}"
            else:
                assert tasks == per_task == "-"
        header, *rows = (line.split(",")
                         for line in (tmp_path / "training_curve.csv").read_text().splitlines())
        last = dict(zip(header, rows[-1]))
        assert lines[head + 1 + len(stage_lines):] == [
            "", f"solver counters at the last epoch ({last['epoch']}) of training_curve.csv: "
                f"solver_iterations {last['solver_iterations']}, "
                f"mean_active_size {last['mean_active_size']}"]
