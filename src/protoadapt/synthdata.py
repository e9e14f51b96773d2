"""Synthetic episodic tasks with planted low-dimensional adapter structure.

The generator plants task adapters near a fixed low-dimensional subspace of
parameter space, links embeddings to labels through a frozen random linear
feature map, and tags every task with one of five leakage-safe partitions:
Pre-Seed, Pre-Rest, Ret-Train, Ret-Val, Ret-Test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .util import ValidationError, check_fields, child_rng, require, sigmoid, write_json

PARTITIONS = ("Pre-Seed", "Pre-Rest", "Ret-Train", "Ret-Val", "Ret-Test")
PRE_PARTITIONS = ("Pre-Seed", "Pre-Rest")
# partition_tags' shares: pretraining, the seed subset of it, and retrieval train/val/test
FRAC_PRE, FRAC_SEED, RET_FRACS = 0.5, 0.8, (0.6, 0.2, 0.2)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for one synthetic corpus. Generation is a pure function of seed."""

    d_theta: int = 8
    q: int = 16
    r_true: int = 2
    n_tasks: int = 120
    n_support: int = 10
    n_query: int = 30
    seed: int = 42
    n_clusters: int = 4
    adapter_scale: float = 4.0
    cluster_spread: float = 0.15
    off_subspace_norm: float = 0.0  # exact distance of each adapter to the planted subspace

    BOUNDS = {"d_theta": (">=", 1), "q": (">=", 1), "r_true": (">=", 1), "n_tasks": (">=", 1),
              "n_query": (">=", 1), "n_clusters": (">=", 1), "adapter_scale": (">", 0.0),
              "cluster_spread": (">=", 0.0), "off_subspace_norm": (">=", 0.0),
              "n_support": (">=", 2)}  # both classes must fit

    def validate(self) -> None:
        """Each field's type and ``BOUNDS``, then r_true <= d_theta."""
        check_fields(self, self.BOUNDS, "generator.")
        require(self.r_true <= self.d_theta, f"generator.r_true must be at most "
                f"generator.d_theta = {self.d_theta}, got {self.r_true}")


class PartitionError(ValidationError):
    """A partition tag that is not one of ``PARTITIONS``."""


@dataclass
class CorpusTask:
    """One generated binary task: its query set and planted adapter, and no support.

    Generation draws a support for every task, hands it to its reader and
    keeps none. ``Corpus.full_support`` draws it again and ``resample_support``
    draws a new one, each as an ``EpisodeTask``. A generated task's labels are
    int8 arrays of 0 and 1.
    """

    task_id: str
    query_x: np.ndarray     # (n_query, q)
    query_y: np.ndarray     # (n_query,) int8 labels
    theta_true: np.ndarray | None = None
    partition: str | None = None
    index: int = 0

    def with_support(self, support_x, support_y) -> EpisodeTask:
        """This task's episode on the given support; it shares this task's query arrays, so
        the episodes of one task at several support sizes hold one query_x and one query_y."""
        # each field by name: a copy through dataclasses.fields on every call raised the
        # fewshot-adapt workload's peak RSS by about 0.2 MB (CPython 3.11)
        return EpisodeTask(self.task_id, self.query_x, self.query_y, self.theta_true,
                           self.partition, self.index, support_x=support_x, support_y=support_y)


@dataclass
class EpisodeTask(CorpusTask):
    """A task with a support: disjoint support and query draws."""

    support_x: np.ndarray = field(kw_only=True)   # (n_support, q) embeddings
    support_y: np.ndarray = field(kw_only=True)   # (n_support,) int8 labels

    @property
    def n_support(self) -> int:
        return self.support_x.shape[0]


@dataclass
class Corpus:
    """Generated tasks plus the frozen encoder surrogate and planted geometry.

    The float64 embeddings are nearly all of a corpus's bytes. Its tasks are
    ``CorpusTask``s, which hold no support, so the fewshot corpus holds its
    query sets alone: 11.7 MiB of embeddings and 0.09 MiB of int8 labels.
    Phase 1 reads each pretraining support as generation draws it, and no
    later step of a run reads a full support except through ``full_support``.
    """

    cfg: GeneratorConfig
    tasks: list
    feature_w: np.ndarray      # d_theta x q frozen random linear map
    basis: np.ndarray          # d_theta x r_true planted orthonormal basis
    cluster_dirs: np.ndarray   # n_clusters x r_true planted cluster directions

    def feature_map(self):
        """x -> x W^T, a row or a 2-d block of rows of any numeric dtype (as float)."""
        w_t = self.feature_w.T

        def _map(x):
            x = np.asarray(x, dtype=float)
            return (x if x.ndim == 2 else np.atleast_2d(x)) @ w_t

        return _map

    def tasks_in(self, *tags) -> list:
        return [t for t in self.tasks if t.partition in tags]

    def full_support(self, task: CorpusTask) -> EpisodeTask:
        """``task``, one of this corpus's tasks, on the support that generation drew for it:
        the same draw again, replayed from the task's stream.
        """
        theta, rng = _task_stream(self.cfg, self.basis, self.cluster_dirs, task.index)
        return task.with_support(*_sample_labeled_set(rng, self.cfg.n_support, self.cfg,
                                                      self.feature_w.T @ theta))


def _orthonormal_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    g = rng.normal(size=(rows, cols))
    q_mat, r_mat = np.linalg.qr(g)
    # fix QR sign ambiguity so the draw is deterministic across BLAS builds
    signs = np.sign(np.diag(r_mat))
    signs[signs == 0] = 1.0
    return q_mat * signs


def _cluster_directions(rng: np.random.Generator, r_true: int, n_clusters: int) -> np.ndarray:
    # directions spread over a half circle: antipodal pairs would be
    # indistinguishable to the coherence diagnostic yet both needed by
    # nonnegative combinations, so they are avoided by construction
    if r_true == 1:
        return np.ones((n_clusters, 1))
    if r_true == 2:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        angles = phase + np.pi * np.arange(n_clusters) / n_clusters
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    dirs = rng.normal(size=(n_clusters, r_true))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # flip draws into a common half space to rule out antipodal collisions
    anchor = dirs[0]
    for i in range(1, n_clusters):
        if dirs[i] @ anchor < 0:
            dirs[i] = -dirs[i]
    return dirs


def _sample_labeled_set(rng, n, cfg, w_theta):
    """Draw embeddings and Bernoulli labels, forcing both classes to appear.

    The labels are int8: 0 and 1 need no wider type, and a fewshot corpus's
    labels take 0.27 MiB where int64 took 2.2 MiB.
    """
    for _ in range(50):
        x = rng.normal(size=(n, cfg.q))
        probs = sigmoid(x @ w_theta)
        y = (rng.random(n) < probs).astype(np.int8)
        if 0 < y.sum() < n:
            return x, y
    # pathological draw: flip the most ambiguous sample to the missing class
    flip = int(np.argmin(np.abs(probs - 0.5)))
    y[flip] = 1 - y[flip]
    return x, y


def _task_stream(cfg, basis, cluster_dirs, t):
    """Task t's planted adapter and its stream, positioned at the support draw.

    The query is drawn after the support, so the support is drawn although
    it is not kept.
    """
    rng_t = child_rng(cfg.seed, "task", t)
    coord = cluster_dirs[t % cfg.n_clusters] + cfg.cluster_spread * rng_t.normal(size=cfg.r_true)
    coord = coord / np.linalg.norm(coord) * cfg.adapter_scale
    theta = basis @ coord
    if cfg.off_subspace_norm > 0 and cfg.r_true < cfg.d_theta:
        raw = rng_t.normal(size=cfg.d_theta)
        perp = raw - basis @ (basis.T @ raw)
        theta = theta + cfg.off_subspace_norm * perp / np.linalg.norm(perp)
    return theta, rng_t


def generate_corpus(cfg: GeneratorConfig, tags=None, read_support=None) -> Corpus:
    """Build the full task corpus deterministically from cfg.seed.

    Every planted adapter sits at Euclidean distance exactly
    ``cfg.off_subspace_norm`` from the planted subspace (zero by default),
    and labels follow a logistic model on the adapter/feature inner product.
    ``tags``, one partition tag per task (``partition_tags``), is checked
    before any draw and tags the tasks; untagged, every partition is None.
    The tag changes no array. No task keeps its support: ``read_support`` is
    called as ``read_support(task, x, y, fmap)`` once per task, in index
    order, with the support just drawn for it and the corpus's feature map,
    the one read of that draw before it is dropped.
    """
    cfg.validate()
    require(tags is None or len(tags) == cfg.n_tasks, "tags must name one partition per task")
    for tag in tags or ():
        if tag not in PARTITIONS:
            raise PartitionError(f"unknown partition tag {tag!r}")
    rng_map = child_rng(cfg.seed, "feature-map")
    if cfg.q >= cfg.d_theta:
        feature_w = _orthonormal_columns(rng_map, cfg.q, cfg.d_theta).T
    else:
        feature_w = rng_map.normal(size=(cfg.d_theta, cfg.q)) / np.sqrt(cfg.q)

    rng_basis = child_rng(cfg.seed, "subspace")
    basis = _orthonormal_columns(rng_basis, cfg.d_theta, cfg.r_true)
    cluster_dirs = _cluster_directions(child_rng(cfg.seed, "clusters"), cfg.r_true, cfg.n_clusters)
    corpus = Corpus(cfg=cfg, tasks=[], feature_w=feature_w, basis=basis,
                    cluster_dirs=cluster_dirs)
    fmap = corpus.feature_map()

    for t, tag in enumerate(tags or [None] * cfg.n_tasks):
        theta, rng_t = _task_stream(cfg, basis, cluster_dirs, t)
        w_theta = feature_w.T @ theta  # acts on raw embeddings
        sx, sy = _sample_labeled_set(rng_t, cfg.n_support, cfg, w_theta)
        qx, qy = _sample_labeled_set(rng_t, cfg.n_query, cfg, w_theta)
        task = CorpusTask(task_id=f"task{t:04d}", query_x=qx, query_y=qy, theta_true=theta,
                          partition=tag, index=t)
        if read_support is not None:
            read_support(task, sx, sy, fmap)
        corpus.tasks.append(task)
        del sx, sy  # dropped before the next draw, which reuses their bytes
    return corpus


def resample_support(corpus: Corpus, task: CorpusTask, n_support: int, tag: str = "resupport") -> EpisodeTask:
    """New support set of a different size for the same task identity.

    The query set is left untouched so metric sweeps over support size stay
    comparable. Deterministic in (corpus seed, task index, n_support, tag).
    """
    require(n_support >= 2, "n_support must be at least 2")
    cfg = corpus.cfg
    rng = child_rng(cfg.seed, tag, task.index, n_support)
    w_theta = corpus.feature_w.T @ task.theta_true
    return task.with_support(*_sample_labeled_set(rng, n_support, cfg, w_theta))


def partition_sizes(n: int, frac_pre: float, frac_seed: float, ret_fracs) -> dict:
    """Each tag's task count for n tasks: a ``frac_pre`` share of pretraining tasks, ``frac_seed``
    of them Pre-Seed, the rest split by ``ret_fracs``. From five tasks on every count is
    at least one; below five the Pre-Seed count is not.
    """
    require(0.0 < frac_pre < 1.0, "frac_pre must lie in (0, 1)")
    require(0.0 < frac_seed < 1.0, "frac_seed must lie in (0, 1)")
    require(len(ret_fracs) == 3 and abs(sum(ret_fracs) - 1.0) < 1e-9, "ret_fracs must sum to 1")
    n_pre = min(max(int(round(frac_pre * n)), 2), n - 3)
    n_seed = min(max(int(round(frac_seed * n_pre)), 1), n_pre - 1)
    n_ret = n - n_pre
    n_train = min(max(int(round(ret_fracs[0] * n_ret)), 1), n_ret - 2)
    n_val = min(max(int(round(ret_fracs[1] * n_ret)), 1), n_ret - n_train - 1)
    return dict(zip(PARTITIONS, (n_seed, n_pre - n_seed, n_train, n_val, n_ret - n_train - n_val)))


def partition_tags(n: int, seed: int, frac_pre: float = FRAC_PRE, frac_seed: float = FRAC_SEED,
                   ret_fracs=RET_FRACS) -> list:
    """Task i's partition tag at index i: a seeded permutation cut at ``partition_sizes``.

    It reads no task, so a run tags its corpus before generating it.
    """
    sizes = partition_sizes(n, frac_pre, frac_seed, ret_fracs)
    require(n >= 5, "need at least five tasks to fill all partitions")
    tags = [None] * n
    order = child_rng(seed, "partition").permutation(n)
    for i, tag in zip(order, np.repeat(PARTITIONS, list(sizes.values()))):
        tags[i] = str(tag)
    return tags


def save_corpus(corpus: Corpus, csv_path, manifest_path=None) -> None:
    """Serialize the corpus: one CSV row per sample plus a JSON manifest.

    The CSV is written through one open file, one task's lines at a time, so
    no more than one task's rows are held as text.
    """
    csv_path = Path(csv_path)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    q = corpus.cfg.q
    header = ["task_id", "split", "label"] + [f"x{j}" for j in range(q)]
    with csv_path.open("w") as out:
        out.write(",".join(header) + "\n")
        for task in corpus.tasks:
            lines, episode = [], corpus.full_support(task)
            for split, xs, ys in (("support", episode.support_x, episode.support_y),
                                  ("query", task.query_x, task.query_y)):
                for row, label in zip(xs, ys):
                    cells = [task.task_id, split, str(int(label))]
                    cells += [f"{v:.12g}" for v in row]
                    lines.append(",".join(cells) + "\n")
            out.write("".join(lines))
    if manifest_path is not None:
        save_corpus_manifest(corpus, manifest_path)


def save_corpus_manifest(corpus: Corpus, path) -> None:
    """The generator config plus each task's partition tag.

    ``generate_corpus(GeneratorConfig(**manifest["config"]))`` rebuilds every
    task array bit for bit, so the manifest stands in for the sample CSV.
    """
    write_json(path, {
        "config": vars(corpus.cfg),
        "partition": {t.task_id: t.partition for t in corpus.tasks},
    })
