import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from protoadapt import synthdata
from protoadapt.synthdata import (
    FRAC_PRE,
    FRAC_SEED,
    PARTITIONS,
    RET_FRACS,
    CorpusTask,
    EpisodeTask,
    GeneratorConfig,
    PartitionError,
    _sample_labeled_set,
    generate_corpus,
    partition_sizes,
    partition_tags,
    resample_support,
    save_corpus,
)
from protoadapt.util import ValidationError, child_rng, require


def generate_then_partition(tasks, frac_pre=FRAC_PRE, frac_seed=FRAC_SEED, seed=0,
                            ret_fracs=RET_FRACS):
    """The oracle for ``partition_tags``: the tagging of generated tasks that it replaced.

    One tag assigned to each task, in the seeded permutation's order; returns
    each tag's count.
    """
    n = len(tasks)
    sizes = partition_sizes(n, frac_pre, frac_seed, ret_fracs)
    require(n >= 5, "need at least five tasks to fill all partitions")
    order = child_rng(seed, "partition").permutation(n)
    for i, tag in zip(order, np.repeat(PARTITIONS, list(sizes.values()))):
        tasks[i].partition = str(tag)
    return sizes


def _counts(tags):
    return {tag: tags.count(tag) for tag in PARTITIONS}


def generate_reading(cfg, tags=None):
    """The corpus and, for each task in the order read, what ``read_support`` received:
    (task, x, y, fmap(x)). The captured draw is the oracle for every support replay."""
    read = []

    def read_support(task, x, y, fmap):
        read.append((task, x, y, fmap(x)))

    return generate_corpus(cfg, tags, read_support), read


def generate_capturing_queries(cfg, tags=None):
    """The corpus and each task's raw query set as generation drew it, in task order: the
    oracle of the stored feature rows and of every raw-query replay."""
    draws = []

    def recording(rng, n, cfg, w_theta):
        x, y = _sample_labeled_set(rng, n, cfg, w_theta)
        draws.append(x)
        return x, y

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synthdata, "_sample_labeled_set", recording)
        corpus = generate_corpus(cfg, tags)
    return corpus, draws[1::2]  # each task draws its support, then its query


def test_zero_noise_full_rank_theta_in_subspace():
    cfg = GeneratorConfig(d_theta=4, q=8, r_true=4, n_tasks=10, seed=3)
    corpus = generate_corpus(cfg)
    basis = corpus.basis
    for task in corpus.tasks:
        proj = basis @ (basis.T @ task.theta_true)
        assert np.linalg.norm(task.theta_true - proj) < 1e-12


def test_same_seed_bit_identical():
    cfg = GeneratorConfig(n_tasks=12, seed=99)
    (c1, read1), (c2, read2) = generate_reading(cfg), generate_reading(cfg)
    assert np.array_equal(c1.feature_w, c2.feature_w)
    for t1, t2 in zip(c1.tasks, c2.tasks):
        assert np.array_equal(t1.query_feats, t2.query_feats)
        assert np.array_equal(t1.theta_true, t2.theta_true)
    for (_, x1, y1, _), (_, x2, y2, _) in zip(read1, read2):
        assert np.array_equal(x1, x2)
        assert np.array_equal(y1, y2)


def test_planted_rank_two_energy():
    # eigendecomposition oracle on the generated adapter set
    cfg = GeneratorConfig(d_theta=8, q=16, r_true=2, n_tasks=200, seed=7)
    corpus = generate_corpus(cfg)
    thetas = np.stack([t.theta_true for t in corpus.tasks])
    eigvals = np.linalg.eigvalsh(thetas.T @ thetas)[::-1]
    assert eigvals[:2].sum() / eigvals.sum() >= 0.99


def test_off_subspace_norm_exact():
    cfg = GeneratorConfig(d_theta=6, q=8, r_true=2, n_tasks=20, off_subspace_norm=0.3, seed=5)
    corpus = generate_corpus(cfg)
    basis = corpus.basis
    for task in corpus.tasks:
        resid = task.theta_true - basis @ (basis.T @ task.theta_true)
        assert np.linalg.norm(resid) == pytest.approx(0.3, abs=1e-10)


def test_both_classes_present_and_disjoint_draws():
    cfg = GeneratorConfig(n_tasks=40, n_support=5, n_query=8, seed=11)
    corpus, read = generate_reading(cfg)
    for task, support_x, support_y, _ in read:
        assert 0 < support_y.sum() < cfg.n_support
        # continuous draws: no support row reappears among queries
        query_x = corpus.replay(task)[2]
        for row in support_x:
            assert not np.any(np.all(np.isclose(query_x, row), axis=1))


def test_invalid_configs_rejected():
    with pytest.raises(ValidationError):
        GeneratorConfig(r_true=9, d_theta=8).validate()
    with pytest.raises(ValidationError):
        GeneratorConfig(n_support=1).validate()
    with pytest.raises(ValidationError):
        GeneratorConfig(n_tasks=0).validate()


def test_resample_support_deterministic_and_query_fixed():
    cfg = GeneratorConfig(n_tasks=6, seed=2)
    corpus = generate_corpus(cfg)
    task = corpus.tasks[0]
    a = resample_support(corpus, task, 20)
    b = resample_support(corpus, task, 20)
    assert np.array_equal(a.support_x, b.support_x)
    assert a.support_x.shape[0] == 20
    assert np.array_equal(a.query_feats, task.query_feats)


def test_labels_are_int8_zeros_and_ones():
    cfg = GeneratorConfig(n_tasks=12, n_support=5, n_query=8, seed=3)
    corpus = generate_corpus(cfg)
    resampled = [resample_support(corpus, task, 7) for task in corpus.tasks]
    for task in [corpus.full_support(task) for task in corpus.tasks] + resampled:
        for y in (task.support_y, task.query_y):
            assert y.dtype == np.int8 and set(y.tolist()) == {0, 1}
    # a resampled support shares its task's query labels
    assert all(new.query_y is old.query_y for new, old in zip(resampled, corpus.tasks))
    # one sample cannot hold both classes: the forced flip keeps the type
    _, y = _sample_labeled_set(child_rng(0, "flip"), 1, cfg, np.ones(cfg.q))
    assert y.dtype == np.int8 and y.tolist() in ([0], [1])


class TestPartition:
    def test_seed_fraction_80_of_100(self):
        # force exactly 100 pre tasks
        counts = _counts(partition_tags(220, 1, frac_pre=100 / 220, frac_seed=0.8))
        assert counts["Pre-Seed"] == 80
        assert counts["Pre-Rest"] == 20

    def test_disjoint_and_reproducible(self):
        cfg = GeneratorConfig(n_tasks=60, seed=13)
        tags = partition_tags(60, 4)
        assert partition_tags(60, 4) == tags
        assert set(tags) <= set(PARTITIONS)
        c1 = generate_corpus(cfg, tags)
        c2 = generate_corpus(cfg)
        counts = generate_then_partition(c2.tasks, seed=4)
        assert [t.partition for t in c1.tasks] == [t.partition for t in c2.tasks] == tags
        assert counts == _counts(tags)
        assert sum(counts.values()) == 60

    def test_partition_assigned_once(self):
        cfg = GeneratorConfig(n_tasks=20, seed=31)
        with pytest.raises(PartitionError, match="unknown partition tag"):
            generate_corpus(cfg, ["Pre-Seed"] * 19 + ["Ret-Holdout"])
        with pytest.raises(ValidationError, match="one partition per task"):
            generate_corpus(cfg, partition_tags(21, 0))

    def test_fewer_than_five_tasks_fails(self):
        with pytest.raises(ValidationError, match="at least five tasks"):
            partition_tags(4, 0)

    def test_every_partition_nonempty_at_extreme_fractions(self):
        # the clamps alone leave every partition a task: partition_tags does not check it
        cfg = GeneratorConfig(n_tasks=60, n_support=2, n_query=1, seed=43)
        tasks = generate_corpus(cfg).tasks
        for n in range(5, 61):
            for frac_pre in (0.01, 0.5, 0.99):
                for frac_seed in (0.01, 0.99):
                    for ret_fracs in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                                      (0.6, 0.2, 0.2)):
                        tags = partition_tags(n, n, frac_pre=frac_pre, frac_seed=frac_seed,
                                              ret_fracs=ret_fracs)
                        counts = _counts(tags)
                        case = (n, frac_pre, frac_seed, ret_fracs)
                        assert min(counts.values()) >= 1, case
                        assert sum(counts.values()) == n, case
                        fresh = [replace(t, partition=None) for t in tasks[:n]]
                        assert generate_then_partition(fresh, frac_pre, frac_seed, n,
                                                       ret_fracs) == counts, case
                        assert [t.partition for t in fresh] == tags, case


def test_feature_map_bit_equal_to_the_atleast_2d_form():
    """The map binds W^T once and skips ``atleast_2d`` on a 2-d block; the oracle does not."""
    corpus = generate_corpus(GeneratorConfig(n_tasks=6, n_support=4, n_query=4, seed=3))
    fmap, w = corpus.feature_map(), corpus.feature_w
    rng = np.random.default_rng(4)
    row = rng.normal(size=corpus.cfg.q)
    block = rng.normal(size=(7, corpus.cfg.q))
    inputs = [row, block, block[:0], np.asfortranarray(block), block[::2],
              rng.integers(-3, 4, size=(5, corpus.cfg.q)), rng.integers(-3, 4, size=corpus.cfg.q),
              block.astype(np.float32), row.tolist(), block.tolist(), [row.tolist()]]
    for x in inputs:
        oracle = np.atleast_2d(np.asarray(x, dtype=float)) @ w.T
        got = fmap(x)
        assert got.shape == oracle.shape and got.tobytes() == oracle.tobytes()


def test_feature_rows_are_the_mapped_query_draws():
    # q > d_theta as on every profile, and q < d_theta, whose map is not orthonormal
    for cfg in (GeneratorConfig(n_tasks=12, n_support=5, n_query=7, seed=9),
                GeneratorConfig(d_theta=6, q=4, r_true=2, n_tasks=9, n_support=3, n_query=4,
                                off_subspace_norm=0.2, seed=10)):
        for tags in (None, partition_tags(cfg.n_tasks, 3)):
            corpus, queries = generate_capturing_queries(cfg, tags)
            fmap = corpus.feature_map()
            block = corpus.tasks[0].query_feats.base
            assert block.shape == (cfg.n_tasks, cfg.n_query, cfg.d_theta)
            assert len(queries) == cfg.n_tasks
            for task, query_x in zip(corpus.tasks, queries):
                feats = task.query_feats
                assert feats.base is block and feats.flags.c_contiguous
                assert feats.shape == (cfg.n_query, cfg.d_theta) and feats.dtype == np.float64
                # the stored row is the map of the drawn query, bit for bit
                assert feats.tobytes() == fmap(query_x).tobytes(), task.task_id
                # and the replay draws that raw query again
                assert corpus.replay(task)[2].tobytes() == query_x.tobytes(), task.task_id
                assert not hasattr(task, "query_x")


def test_generated_tasks_hold_no_support():
    cfg = GeneratorConfig(n_tasks=10, n_support=6, n_query=5, seed=5)
    for tags in (None, partition_tags(cfg.n_tasks, 3)):
        corpus = generate_corpus(cfg, tags)
        assert [t.partition for t in corpus.tasks] == (tags or [None] * cfg.n_tasks)
        for task in corpus.tasks:
            assert type(task) is CorpusTask
            for name in ("support_x", "support_y", "n_support"):
                assert not hasattr(task, name), (task.task_id, name)


def test_episodes_share_their_task_query_arrays():
    cfg = GeneratorConfig(n_tasks=8, n_support=6, n_query=5, seed=5)
    corpus = generate_corpus(cfg, partition_tags(cfg.n_tasks, 3))
    for task in corpus.tasks:
        for episode, n in ((corpus.full_support(task), cfg.n_support),
                           (resample_support(corpus, task, 7), 7)):
            assert type(episode) is EpisodeTask and episode.n_support == n
            # every task field is the task's own object: the query arrays are shared
            for f in fields(CorpusTask):
                assert getattr(episode, f.name) is getattr(task, f.name), f.name


def test_full_support_replays_the_drawn_support():
    # off the subspace, so a task's stream holds the extra draw before its support
    cfg = GeneratorConfig(d_theta=6, q=8, n_tasks=30, n_support=12, n_query=5,
                          off_subspace_norm=0.3, seed=5)
    tags = partition_tags(cfg.n_tasks, 3)
    tagged, read = generate_reading(cfg, tags)
    untagged = generate_corpus(cfg)
    for task, plain, (_, x, y, _) in zip(tagged.tasks, untagged.tasks, read):
        episode = tagged.full_support(task)
        for got, want in ((episode.support_x, x), (episode.support_y, y)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), task.task_id
        # the tag changes no array
        for name in ("query_feats", "query_y", "theta_true"):
            assert getattr(task, name).tobytes() == getattr(plain, name).tobytes()
        assert (untagged.full_support(plain).support_x.tobytes()
                == episode.support_x.tobytes())
        assert (resample_support(tagged, task, 7).support_x.tobytes()
                == resample_support(untagged, plain, 7).support_x.tobytes())


def test_read_support_sees_every_task_once_in_order_with_the_corpus_map():
    cfg = GeneratorConfig(d_theta=6, q=8, n_tasks=20, n_support=12, n_query=5, seed=5)
    for tags in (None, partition_tags(cfg.n_tasks, 3)):
        corpus, read = generate_reading(cfg, tags)
        assert [task.index for task, *_ in read] == list(range(cfg.n_tasks))
        assert all(got is task for (got, *_), task in zip(read, corpus.tasks))
        fmap = corpus.feature_map()
        for _, x, y, features in read:
            assert x.shape == (cfg.n_support, cfg.q) and y.shape == (cfg.n_support,)
            assert features.tobytes() == fmap(x).tobytes()


def test_unknown_tag_refused_before_any_draw(monkeypatch):
    cfg = GeneratorConfig(n_tasks=20, seed=31)

    def draw(*args):
        raise AssertionError("a support or query set was drawn before the tags were checked")

    monkeypatch.setattr(synthdata, "_sample_labeled_set", draw)
    for tags in (["Pre-Seed"] * 19 + ["Ret-Holdout"], ["Pre-Seed"] * 19 + [None]):
        with pytest.raises(PartitionError, match="unknown partition tag"):
            generate_corpus(cfg, tags)


def test_save_corpus_roundtrip_shape(tmp_path):
    cfg = GeneratorConfig(n_tasks=5, n_support=4, n_query=6, q=3, seed=41)
    corpus = generate_corpus(cfg, partition_tags(5, 0))
    csv_path = tmp_path / "corpus.csv"
    save_corpus(corpus, csv_path, tmp_path / "manifest.json")
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].split(",")[:3] == ["task_id", "split", "label"]
    assert len(lines) == 1 + 5 * (4 + 6)
    assert (tmp_path / "manifest.json").exists()
    # the tags change no row
    save_corpus(generate_corpus(cfg), tmp_path / "untagged.csv")
    assert csv_path.read_bytes() == (tmp_path / "untagged.csv").read_bytes()


def _joined_csv(corpus, queries) -> str:
    """The corpus CSV as one joined string: the form ``save_corpus`` wrote before streaming,
    its query rows the raw query sets generation drew (``generate_capturing_queries``)."""
    header = ["task_id", "split", "label"] + [f"x{j}" for j in range(corpus.cfg.q)]
    lines = [",".join(header)]
    for task, query_x in zip(corpus.tasks, queries):
        episode = corpus.full_support(task)
        for split, xs, ys in (("support", episode.support_x, episode.support_y),
                              ("query", query_x, task.query_y)):
            for row, label in zip(xs, ys):
                cells = [task.task_id, split, str(int(label))]
                cells += [f"{v:.12g}" for v in row]
                lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_save_corpus_streams_the_joined_bytes(tmp_path):
    tiny = GeneratorConfig(n_tasks=5, n_support=4, n_query=6, q=3, seed=41)
    larger = GeneratorConfig(n_tasks=40, n_support=200, n_query=50, q=8, seed=41)
    for cfg in (tiny, larger):
        corpus, queries = generate_capturing_queries(cfg, partition_tags(cfg.n_tasks, 0))
        csv_path = tmp_path / f"corpus-{cfg.n_tasks}.csv"
        tracemalloc.start()
        try:
            save_corpus(corpus, csv_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert csv_path.read_bytes() == _joined_csv(corpus, queries).encode()
    # one task's lines at a time: the peak is a fraction of the 40-task CSV
    size = csv_path.stat().st_size
    assert peak < size / 4, (peak, size)
