import numpy as np
import pytest

from protoadapt.adapters import Canonicalizer
from protoadapt.descriptors import (
    DEFAULT_PERCENTILES,
    LeakageError,
    ProbeHead,
    Standardizer,
    _percentile_steps,
    _percentiles,
    _probe_fit,
    build_descriptor,
    pooled_moments,
)
from protoadapt.prototypes import ProjectionChain
from protoadapt.synthdata import GeneratorConfig, generate_corpus, partition_tags
from protoadapt.util import ValidationError, sigmoid


class _Task:
    def __init__(self, x, y, task_id="t0", partition=None):
        self.support_x = np.asarray(x, dtype=float)
        self.support_y = np.asarray(y, dtype=int)
        self.task_id = task_id
        self.partition = partition


def identity_map(x):
    return np.atleast_2d(np.asarray(x, dtype=float))


class TestPooledMoments:
    def test_single_vector(self):
        h = np.array([[1.0, -2.0, 3.0]])
        mu, sigma = pooled_moments(h)
        assert np.array_equal(mu, h[0])
        assert np.allclose(sigma, 0.0)

    def test_symmetric_pair(self):
        h = np.array([[2.0, -1.0], [-2.0, 1.0]])
        mu, sigma = pooled_moments(h)
        assert np.allclose(mu, 0.0)
        assert np.allclose(sigma, np.abs(h[0]))

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(5, 4))
        mu, sigma = pooled_moments(h)
        mu_direct = sum(h) / 5
        var_direct = sum((row - mu_direct) ** 2 for row in h) / 5
        assert np.max(np.abs(mu - mu_direct)) < 1e-12
        assert np.max(np.abs(sigma - np.sqrt(var_direct))) < 1e-12


def _mean_moments(h):
    # pooled_moments as it was, kept as the oracle: np.mean over the support
    mu = h.mean(axis=0)
    return mu, np.sqrt(np.mean((h - mu) ** 2, axis=0))


def _mean_probe_fit(probe, task, feature_map):
    # _probe_fit as it was, kept as the oracle: np.mean over the support
    x = feature_map(task.support_x)
    err = sigmoid(x @ probe.weights + probe.bias) - np.asarray(task.support_y, dtype=float)
    return np.concatenate([(err[:, None] * x).mean(axis=0), [err.mean()]])


@pytest.mark.parametrize("kernel", ["pooled_moments", "_probe_fit"])
def test_support_means_bytes_equal_np_mean(kernel):
    rng = np.random.default_rng(29)
    for n in range(1, 51):
        for q in (1, 3, 8):
            x = rng.normal(size=(n, q)) * rng.choice([1e-3, 1.0, 50.0])
            if kernel == "pooled_moments":
                out, ref = np.concatenate(pooled_moments(x)), np.concatenate(_mean_moments(x))
            else:
                probe = ProbeHead(weights=rng.normal(size=q), bias=float(rng.normal()), seed=0)
                task = _Task(x, rng.integers(0, 2, size=n))
                ref = _mean_probe_fit(probe, task, identity_map)
                # a corpus's int8 labels on odd sizes, int64 on even
                task.support_y = task.support_y.astype((np.int64, np.int8)[n % 2])
                out = _probe_fit(probe, task, identity_map)
            assert out.tobytes() == ref.tobytes(), (n, q)


class TestProbeGradient:
    def test_saturated_correct_probe(self):
        probe = ProbeHead(weights=np.array([50.0, 0.0]), bias=0.0, seed=0)
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        task = _Task(x, [1, 0])
        grad = _probe_fit(probe, task, identity_map)
        assert np.linalg.norm(grad) < 1e-8

    def test_symmetric_support_zero_bias_gradient(self):
        probe = ProbeHead(weights=np.zeros(2), bias=0.0, seed=0)
        x = np.array([[1.0, 2.0], [-1.0, -2.0]])
        task = _Task(x, [1, 0])
        grad = _probe_fit(probe, task, identity_map)
        assert grad[-1] == pytest.approx(0.0, abs=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        probe = ProbeHead(weights=rng.normal(size=3), bias=0.3, seed=0)
        x = rng.normal(size=(4, 3))
        y = rng.integers(0, 2, size=4)
        task = _Task(x, y)
        grad = _probe_fit(probe, task, identity_map)

        def loss_at(w, b):
            p = np.clip(sigmoid(x @ w + b), 1e-12, 1 - 1e-12)
            return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))

        eps = 1e-6
        fd = np.empty(4)
        for j in range(3):
            dw = np.zeros(3)
            dw[j] = eps
            fd[j] = (loss_at(probe.weights + dw, probe.bias)
                     - loss_at(probe.weights - dw, probe.bias)) / (2 * eps)
        fd[3] = (loss_at(probe.weights, probe.bias + eps)
                 - loss_at(probe.weights, probe.bias - eps)) / (2 * eps)
        assert np.max(np.abs(grad - fd)) / max(np.linalg.norm(fd), 1e-12) < 1e-6

    def test_non_binary_labels_rejected(self):
        probe = ProbeHead(weights=np.zeros(2), bias=0.0, seed=0)
        for labels in ([0, 2], [-1, 1]):
            with pytest.raises(ValidationError, match="binary"):
                _probe_fit(probe, _Task(np.eye(2), labels), identity_map)
        with pytest.raises(ValidationError, match="binary"):
            task = _Task(np.eye(2), [0, 1])
            task.support_y = np.array([0.0, np.nan])
            _probe_fit(probe, task, identity_map)

    def test_probe_deterministic_from_seed(self):
        a = ProbeHead.create(6, seed=9)
        b = ProbeHead.create(6, seed=9)
        assert np.array_equal(a.weights, b.weights)


def _fitted_setup(seed=5, n_tasks=40, q=6, d=4, r=2):
    cfg = GeneratorConfig(d_theta=d, q=q, r_true=r, n_tasks=n_tasks,
                          n_support=8, n_query=6, seed=seed)
    corpus = generate_corpus(cfg, partition_tags(n_tasks, 0))
    # a generated task holds no support: each task here is its episode on the support drawn again
    corpus.tasks = [corpus.full_support(task) for task in corpus.tasks]
    chain = ProjectionChain(canonicalizer=Canonicalizer.identity(d), r=r)
    pre = corpus.tasks_in("Pre-Seed", "Pre-Rest")
    std = Standardizer().fit_from_tasks(pre)
    probe = ProbeHead.create(d, seed=1)
    return corpus, chain, std, probe


class TestStandardizerLeakage:
    def test_fit_on_pre_tasks_ok(self):
        corpus, chain, std, probe = _fitted_setup()
        assert std.mean is not None

    def test_ret_task_raises(self):
        corpus, *_ = _fitted_setup()
        mixed = corpus.tasks_in("Pre-Seed") + corpus.tasks_in("Ret-Train")[:1]
        with pytest.raises(LeakageError):
            Standardizer().fit_from_tasks(mixed)


def _blocks(desc, q):
    """The moments, percentile and gradient blocks of a descriptor, by their documented slices."""
    return np.split(desc, [2 * q, 2 * q + len(DEFAULT_PERCENTILES)])


class TestBuildDescriptor:
    def test_constant_coordinate_percentiles(self):
        corpus, chain, std, probe = _fitted_setup()
        task = corpus.tasks_in("Ret-Train")[0]
        task.support_x = np.full_like(task.support_x, 0.37)
        desc = build_descriptor(task, probe, chain, std, corpus.feature_map())
        assert np.allclose(_blocks(desc, corpus.cfg.q)[1], 0.37)

    def test_zero_gradient_projects_to_zero(self):
        corpus, chain, std, probe = _fitted_setup()
        task = corpus.tasks_in("Ret-Train")[0]
        saturated = ProbeHead(weights=np.zeros(corpus.cfg.d_theta), bias=30.0, seed=0)
        task = _Task(task.support_x, np.ones(task.support_x.shape[0], dtype=int),
                     task_id="sat", partition="Ret-Train")
        desc = build_descriptor(task, saturated, chain, std, corpus.feature_map())
        assert np.allclose(_blocks(desc, corpus.cfg.q)[2], 0.0, atol=1e-10)

    def test_one_length_at_every_support_size(self):
        corpus, chain, std, probe = _fitted_setup()
        fmap = corpus.feature_map()
        q, r = corpus.cfg.q, chain.r
        base = corpus.tasks_in("Ret-Train")[0]
        assert base.support_x.shape[0] == 8
        for n in (3, 8):
            task = _Task(base.support_x[:n], base.support_y[:n], task_id=f"n{n}",
                         partition=base.partition)
            desc = build_descriptor(task, probe, chain, std, fmap)
            assert desc.shape == (2 * q + len(DEFAULT_PERCENTILES) + r + 1,)
            moments, order_stats, gradient = _blocks(desc, q)
            mu, sigma = pooled_moments(task.support_x)
            grad = _probe_fit(probe, task, fmap)
            for block, expected in [
                    (moments, std.transform(np.concatenate([mu, sigma]))),
                    (order_stats, _percentiles(task.support_x, DEFAULT_PERCENTILES)),
                    (gradient, np.concatenate([chain.project(grad[:-1]), grad[-1:]]))]:
                assert np.array_equal(block, np.clip(expected, -10.0, 10.0))

    def test_permutation_invariance(self):
        corpus, chain, std, probe = _fitted_setup()
        fmap = corpus.feature_map()
        task = corpus.tasks_in("Ret-Train")[0]
        task.support_x = task.support_x[:4]
        task.support_y = np.array([0, 1, 1, 0])
        d1 = build_descriptor(task, probe, chain, std, fmap)
        rng = np.random.default_rng(3)
        for _ in range(5):
            perm = rng.permutation(4)
            shuffled = _Task(task.support_x[perm], task.support_y[perm],
                             task_id=task.task_id, partition=task.partition)
            d2 = build_descriptor(shuffled, probe, chain, std, fmap)
            # invariant up to float summation order
            assert np.allclose(d1, d2, atol=1e-12)

    def test_bit_equal_to_the_clip_assembly(self):
        """One concatenate and minimum(maximum(...)) against the blocks' concatenates and np.clip."""

        def clipped(task, probe, chain, std, fmap, clip):
            mu, sigma = pooled_moments(task.support_x)
            std_block = std.transform(np.concatenate([mu, sigma]))
            order_block = _percentiles(task.support_x, DEFAULT_PERCENTILES)
            grad = _probe_fit(probe, task, fmap)
            g_block = np.concatenate([chain.project(grad[:-1]), grad[-1:]])
            return np.clip(np.concatenate([std_block, order_block, g_block]), -clip, clip)

        corpus, chain, std, probe = _fitted_setup()
        fmap = corpus.feature_map()
        rng = np.random.default_rng(11)
        checked = 0
        for task in corpus.tasks:
            for scale in (1.0, 30.0, 1e6):
                n = int(rng.integers(1, 9))
                shown = _Task(task.support_x[:n] * scale, task.support_y[:n],
                              task_id=task.task_id, partition=task.partition)
                for clip in (10.0, 1.0, 1e-3):  # at clip 0 only a zero's sign could differ
                    got = build_descriptor(shown, probe, chain, std, fmap, clip=clip)
                    oracle = clipped(shown, probe, chain, std, fmap, clip)
                    assert got.tobytes() == oracle.tobytes(), (task.task_id, scale, clip)
                    checked += 1
        assert checked == len(corpus.tasks) * 9

    def test_values_clipped(self):
        corpus, chain, std, probe = _fitted_setup()
        task = corpus.tasks_in("Ret-Train")[0]
        task.support_x = task.support_x * 1e6
        desc = build_descriptor(task, probe, chain, std, corpus.feature_map(), clip=10.0)
        assert np.max(np.abs(desc)) <= 10.0


class TestPercentiles:
    """``_percentiles`` against ``np.percentile``, the call it replaced, bit for bit."""

    QS = (DEFAULT_PERCENTILES, (0.0, 100.0), (0.0, 1.0, 33.3, 50.0, 66.7, 99.0, 100.0),
          tuple(np.linspace(0.0, 100.0, 41)))

    @staticmethod
    def _samples(n, rng):
        yield rng.normal(size=n)
        yield rng.integers(0, 4, size=n).astype(float)          # heavy ties, +0.0
        yield np.round(rng.normal(size=n), 1) * 1e3 + 0.0        # ties, no -0.0
        yield np.full(n, 0.37)

    def test_bit_equal_to_np_percentile(self):
        rng = np.random.default_rng(0)
        checked = 0
        for n in list(range(1, 1001)) + [12_800]:
            for values in self._samples(n, rng):
                for q in self.QS:
                    oracle = np.percentile(values, list(q))
                    assert _percentiles(values, q).tobytes() == oracle.tobytes(), (n, q)
                    checked += 1
        assert checked == 1001 * 4 * len(self.QS)

    def test_steps_are_cached_read_only(self):
        steps = _percentile_steps(50, DEFAULT_PERCENTILES)
        assert _percentile_steps(50, DEFAULT_PERCENTILES) is steps
        for arr in steps:
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_two_dimensional_support_pools_every_entry(self):
        x = np.random.default_rng(1).normal(size=(50, 16))
        oracle = np.percentile(x.ravel(), list(DEFAULT_PERCENTILES))
        assert _percentiles(x, DEFAULT_PERCENTILES).tobytes() == oracle.tobytes()
