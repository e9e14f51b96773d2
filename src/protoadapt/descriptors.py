"""Task descriptors: pooled moments, probe gradients, standardized assembly.

Descriptors are permutation invariant in the support ordering and are
standardized exclusively with pretraining-partition statistics; building a
standardizer from any retrieval-partition task is a leakage error by
construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .synthdata import PRE_PARTITIONS
from .util import ValidationError, check_finite, child_rng, require, sigmoid, write_csv

DEFAULT_PERCENTILES = (10.0, 25.0, 50.0, 75.0, 90.0)


class LeakageError(RuntimeError):
    """Retrieval-partition data reached a pretraining-only statistic."""


@dataclass(frozen=True)
class ProbeHead:
    """Fixed affine-plus-logistic probe whose loss gradient characterizes a task.

    The weight vector lives in adapter space and consumes embeddings through
    the frozen feature map, so its gradient can be projected by the same
    rank-r operator as the adapters.
    """

    weights: np.ndarray
    bias: float
    seed: int

    @classmethod
    def create(cls, d_theta: int, seed: int) -> "ProbeHead":
        rng = child_rng(seed, "probe")
        w = rng.normal(size=d_theta) / np.sqrt(d_theta)
        head = cls(weights=w, bias=0.0, seed=seed)
        head.weights.setflags(write=False)
        return head


def pooled_moments(embeddings):
    """Pooled mean and elementwise population standard deviation."""
    h = check_finite(embeddings, "embeddings")
    require(h.ndim == 2 and h.shape[0] >= 1, "need a nonempty 2-d embedding block")
    n = h.shape[0]
    mu = h.sum(axis=0) / n
    sigma = np.sqrt(((h - mu) ** 2).sum(axis=0) / n)
    return mu, sigma


def _probe_fit(probe: ProbeHead, task, feature_map):
    """The probe's mean cross-entropy gradient on the support, bias partial last."""
    x = check_finite(feature_map(task.support_x), "support features")
    y = np.asarray(task.support_y, dtype=float)
    require(np.count_nonzero((y == 0.0) | (y == 1.0)) == y.size, "labels must be binary")
    err = sigmoid(x @ probe.weights + probe.bias) - y
    n = err.size
    return np.concatenate([(err[:, None] * x).sum(axis=0) / n, [err.sum() / n]])


class Standardizer:
    """Per-coordinate standardization of the pooled-moment block.

    Fit only on pretraining tasks; any retrieval-tagged task in the fit set
    raises LeakageError.
    """

    def __init__(self):
        self.mean = None
        self.std = None
        self.fitted_on = None

    def fit_from_tasks(self, tasks) -> "Standardizer":
        require(len(tasks) >= 2, "need at least two tasks to standardize")
        blocks = []
        for task in tasks:
            if task.partition not in PRE_PARTITIONS:
                raise LeakageError(
                    f"standardizer fit saw task {task.task_id} with partition "
                    f"{task.partition!r}; only pretraining tasks are allowed")
            mu, sigma = pooled_moments(task.support_x)
            blocks.append(np.concatenate([mu, sigma]))
        stacked = np.stack(blocks)
        self.mean = stacked.mean(axis=0)
        std = stacked.std(axis=0)
        self.std = np.where(std < 1e-12, 1.0, std)
        self.fitted_on = tuple(sorted({t.partition for t in tasks}))
        return self

    def transform(self, moments_vec: np.ndarray) -> np.ndarray:
        if self.mean is None:
            raise ValidationError("standardizer is not fitted")
        return (moments_vec - self.mean) / self.std


@functools.lru_cache(maxsize=256)
def _percentile_steps(n: int, q: tuple):
    """numpy's linear-method steps for ``q`` over n sorted values, read-only.

    The virtual index (n - 1) * q / 100; its floor lo and the next index hi,
    both moved to the last element at or past it; the weight t taken from the
    moved floor; which side of numpy's two-sided lerp each q takes (t >= 0.5);
    and 1 - t. They depend on n and q alone, so each (n, q) computes them once.
    """
    index = (n - 1) * (np.asarray(q, dtype=float) / 100)
    lo = np.floor(index)
    hi = lo + 1
    past_end = index >= n - 1
    lo[past_end] = hi[past_end] = -1
    lo, hi = lo.astype(np.intp), hi.astype(np.intp)
    t = index - lo
    steps = lo, hi, t, t >= 0.5, 1 - t
    for arr in steps:
        arr.setflags(write=False)
    return steps


def _percentiles(values, q: tuple):
    """``np.percentile(values, q)`` (linear method) from one sort, bit for bit.

    The steps that depend only on the count and on ``q`` (a tuple) come from
    ``_percentile_steps``. Only the sign of a zero can differ, where -0.0 and
    0.0 tie and sort and partition order them differently.
    """
    s = np.sort(values, axis=None)
    lo, hi, t, upper, rest = _percentile_steps(s.size, q)
    a, b = s[lo], s[hi]
    diff = b - a
    return np.where(upper, b - diff * rest, a + diff * t)


def build_descriptor(task, probe: ProbeHead, chain, standardizer: Standardizer,
                     feature_map, clip: float = 10.0) -> np.ndarray:
    """Concatenate standardized moments, percentiles, and the projected gradient.

    Layout, the same at every support size: standardized mu_h and sigma_h
    (the first 2q entries), the percentile set of the pooled support
    coordinates (the next len(DEFAULT_PERCENTILES)), and the rank-r projection of the
    probe gradient plus its bias partial (the last r + 1). Returns the vector
    with every entry clipped to [-clip, clip].
    """
    if standardizer.fitted_on is not None:
        if any(tag not in PRE_PARTITIONS for tag in standardizer.fitted_on):
            raise LeakageError("standardizer carries retrieval-partition statistics")
    mu, sigma = pooled_moments(task.support_x)
    std_block = standardizer.transform(np.concatenate([mu, sigma]))

    order_block = _percentiles(task.support_x, DEFAULT_PERCENTILES)

    grad = _probe_fit(probe, task, feature_map)
    desc = np.concatenate([std_block, order_block, chain.project(grad[:-1]), grad[-1:]])
    return np.minimum(np.maximum(desc, -clip), clip)  # np.clip's bytes for clip > 0, no wrapper


def descriptors_to_csv(blocks, path) -> None:
    """Audit export of phase-2 ``Episodes`` blocks: one row per task id, one column per entry."""
    rows = sorted(([tid] + list(z) for block in blocks
                   for tid, z in zip(block.task_ids, block.z)), key=lambda row: row[0])
    require(len(rows) >= 1, "no descriptors to export")
    write_csv(path, ["task_id"] + [f"z{j}" for j in range(len(rows[0]) - 1)], rows)
