"""Classification metrics: confusion counts, rank AUC, log loss, calibration, health score."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import ValidationError, check_finite, require


@dataclass
class MetricsRecord:
    accuracy: float
    sensitivity: float
    specificity: float
    f1: float
    auc: float
    ece: float
    health_mean: float
    health_std: float
    n: int
    tp: int
    fp: int
    tn: int
    fn: int


def rank_auc(scores, labels):
    """AUC as the rank statistic over positive-negative pairs (ties count half).

    ``scores`` is a vector aligned with ``labels`` (a float back), or a 2-d
    matrix whose rows each align with them (one AUC per row, ranked in one
    ``_average_ranks`` call).
    """
    return _rank_auc(scores, labels, single_class_nan=False)


def rank_auc_or_nan(scores, labels):
    """``rank_auc``, but NaN instead of an error for a single-class label vector."""
    return _rank_auc(scores, labels, single_class_nan=True)


def _rank_auc(scores, labels, single_class_nan):
    scores = check_finite(scores, "scores")
    pos = np.asarray(labels).ravel() == 1  # compared as given: no int64 copy of int8 labels
    vector = scores.ndim != 2
    rows = scores.reshape(1, -1) if vector else scores
    require(rows.shape[1] == pos.size, "scores and labels must align")
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        if not single_class_nan:
            raise ValidationError("AUC undefined for a single-class label vector")
        aucs = np.full(rows.shape[0], np.nan)
    else:
        ranks = _average_ranks(rows)
        aucs = (ranks[:, pos].sum(axis=1) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return float(aucs[0]) if vector else aucs


def _average_ranks(rows):
    """1-based ranks along the last axis; tied values share their mean rank.

    ``rows`` must be finite: the caller checks (``_rank_auc`` runs
    ``check_finite`` first), so the hot path makes no second pass. A NaN
    would get a distinct integer rank where ``scipy.stats.rankdata`` gives a
    NaN row. On finite rows the bytes are ``rankdata(rows, method="average",
    axis=-1)``'s, since average ranks are exact half-integers.
    The default argsort orders every row: it need not be stable, because
    every member of a tie group (-0.0 and 0.0 included) gets the group's one
    mean rank. A tie group starts wherever the sorted value changes, and a
    group of c values at sorted positions f + 1 .. f + c ranks
    f + (c + 1) / 2. Groups are found over the raveled rows at once (each
    row's first value starts one), and the temporaries are dropped or reused
    as soon as they are spent: at most four score-sized arrays are alive.
    """
    rows = np.asarray(rows, dtype=float)
    order = np.argsort(rows, axis=-1)
    ordered = np.take_along_axis(rows, order, axis=-1)
    starts = np.ones(rows.shape, dtype=bool)
    np.not_equal(ordered[..., 1:], ordered[..., :-1], out=starts[..., 1:])
    del ordered
    first = np.flatnonzero(starts)
    del starts
    counts = np.diff(first, append=rows.size)
    mid = np.add(counts, 1.0)
    mid *= 0.5
    mid += np.remainder(first, rows.shape[-1], out=first)
    del first
    sorted_ranks = np.repeat(mid, counts).reshape(rows.shape)
    del mid, counts
    ranks = np.empty(rows.shape)
    np.put_along_axis(ranks, order, sorted_ranks, axis=-1)
    return ranks


def binary_cross_entropy(probs, labels):
    """Mean log loss with probabilities clipped to [1e-12, 1 - 1e-12].

    One loss for a probability vector; one per row for an (m, n) block, on
    one shared label vector or an (m, n) block of labels. Every label must be
    0 or 1, so each entry takes one log: log p where y = 1, log(1 - p) where
    y = 0. After the clip both logs are finite and negative, so this has the
    bytes of ``-mean(y log p + (1 - y) log(1 - p))``: the other term is -0.0.
    """
    p = np.minimum(np.maximum(probs, 1e-12), 1.0 - 1e-12)   # np.clip's bytes, no wrapper
    y = np.asarray(labels, dtype=float)
    one = y == 1.0
    require(np.count_nonzero(one | (y == 0.0)) == y.size, "labels must be 0 or 1")
    return -(np.log(np.where(one, p, 1.0 - p)).sum(axis=-1) / p.shape[-1])


def expected_calibration_error(probs, labels) -> float:
    """Equal-width-bin gap between mean confidence and observed frequency."""
    n = np.size(probs)
    return float(sum(row["count"] / n * abs(row["frequency"] - row["confidence"])
                     for row in calibration_bins(probs, labels) if row["count"]))


def calibration_bins(probs, labels):
    """Per-bin (confidence, frequency, count) rows over ten equal-width bins.

    The labels are read as given, with no float64 copy: a bin's frequency is
    the float64 mean of its labels, exact for 0/1 labels of any dtype. The bin
    indices are int8, cut from one scaled copy of the probabilities.
    """
    n_bins = 10
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    scaled = probs * n_bins
    bins = np.minimum(scaled, n_bins - 1, out=scaled).astype(np.int8)
    rows = []
    for b in range(n_bins):
        mask = bins == b
        rows.append({
            "bin": b,
            "lo": b / n_bins,
            "hi": (b + 1) / n_bins,
            "count": int(mask.sum()),
            "confidence": float(probs[mask].mean()) if np.any(mask) else float("nan"),
            "frequency": float(labels[mask].mean()) if np.any(mask) else float("nan"),
        })
    return rows


def health_scores(probs) -> np.ndarray:
    """Per-subject health score: one minus the predicted disease probability."""
    return 1.0 - np.asarray(probs, dtype=float)


def compute_metrics(probs, labels) -> MetricsRecord:
    """Threshold-0.5 confusion metrics, rank AUC, binned ECE, health stats.

    The decision rule is prob >= 0.5 -> positive (ties go to the positive
    class). Probabilities must lie in [0, 1]; a single-class label vector
    makes the AUC undefined and is rejected.
    """
    probs = check_finite(probs, "probabilities").ravel()
    labels = np.asarray(labels).ravel()  # compared as given: no int64 copy of int8 labels
    require(np.all((probs >= 0.0) & (probs <= 1.0)), "probabilities must lie in [0, 1]")
    require(probs.size == labels.size and probs.size >= 1, "inputs must align")

    preds, pos, neg = probs >= 0.5, labels == 1, labels == 0
    tp = int(np.count_nonzero(preds & pos))
    fp = int(np.count_nonzero(preds & neg))
    tn = int(np.count_nonzero(~preds & neg))
    fn = int(np.count_nonzero(~preds & pos))
    accuracy = (tp + tn) / probs.size
    sensitivity = tp / (tp + fn) if tp + fn else 0.0
    specificity = tn / (tn + fp) if tn + fp else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    f1 = (2 * precision * sensitivity / (precision + sensitivity)
          if precision + sensitivity else 0.0)

    health = health_scores(probs)
    return MetricsRecord(
        accuracy=float(accuracy),
        sensitivity=float(sensitivity),
        specificity=float(specificity),
        f1=float(f1),
        auc=rank_auc(probs, labels),
        ece=expected_calibration_error(probs, labels),
        health_mean=float(health.mean()),
        health_std=float(health.std()),
        n=int(probs.size),
        tp=tp, fp=fp, tn=tn, fn=fn,
    )
