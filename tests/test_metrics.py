import numpy as np
import pytest
from scipy.stats import rankdata

from protoadapt.metrics import (
    MetricsRecord,
    _average_ranks,
    binary_cross_entropy,
    calibration_bins,
    compute_metrics,
    expected_calibration_error,
    health_scores,
    rank_auc,
    rank_auc_or_nan,
)
from protoadapt.util import ValidationError

LABEL_DTYPES = (np.int8, np.int64)  # a corpus's labels, and numpy's default integers


def _loop_average_ranks(values):
    # the hand-written tie loop the library used before scipy's rankdata and
    # then _average_ranks; kept as the oracle for the average-rank convention
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _loop_auc(scores, labels):
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    ranks = _loop_average_ranks(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _tied_cases(n_cases=300, seed=11):
    # heavy ties: scores rounded to one or two decimals, sizes 2 to 400
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        n = int(rng.integers(2, 401))
        scores = np.round(rng.random(n), int(rng.integers(1, 3)))
        labels = rng.integers(0, 2, size=n)
        yield scores, labels


def _rank_cases(seed=17):
    # (name, rows): heavy ties and no ties; vectors, one row and many rows; n = 1
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3, 7, 50, 400):
        yield f"distinct n={n}", rng.random(n)
        yield f"tied n={n}", np.round(rng.random(n), 1)
        yield f"small integers n={n}", rng.integers(0, 3, size=n).astype(float)
        yield f"one row n={n}", np.round(rng.random((1, n)), 2)
        yield f"distinct rows n={n}", rng.normal(size=(6, n))
        yield f"tied rows n={n}", np.round(rng.random((9, n)), 1)
    yield "constant rows", np.full((4, 30), 0.25)
    yield "signed zeros", np.array([[0.0, -0.0, 1.0, -0.0], [-1.0, 0.0, -0.0, -1.0]])
    yield "saturated scores", np.where(rng.random((5, 60)) < 0.9, 1.0, np.round(rng.random((5, 60)), 1))


class TestAverageRanks:
    """``_average_ranks`` against scipy's ``rankdata`` and the tie loop, by bytes."""

    @pytest.mark.parametrize("name,rows", list(_rank_cases()), ids=[c[0] for c in _rank_cases()])
    def test_bytes_equal_rankdata_and_tie_loop(self, name, rows):
        ranks = _average_ranks(rows)
        assert ranks.dtype == np.float64 and ranks.shape == rows.shape
        assert ranks.tobytes() == rankdata(rows, method="average", axis=-1).tobytes()
        loop = np.array([_loop_average_ranks(row) for row in np.atleast_2d(rows)])
        assert ranks.tobytes() == loop.reshape(rows.shape).tobytes()

    def test_train_pool_sized_scores(self):
        # the fewshot profile's train pool: 115,200 scores in one vector
        rng = np.random.default_rng(18)
        for scores in (rng.random(115_200), np.round(rng.random(115_200), 3)):
            assert (_average_ranks(scores).tobytes()
                    == rankdata(scores, method="average").tobytes())


    def test_unstable_sort_keeps_the_bytes_on_heavy_ties(self):
        # rows of a few values, half of each zero signed negative, at the sizes of the
        # fewshot train pool and validation block: the default argsort reorders
        # nearly every tie group, and each member of a group still takes its mean rank
        rng = np.random.default_rng(19)
        for shape in ((115_200,), (9_600,), (8, 1_200)):
            levels = rng.integers(-3, 4, size=shape) * 0.25
            rows = np.where(rng.random(shape) < 0.5, -levels, levels)
            assert np.any(np.signbit(rows) & (rows == 0.0))
            assert np.any(np.argsort(rows, axis=-1)
                          != np.argsort(rows, axis=-1, kind="stable"))
            ranks = _average_ranks(rows)
            assert ranks.tobytes() == rankdata(rows, method="average", axis=-1).tobytes()
            loop = np.array([_loop_average_ranks(row) for row in np.atleast_2d(rows)])
            assert ranks.tobytes() == loop.reshape(shape).tobytes()

class TestAuc:
    def test_perfect_separation(self):
        probs = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        rec = compute_metrics(probs, labels)
        assert rec.auc == pytest.approx(1.0)
        assert rec.f1 == pytest.approx(1.0)

    def test_six_point_hand_case_matches_pair_counting(self):
        probs = np.array([0.1, 0.4, 0.35, 0.8, 0.65, 0.4])
        labels = np.array([0, 0, 1, 1, 0, 1])
        auc = rank_auc(probs, labels)
        wins = ties = 0
        for i in np.flatnonzero(labels == 1):
            for j in np.flatnonzero(labels == 0):
                if probs[i] > probs[j]:
                    wins += 1
                elif probs[i] == probs[j]:
                    ties += 1
        oracle = (wins + 0.5 * ties) / (3 * 3)
        assert auc == pytest.approx(oracle)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            rank_auc(np.array([0.2, 0.4]), np.array([1, 1]))

    def test_single_class_is_nan_under_nan_policy(self):
        for labels in (np.array([1, 1, 1]), np.array([0, 0, 0]), np.array([], dtype=int)):
            assert np.isnan(rank_auc_or_nan(np.linspace(0, 1, labels.size), labels))

    def test_nan_score_rejected(self):
        # _average_ranks would rank a NaN; both entry points refuse the row first
        scores, labels = np.array([np.nan, 0.3, np.nan, 0.1]), np.array([1, 0, 1, 0])
        for auc in (rank_auc, rank_auc_or_nan):
            with pytest.raises(ValidationError):
                auc(scores, labels)
            with pytest.raises(ValidationError):
                auc(scores.reshape(1, -1), labels)

    def test_matches_tie_loop_oracle_exactly(self):
        checked = 0
        for case, (scores, labels) in enumerate(_tied_cases()):
            labels = labels.astype(LABEL_DTYPES[case % 2])  # a corpus's int8, and int64
            if labels.min() == labels.max():
                assert np.isnan(rank_auc_or_nan(scores, labels))
                continue
            oracle = _loop_auc(scores, labels)
            assert rank_auc(scores, labels) == oracle
            assert rank_auc_or_nan(scores, labels) == oracle
            checked += 1
        assert checked >= 250

    def test_score_matrix_matches_one_call_per_row_exactly(self):
        rng = np.random.default_rng(14)
        for scores, labels in _tied_cases(n_cases=60, seed=15):
            matrix = np.vstack([scores, np.round(rng.random((4, scores.size)), 1)])
            rows = rank_auc_or_nan(matrix, labels)
            assert rows.shape == (5,)
            for row, auc in zip(matrix, rows):
                oracle = rank_auc_or_nan(row, labels)
                assert (np.isnan(auc) and np.isnan(oracle)) or auc == oracle
            if not np.isnan(rows).any():
                assert np.array_equal(rank_auc(matrix, labels), rows)
        assert np.isnan(rank_auc_or_nan(np.zeros((3, 4)), np.ones(4))).all()
        assert rank_auc_or_nan(np.zeros((1, 4)), np.array([0, 1, 0, 1])).shape == (1,)
        with pytest.raises(ValidationError):
            rank_auc(np.zeros((3, 4)), np.ones(4))
        with pytest.raises(ValidationError):
            rank_auc_or_nan(np.zeros((4, 2)), np.array([0, 1, 0, 1]))


def _loop_ece(probs, labels, n_bins=10):
    # ECE's own bin loop from before it summed calibration_bins; kept as the oracle
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels, dtype=float)
    bins = np.minimum((probs * n_bins).astype(int), n_bins - 1)
    ece = 0.0
    for b in range(n_bins):
        mask = bins == b
        if not np.any(mask):
            continue
        ece += mask.mean() * abs(labels[mask].mean() - probs[mask].mean())
    return float(ece)


class TestTieRuleAndEce:
    def test_all_half_predictions(self):
        probs = np.full(10, 0.5)
        labels = np.array([0, 1] * 5)
        rec = compute_metrics(probs, labels)
        # ties go to the positive class, so accuracy is the positive rate
        assert rec.accuracy == pytest.approx(0.5)
        assert rec.ece == pytest.approx(0.0)

    def test_ece_matches_hand_binning(self):
        probs = np.array([0.05, 0.15, 0.95, 0.85])
        labels = np.array([0, 1, 1, 1])
        # bins: [0,0.1): conf 0.05 freq 0; [0.1,0.2): conf .15 freq 1;
        # [0.8,0.9): conf .85 freq 1; [0.9,1): conf .95 freq 1
        expected = 0.25 * (0.05 + 0.85 + 0.15 + 0.05)
        assert expected_calibration_error(probs, labels) == pytest.approx(expected)

    def test_ece_from_the_bins_matches_the_bin_loop(self):
        rng = np.random.default_rng(3)
        for trial in range(3000):
            n = int(rng.integers(1, 200))
            probs = rng.random(n)
            if trial % 4 == 0:  # probabilities on bin edges, 1.0 included
                probs = rng.integers(0, 11, size=n) / 10.0
            labels = rng.integers(0, 2, size=n)
            ece = expected_calibration_error(probs, labels.astype(LABEL_DTYPES[trial % 2]))
            assert ece == _loop_ece(probs, labels)
            if trial % 100 == 0:  # every bin's bytes, NaN entries too, for either label type
                rows = [repr(calibration_bins(probs, labels.astype(dtype)))
                        for dtype in LABEL_DTYPES]
                assert rows[0] == rows[1] == repr(calibration_bins(probs, labels))

    def test_calibration_bins_match_the_widening_expressions(self):
        def widening_bins(probs, labels):
            # calibration_bins as it was, on float64 labels and int64 bins; kept as the oracle
            n_bins = 10
            probs = np.asarray(probs, dtype=float)
            labels = np.asarray(labels, dtype=float)
            bins = np.minimum((probs * n_bins).astype(int), n_bins - 1)
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

        rng = np.random.default_rng(29)
        empty_bins = 0
        for trial in range(600):
            n = int(rng.integers(1, 400))
            probs = rng.random(n)
            if trial % 3 == 1:  # probabilities on bin edges, 1.0 included
                probs = rng.integers(0, 11, size=n) / 10.0
            elif trial % 3 == 2:  # a few bins only, so most are empty
                probs = rng.choice(rng.random(3), size=n)
            labels = rng.integers(0, 2, size=n)
            want = widening_bins(probs, labels)
            empty_bins += sum(row["count"] == 0 for row in want)
            for dtype in (np.int8, np.int64, float, bool):
                got = calibration_bins(probs, labels.astype(dtype))
                assert [list(r) for r in got] == [list(r) for r in want]
                # float64 bytes per value, so a NaN row compares equal to a NaN row
                assert (np.array([list(r.values()) for r in got], dtype=float).tobytes()
                        == np.array([list(r.values()) for r in want], dtype=float).tobytes())
        assert empty_bins > 600

    def test_calibration_bins_counts(self):
        rows = calibration_bins(np.array([0.05, 0.06, 0.95]), np.array([0, 0, 1]))
        assert rows[0]["count"] == 2
        assert rows[9]["count"] == 1
        assert sum(r["count"] for r in rows) == 3


def _widened_counts(probs, labels):
    # compute_metrics' counts as they were, on int64 copies of the labels; kept as the oracle
    labels = np.asarray(labels, dtype=int).ravel()
    preds = (probs >= 0.5).astype(int)
    return tuple(int(np.sum((preds == p) & (labels == y)))
                 for p, y in ((1, 1), (1, 0), (0, 0), (0, 1)))


class TestConfusionConsistency:
    def test_recomputed_from_counts(self):
        rng = np.random.default_rng(0)
        probs = rng.random(50)
        labels = rng.integers(0, 2, size=50)
        if labels.sum() in (0, 50):
            labels[0] = 1 - labels[0]
        rec = compute_metrics(probs, labels)
        assert (rec.tp, rec.fp, rec.tn, rec.fn) == _widened_counts(probs, labels)
        # the same record, bit for bit, for a corpus's int8 labels and for a list
        for same in (labels.astype(LABEL_DTYPES[0]), labels.tolist()):
            assert repr(compute_metrics(probs, same)) == repr(rec)
        assert rec.tp + rec.fp + rec.tn + rec.fn == rec.n
        sens = rec.tp / (rec.tp + rec.fn) if rec.tp + rec.fn else 0.0
        spec = rec.tn / (rec.tn + rec.fp) if rec.tn + rec.fp else 0.0
        prec = rec.tp / (rec.tp + rec.fp) if rec.tp + rec.fp else 0.0
        f1 = 2 * prec * sens / (prec + sens) if prec + sens else 0.0
        assert rec.sensitivity == pytest.approx(sens)
        assert rec.specificity == pytest.approx(spec)
        assert rec.f1 == pytest.approx(f1)
        assert rec.accuracy == pytest.approx((rec.tp + rec.tn) / rec.n)


class TestHealthScore:
    def test_definition(self):
        probs = np.array([0.0, 0.25, 1.0])
        assert np.allclose(health_scores(probs), [1.0, 0.75, 0.0])

    def test_high_risk_threshold(self):
        probs = np.array([0.1, 0.5, 0.9, 0.49])
        labels = np.array([0, 1, 1, 0])
        rec = compute_metrics(probs, labels)
        assert (rec.tp + rec.fp) / rec.n == 0.5
        assert rec.health_mean == pytest.approx(np.mean(1 - probs))

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValidationError):
            compute_metrics(np.array([0.5, 1.2]), np.array([0, 1]))


def _two_log_cross_entropy(probs, labels):
    # the former implementation, kept as the oracle: two logs per entry, np.mean
    p = np.clip(probs, 1e-12, 1.0 - 1e-12)
    y = np.asarray(labels, dtype=float)
    return -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p), axis=-1)


def _cross_entropy_cases(seed=23):
    rng = np.random.default_rng(seed)
    edge = np.array([0.0, 1.0, 1e-13, 1.0 - 1e-13, 1e-12, 1.0 - 1e-12, 0.5, np.nan])
    cases = []
    for n in (1, 2, 3, 7, 8, 16, 33, 400, 1001):
        probs = rng.random(n)
        at_edge = rng.random(n) < 0.3
        probs[at_edge] = rng.choice(edge[:-1], size=int(at_edge.sum()))
        labels = rng.integers(0, 2, size=n)
        cases.append(("vector", probs, labels))
        block = rng.random((3, n))
        block[0, : min(n, 7)] = edge[: min(n, 7)]
        cases.append(("block, shared labels", block, labels))
        cases.append(("block, row labels", block, rng.integers(0, 2, size=(3, n))))
    # every edge value under both labels; NaN rows stay NaN
    both = np.repeat(edge, 2)
    cases.append(("edges", both, np.tile([0, 1], edge.size)))
    cases.append(("edges without NaN", both[:-2], np.tile([0, 1], edge.size - 1)))
    cases.append(("block with a NaN row", np.stack([both[:-2], np.full(both.size - 2, np.nan)]),
                  np.tile([0, 1], edge.size - 1)))
    cases.append(("float labels", rng.random(50), rng.integers(0, 2, size=50).astype(float)))
    for dtype in LABEL_DTYPES:  # a corpus's labels and numpy's default integers, in a block
        cases.append((f"{np.dtype(dtype).name} labels", rng.random((3, 40)),
                      rng.integers(0, 2, size=(3, 40)).astype(dtype)))
    return cases


class TestBinaryCrossEntropy:
    @pytest.mark.parametrize("name, probs, labels", _cross_entropy_cases())
    def test_bytes_equal_two_log_form(self, name, probs, labels):
        out = binary_cross_entropy(probs, labels)
        ref = _two_log_cross_entropy(probs, labels)
        assert np.shape(out) == np.shape(ref) and type(out) is type(ref)
        assert np.asarray(out).tobytes() == np.asarray(ref).tobytes()

    @pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan])
    def test_label_outside_zero_one_rejected(self, bad):
        labels = np.array([0.0, 1.0, bad, 1.0])
        with pytest.raises(ValidationError, match="0 or 1"):
            binary_cross_entropy(np.full(4, 0.3), labels)
        with pytest.raises(ValidationError, match="0 or 1"):
            binary_cross_entropy(np.full((2, 4), 0.3), np.stack([labels, labels[::-1]]))
