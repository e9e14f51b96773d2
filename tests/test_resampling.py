import numpy as np

from protoadapt.resampling import percentile_interval


def test_percentile_interval_bytes_equal_the_level_form():
    # the interval as it was computed from a level argument of 0.90, kept as the oracle:
    # its lower percentile is 100 * (1 - 0.90) / 2 = 4.999999999999999, not 5.0
    alpha = (1.0 - 0.90) / 2.0
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 200, 1000, 3125):
        samples = rng.normal(size=n) ** 3
        lo, hi = np.percentile(samples, [100.0 * alpha, 100.0 * (1.0 - alpha)])
        got = np.array(percentile_interval(samples))
        assert got.tobytes() == np.array([float(lo), float(hi)]).tobytes(), n
