import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from protoadapt.tanhmap import KEYS, TanhMap


def _loop_forward(tmap, x):
    """The one-point forward pass as it was, before rows: the oracle."""
    h = np.tanh(tmap.params["w1"] @ x + tmap.params["b1"])
    return tmap.params["w2"] @ h + tmap.params["b2"], h


def _loop_vjp(tmap, x, h, grad_y):
    """The one-point VJP as it was, before rows: the oracle."""
    g_pre = (tmap.params["w2"].T @ grad_y) * (1.0 - h**2)
    grads = {"w1": np.outer(g_pre, x), "b1": g_pre,
             "w2": np.outer(grad_y, h), "b2": grad_y}
    return grads, tmap.params["w1"].T @ g_pre


class TestRowsMatchThePointLoop:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 9), d_in=st.integers(1, 6),
           hidden=st.integers(1, 8), d_out=st.integers(1, 6))
    def test_block_against_one_row_at_a_time(self, seed, n_rows, d_in, hidden, d_out):
        rng = np.random.default_rng(seed)
        tmap = TanhMap(d_in, hidden, d_out, seed % 1000, "rows-test")
        tmap.params = {key: rng.normal(size=arr.shape) for key, arr in tmap.params.items()}
        x = rng.normal(size=(n_rows, d_in))
        grad_y = rng.normal(size=(n_rows, d_out))
        y, h = tmap.forward(x)
        grads, grad_x = tmap.vjp(x, h, grad_y)
        assert y.shape == (n_rows, d_out) and grad_x.shape == (n_rows, d_in)
        summed = {key: np.zeros_like(arr) for key, arr in tmap.params.items()}
        for i in range(n_rows):
            y_i, h_i = _loop_forward(tmap, x[i])
            assert np.allclose(y[i], y_i, rtol=1e-13, atol=1e-13)
            assert np.allclose(h[i], h_i, rtol=1e-13, atol=1e-13)
            grads_i, grad_x_i = _loop_vjp(tmap, x[i], h_i, grad_y[i])
            assert np.allclose(grad_x[i], grad_x_i, rtol=1e-12, atol=1e-12)
            for key in KEYS:
                summed[key] += grads_i[key]
        for key in KEYS:
            assert np.allclose(grads[key], summed[key], rtol=1e-12, atol=1e-12), key

    def test_one_point_is_bit_identical_to_the_loop(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            tmap = TanhMap(5, 7, 4, trial, "point-test")
            x, grad_y = rng.normal(size=5), rng.normal(size=4)
            y, h = tmap.forward(x)
            y_ref, h_ref = _loop_forward(tmap, x)
            assert y.tobytes() == y_ref.tobytes() and h.tobytes() == h_ref.tobytes()
            grads, grad_x = tmap.vjp(x, h, grad_y)
            grads_ref, grad_x_ref = _loop_vjp(tmap, x, h_ref, grad_y)
            assert grad_x.tobytes() == grad_x_ref.tobytes()
            for key in KEYS:
                assert grads[key].tobytes() == grads_ref[key].tobytes(), key
