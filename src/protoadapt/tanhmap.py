"""The two-layer tanh map y = w2 tanh(w1 x + b1) + b2.

It is the retrieval network (descriptor to prototype logits), the residual
descriptor warp (the subclass ``pipeline.MlpTransform``, ``z + map(z)``) and
the vector field of the standalone continuous-time layer in ``node`` (input
``[z; t]``). ``forward`` and ``vjp`` take one point or a (T x d) block of
rows, so phase 2 runs a minibatch through the warp and the network in one
product each way. Parameters live in a dict so Adam can step them by name;
``params_vector`` and ``with_params`` give the flat ``w1, b1, w2, b2`` vector
that only the ``node`` adjoint works on.
"""

from __future__ import annotations

import copy

import numpy as np

from .util import child_rng, require

KEYS = ("w1", "b1", "w2", "b2")


def flatten(arrays: dict) -> np.ndarray:
    """Concatenate per-parameter arrays (values or gradients) in KEYS order."""
    return np.concatenate([arrays[key].ravel() for key in KEYS])


class TanhMap:
    """Two-layer tanh map with scaled Gaussian weights and zero biases."""

    def __init__(self, d_in: int, hidden: int, d_out: int, seed: int, tag: str,
                 scale: float = 1.0):
        rng = child_rng(seed, tag)
        self.params = {
            "w1": scale * rng.normal(size=(hidden, d_in)) / np.sqrt(d_in),
            "b1": np.zeros(hidden),
            "w2": scale * rng.normal(size=(d_out, hidden)) / np.sqrt(hidden),
            "b2": np.zeros(d_out),
        }

    def hidden(self, x: np.ndarray) -> np.ndarray:
        return np.tanh((self.params["w1"] @ x.T).T + self.params["b1"])

    def forward(self, x: np.ndarray):
        """Output and hidden layer at x, one point or a (T x d_in) block of rows."""
        h = self.hidden(x)
        return (self.params["w2"] @ h.T).T + self.params["b2"], h

    def vjp(self, x: np.ndarray, h: np.ndarray, grad_y: np.ndarray):
        """Parameter gradients (a dict) and input gradient of grad_y . y at x.

        On a block of rows the parameter gradients are summed over the rows
        and the input gradient has one row per input row.
        """
        g_pre = (self.params["w2"].T @ grad_y.T).T * (1.0 - h**2)
        g_rows, x_rows, h_rows, y_rows = map(np.atleast_2d, (g_pre, x, h, grad_y))
        grads = {"w1": g_rows.T @ x_rows, "b1": g_rows.sum(axis=0),
                 "w2": y_rows.T @ h_rows, "b2": y_rows.sum(axis=0)}
        return grads, (self.params["w1"].T @ g_pre.T).T

    @property
    def n_params(self) -> int:
        return sum(arr.size for arr in self.params.values())

    def params_vector(self) -> np.ndarray:
        return flatten(self.params)

    def with_params(self, vec: np.ndarray) -> "TanhMap":
        """A copy whose parameters are views into the flat vector vec."""
        vec = np.asarray(vec, dtype=float)
        require(vec.size == self.n_params, "parameter vector has the wrong length")
        clone = copy.copy(self)
        clone.params, start = {}, 0
        for key in KEYS:
            arr = self.params[key]
            clone.params[key] = vec[start:start + arr.size].reshape(arr.shape)
            start += arr.size
        return clone
