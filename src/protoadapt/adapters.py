"""Per-task ridge adapters, row-stacked assembly, and canonicalization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import ValidationError, check_finite, require, write_csv


@dataclass
class AdapterMatrix:
    """Row-stacked per-task adapter vectors with provenance metadata."""

    rows: np.ndarray
    task_ids: list

    def __post_init__(self):
        self.rows = check_finite(self.rows, "adapter rows")
        require(self.rows.ndim == 2, "adapter matrix must be 2-d")
        require(len(self.task_ids) == self.rows.shape[0], "one task id per row required")

    @property
    def n_tasks(self) -> int:
        return self.rows.shape[0]

    @property
    def d_theta(self) -> int:
        return self.rows.shape[1]

    def to_csv(self, path) -> None:
        header = ["task_id"] + [f"theta{j}" for j in range(self.d_theta)]
        rows = [[tid] + list(row) for tid, row in zip(self.task_ids, self.rows)]
        write_csv(path, header, rows)


def adapter_rows(theta) -> np.ndarray:
    """The row matrix of an AdapterMatrix (any object with ``rows``), else theta as floats."""
    return theta.rows if hasattr(theta, "rows") else np.asarray(theta, dtype=float)


RIDGE_ALPHA = 1e-2  # the ridge penalty of phase 1's adapters and of the ridge baselines


def ridge_fit(x: np.ndarray, y, alpha: float) -> np.ndarray:
    """Closed-form ridge fit of a linear head on features ``x`` and 0/1 labels ``y``.

    Labels are encoded as +-1 regression targets. For alpha > 0 the normal
    equations are strictly positive definite, so the minimizer is unique and
    the fit is deterministic.
    """
    require(alpha > 0.0, "alpha must be positive")
    require(x.shape[0] >= 1, "support is empty")
    gram = x.T @ x
    gram.ravel()[:: gram.shape[0] + 1] += alpha  # x^T x + alpha I; matmul's output is contiguous
    return np.linalg.solve(gram, x.T @ (2.0 * np.asarray(y, dtype=float) - 1.0))


def ridge_adapter(task, feature_map, alpha: float = RIDGE_ALPHA) -> np.ndarray:
    """``ridge_fit`` on the task's mapped support set."""
    return ridge_fit(check_finite(feature_map(task.support_x), "support features"),
                     task.support_y, alpha)


def assemble_theta(adapters, task_ids=None) -> AdapterMatrix:
    """Stack adapter vectors row-wise, preserving input order."""
    require(len(adapters) >= 1, "no adapters to assemble")
    dims = {np.asarray(a).shape for a in adapters}
    if len(dims) != 1 or len(next(iter(dims))) != 1:
        raise ValidationError("adapters must all be vectors of one common dimension")
    rows = np.stack([np.asarray(a, dtype=float) for a in adapters])
    if task_ids is None:
        task_ids = [f"row{i}" for i in range(rows.shape[0])]
    return AdapterMatrix(rows=rows, task_ids=list(task_ids))


def _signed_right_vectors(z: np.ndarray):
    """SVD right vectors with each column's first non-negligible loading positive."""
    u, s, vt = np.linalg.svd(z, full_matrices=True)
    v = vt.T
    flips = np.ones(v.shape[1])
    for j in range(v.shape[1]):
        col = v[:, j]
        nz = np.nonzero(np.abs(col) > 1e-9 * max(np.abs(col).max(), 1e-300))[0]
        if nz.size and col[nz[0]] < 0:
            v[:, j] = -col
            flips[j] = -1.0
    return s, v, flips


@dataclass
class Canonicalizer:
    """Invertible normal form for adapter matrices.

    apply() divides out per-coordinate RMS scale, rotates into the sign-fixed
    principal frame, and normalizes each principal direction to unit RMS, so
    the output has unit per-coordinate scale statistics. Refitting on its own
    output recovers the identity transform: a matrix whose Gram is already
    diagonal keeps the identity basis by convention.
    """

    scale: np.ndarray          # per-coordinate RMS of the fitted matrix
    signs: np.ndarray          # +-1 recorded per principal direction
    basis: np.ndarray          # orthonormal, sign-fixed principal directions
    pc_scale: np.ndarray       # per-direction RMS after rotation

    @classmethod
    def identity(cls, d: int) -> "Canonicalizer":
        return cls(
            scale=np.ones(d),
            signs=np.ones(d),
            basis=np.eye(d),
            pc_scale=np.ones(d),
        )

    def apply(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        single = rows.ndim == 1
        out = (np.atleast_2d(rows) / self.scale) @ self.basis / self.pc_scale
        return out[0] if single else out

    def invert(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        single = rows.ndim == 1
        out = (np.atleast_2d(rows) * self.pc_scale) @ self.basis.T * self.scale
        return out[0] if single else out

    def as_dict(self) -> dict:
        return {
            "scale": self.scale.tolist(),
            "signs": self.signs.tolist(),
            "basis": self.basis.tolist(),
            "pc_scale": self.pc_scale.tolist(),
        }


def fit_canonicalizer(theta) -> Canonicalizer:
    """Fit scale, sign-fixed principal basis, and per-direction scale.

    Zero-variance coordinates get scale 1 instead of dividing by zero. When the scaled
    matrix's Gram is already diagonal (the canonical fixed point, where the
    principal frame is numerically arbitrary) the basis is pinned to the
    identity so canonicalization is idempotent on its own output.
    """
    rows = check_finite(adapter_rows(theta), "adapter rows")
    require(rows.ndim == 2 and rows.shape[0] >= 2, "need at least two adapter rows")
    n, d = rows.shape

    scale = np.sqrt(np.mean(rows**2, axis=0))
    scale = np.where(scale < 1e-12, 1.0, scale)
    z = rows / scale

    gram = z.T @ z / n
    off = gram - np.diag(np.diag(gram))
    if np.abs(off).max() <= 1e-10 * max(np.abs(np.diag(gram)).max(), 1.0):
        basis = np.eye(d)
        signs = np.ones(d)
        pc_rms = np.sqrt(np.clip(np.diag(gram), 0.0, None))
    else:
        s, basis, signs = _signed_right_vectors(z)
        pc_rms = np.zeros(d)
        pc_rms[: s.shape[0]] = s / np.sqrt(n)

    pc_scale = np.where(pc_rms < 1e-12, 1.0, pc_rms)
    return Canonicalizer(
        scale=scale,
        signs=signs,
        basis=basis,
        pc_scale=pc_scale,
    )
