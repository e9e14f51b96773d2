"""Prototype memory: clustering, sparse coverage fits, certificates, diagnostics.

Prototypes are k-means centroids in the projected canonical coordinates,
lifted back to parameter space through the exact inverse of the projection
chain; the restarts of one K run as one block. Coverage is certified by
bootstrapping the median sparse-fit residual over pretraining tasks, with 90
percent percentile intervals. Each dictionary's sparse fits run once: the
merge loop returns the final dictionary's fits for the certificate. A memory
is read-only from construction: its rows and centroids are fixed, so merging
builds a new memory and its rank and row dictionary are cached properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .adapters import Canonicalizer, adapter_rows
from .resampling import bootstrap_indices, exhaustive_index_tuples, percentile_interval
from .util import (
    ValidationError,
    check_finite,
    child_rng,
    require,
    vector_norm,
    write_csv,
    write_json,
)


class DegenerateAtomError(ValidationError):
    """A prototype row with zero norm cannot act as a dictionary atom."""


@dataclass(frozen=True)
class ProjectionChain:
    """Frozen linear map from raw parameter space to the top-r canonical coords.

    Frozen, so the subspace basis, computed on first use and kept, always
    belongs to the chain's canonicalizer and rank.
    """

    canonicalizer: Canonicalizer
    r: int

    def project(self, rows):
        out = self.canonicalizer.apply(np.asarray(rows, dtype=float))
        return out[..., : self.r]

    def lift(self, coords):
        coords = np.asarray(coords, dtype=float)
        single = coords.ndim == 1
        coords2 = np.atleast_2d(coords)
        d = self.canonicalizer.basis.shape[0]
        full = np.zeros((coords2.shape[0], d))
        full[:, : self.r] = coords2
        out = self.canonicalizer.invert(full)
        return out[0] if single else out

    @cached_property
    def _raw_basis(self) -> np.ndarray:
        img = self.lift(np.eye(self.r))          # r x d rows spanning the subspace
        q, _ = np.linalg.qr(img.T)
        basis = q[:, : self.r]
        basis.setflags(write=False)
        return basis

    def subspace_project(self, vec: np.ndarray) -> np.ndarray:
        basis = self._raw_basis
        return basis @ (basis.T @ np.asarray(vec, dtype=float))


@dataclass(frozen=True)
class Atoms:
    """Dictionary rows for sparse fits, validated, normed and Gram-multiplied once.

    Build one with ``Atoms.of`` and pass it to every ``l0_fit`` on the same
    rows, so the finiteness check, the row norms, the degeneracy check and
    the Gram matrix G = rows rows^T (read-only) are computed once per
    dictionary rather than once per fit.
    """

    rows: np.ndarray
    norms: np.ndarray
    gram: np.ndarray

    @classmethod
    def of(cls, rows) -> "Atoms":
        rows = check_finite(rows, "atoms")
        norms = np.linalg.norm(rows, axis=1)
        if np.any(norms < 1e-12):
            raise DegenerateAtomError("prototype rows with zero norm present")
        gram = rows @ rows.T
        gram.setflags(write=False)
        return cls(rows, norms, gram)


@dataclass
class CoverageCertificate:
    """Bootstrap certificate for the median sparse reconstruction error."""

    eps_hat: float
    pct90: tuple
    n_boot: int
    r_sparse: int
    raw_eps_hat: float
    raw_pct90: tuple

    @property
    def eps_upper(self) -> float:
        return self.pct90[1]

    @property
    def raw_eps_upper(self) -> float:
        return self.raw_pct90[1]

    def as_dict(self) -> dict:
        return {
            "eps_hat": self.eps_hat,
            "pct90": list(self.pct90),
            "eps_upper": self.eps_upper,
            "raw_eps_hat": self.raw_eps_hat,
            "raw_pct90": list(self.raw_pct90),
            "n_boot": self.n_boot,
            "r_sparse": self.r_sparse,
        }


def _read_only(arr, name: str) -> np.ndarray:
    """A checked read-only copy, so no array the caller holds turns read-only."""
    out = check_finite(arr, name).copy()
    out.setflags(write=False)
    return out


class PrototypeMemory:
    """K prototype rows plus the projection chain and health diagnostics, read-only."""

    def __init__(self, m_rows, chain, centroids, restart_stability=None, sse=None,
                 silhouette=None):
        self.M = _read_only(m_rows, "prototype rows")
        self.chain = chain
        self.centroids = _read_only(centroids, "centroids")
        self.restart_stability = restart_stability
        self.sse = sse
        self.silhouette = silhouette
        # conditioning lives on the projected dictionary (the K x r form the
        # sparse fits use; the raw K x d rows are rank deficient by design
        # whenever K exceeds r), coherence on the raw parameter-space rows
        self.kappa = kappa_of(self.centroids)
        self.mu = mu_of(self.M)

    @property
    def K(self) -> int:
        return self.M.shape[0]

    @property
    def d_theta(self) -> int:
        return self.M.shape[1]

    @property
    def r(self) -> int:
        return self.chain.r

    @cached_property
    def rank(self) -> int:
        """The numerical rank of M."""
        return int(np.linalg.matrix_rank(self.M))

    @cached_property
    def row_atoms(self) -> Atoms:
        """The rows M as an ``l0_fit`` dictionary; its ``gram`` is M M^T (K x K, read-only)."""
        return Atoms.of(self.M)

    def save(self, csv_path, json_path, certificate: CoverageCertificate) -> None:
        header = [f"m{j}" for j in range(self.d_theta)]
        write_csv(csv_path, header, self.M.tolist())
        meta = {
            "K": self.K,
            "r": self.r,
            "kappa": None if np.isinf(self.kappa) else self.kappa,
            "mu": self.mu,
            "restart_stability": self.restart_stability,
            "sse": self.sse,
            "canonicalizer": self.chain.canonicalizer.as_dict(),
            "certificate": certificate.as_dict(),
        }
        write_json(json_path, meta)


# ---------------------------------------------------------------------------
# k-means with restarts
# ---------------------------------------------------------------------------

def _kmeans_pp_init(points, k, rng):
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(0, n)]
    dist = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = dist.sum()
        if total <= 0:
            centroids[j] = points[rng.integers(0, n)]
            continue
        pick = np.searchsorted(np.cumsum(dist), rng.random() * total)
        centroids[j] = points[min(pick, n - 1)]
        dist = np.minimum(dist, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


LLOYD_ITERATIONS = 300   # the cap on Lloyd's iterations of one restart


def _lloyd(points, centroids):
    """One restart's Lloyd iterations, for the restarts ``_lloyd_restarts`` cannot run.

    An empty cluster takes the point farthest from its centroid.
    """
    k = centroids.shape[0]
    labels = None
    for _ in range(LLOYD_ITERATIONS):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        for j in range(k):
            mask = new_labels == j
            if np.any(mask):
                centroids[j] = points[mask].mean(axis=0)
            else:
                far = int(np.argmax(d2.min(axis=1)))
                centroids[j] = points[far]
                new_labels[far] = j
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    sse = float(d2[np.arange(points.shape[0]), labels].sum())
    return centroids, labels, sse


def _lloyd_restarts(points, inits):
    """Lloyd's iterations of every restart at once, from (R, k, dim) initial centroids.

    Each iteration forms one (R, n, k) distance array and takes the centroid
    sums from one weighted ``np.bincount`` per coordinate over the labels
    offset by restart. The bincount adds a cluster's points in point order,
    as the per-restart mean does, so every restart's centroids, labels and
    SSE equal ``_lloyd``'s bit for bit. A converged restart is a fixed point,
    so the block iterates until all have converged. A restart that leaves a
    cluster empty reruns alone through ``_lloyd``, and so does every restart
    on one-dimensional points, whose mean numpy sums pairwise.

    Returns the centroids (R, k, dim), the labels (R, n) and the SSEs (R,).
    """
    n_runs, k, dim = inits.shape
    cells = n_runs * k
    offsets = (np.arange(n_runs) * k)[:, None]
    columns = np.tile(points.T, (1, n_runs))    # coordinate rows, once per restart
    centroids = inits.copy()
    alone = np.full(n_runs, dim == 1)
    labels = None
    for _ in range(LLOYD_ITERATIONS):
        if alone.all():
            break
        d2 = ((points[None, :, None, :] - centroids[:, None, :, :]) ** 2).sum(axis=3)
        new_labels = d2.argmin(axis=2)
        flat = (new_labels + offsets).ravel()
        counts = np.bincount(flat, minlength=cells).reshape(n_runs, k)
        alone |= (counts == 0).any(axis=1)
        sums = np.stack([np.bincount(flat, weights=col, minlength=cells) for col in columns],
                        axis=1)
        centroids = sums.reshape(inits.shape) / np.maximum(counts, 1)[..., None]
        if labels is not None and np.all(alone | (new_labels == labels).all(axis=1)):
            break
        labels = new_labels
    d2 = ((points[None, :, None, :] - centroids[:, None, :, :]) ** 2).sum(axis=3)
    labels = d2.argmin(axis=2)
    sse = np.take_along_axis(d2, labels[..., None], axis=2)[..., 0].sum(axis=1)
    for run in np.flatnonzero(alone):
        centroids[run], labels[run], sse[run] = _lloyd(points, inits[run].copy())
    return centroids, labels, sse


def silhouette_score(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette over points; singleton clusters contribute zero."""
    points = np.asarray(points, dtype=float)
    uniq, inverse = np.unique(np.asarray(labels), return_inverse=True)
    if uniq.size < 2:
        return 0.0
    n = points.shape[0]
    dists = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    onehot = (inverse[:, None] == np.arange(uniq.size)).astype(float)
    sums = dists @ onehot           # summed distance from each point to each cluster
    sizes = onehot.sum(axis=0)
    own = (np.arange(n), inverse)
    own_size = sizes[inverse]
    with np.errstate(invalid="ignore", divide="ignore"):
        a = sums[own] / (own_size - 1)
        means = sums / sizes
        means[own] = np.inf
        b = means.min(axis=1)
        denom = np.maximum(a, b)
        scores = np.where((own_size > 1) & (denom != 0), (b - a) / denom, 0.0)
    return float(scores.mean())


def pairwise_ari(labels: np.ndarray, k: int) -> np.ndarray:
    """Adjusted Rand index of every two rows of ``labels``, in ``combinations`` order.

    ``labels`` is (R, n) with values in [0, k). One offset ``np.bincount``
    builds every pair's k x k contingency table. Its pair counts are whole
    numbers, so every sum below is exact, and a label absent from both rows
    adds only zeros: each index is the one-pair formula's on the labels
    present, bit for bit.
    """
    n_runs, n = labels.shape
    first, second = np.triu_indices(n_runs, 1)
    cells = (np.arange(first.size)[:, None] * k + labels[first]) * k + labels[second]
    tables = np.bincount(cells.ravel(), minlength=first.size * k * k).reshape(-1, k, k)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(tables).sum(axis=(1, 2))
    sum_rows = comb2(tables.sum(axis=2)).sum(axis=1)
    sum_cols = comb2(tables.sum(axis=1)).sum(axis=1)
    total = comb2(n)
    expected = sum_rows * sum_cols / total if total > 0 else np.zeros(first.size)
    max_index = 0.5 * (sum_rows + sum_cols)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(max_index == expected, 1.0,
                        (sum_cells - expected) / (max_index - expected))


def cluster_prototypes(theta, chain: ProjectionChain, k: int, n_restarts: int = 8,
                       seed: int = 0) -> PrototypeMemory:
    """Best-of-restarts k-means in projected canonical coordinates.

    Each restart starts from its own k-means++ draw; the restarts then run
    as one block (``_lloyd_restarts``). Centroids are lifted back to raw
    parameter space; restart stability is the mean pairwise adjusted Rand
    agreement of the restart assignments.
    """
    rows = adapter_rows(theta)
    n = rows.shape[0]
    require(n >= 1, "empty seed set")
    require(1 <= k <= n, f"need K <= N (K={k}, N={n})")
    require(n_restarts >= 1, "n_restarts must be positive")

    points = chain.project(rows)
    inits = np.stack([_kmeans_pp_init(points, k, child_rng(seed, "kmeans", restart))
                      for restart in range(n_restarts)])
    centroids, labels, sse = _lloyd_restarts(points, inits)
    best = 0
    for restart in range(1, n_restarts):
        if sse[restart] < sse[best] - 1e-12:
            best = restart
    stability = float(np.mean(pairwise_ari(labels, k))) if n_restarts > 1 else 1.0

    return PrototypeMemory(m_rows=chain.lift(centroids[best]), chain=chain,
                           centroids=centroids[best], restart_stability=stability,
                           sse=float(sse[best]),
                           silhouette=silhouette_score(points, labels[best]))


# ---------------------------------------------------------------------------
# Sparse coverage fit
# ---------------------------------------------------------------------------

def _ls_on_support(u, atoms, support):
    """Least-squares coefficients of u on the support's atoms and the residual vector."""
    sub = atoms[support]                      # |S| x dim
    coef, _, _, _ = np.linalg.lstsq(sub.T, u, rcond=None)
    return coef, u - coef @ sub


def l0_fit(u, atoms, r_sparse: int, exact: bool = False):
    """Sparse nonzero-count-constrained fit of u in the prototype row basis.

    Orthogonal matching pursuit by default: greedily add the atom with the
    largest normalized correlation to the residual of the least-squares fit
    on the active set. The atoms are chosen in Gram form (batch OMP): the
    residual's correlations are b - G[:, A] c with b = atoms u and
    G_AA c = b_A, so no residual vector is formed; only the final active set
    is fitted by least squares. ``exact=True`` enumerates every support of
    size up to ``r_sparse`` (small K only) and returns the global optimum,
    breaking ties toward the lexicographically smallest support. ``atoms``
    is a (K x dim) array or an ``Atoms`` built from one.

    Returns (w, residual_norm) with w a length-K coefficient vector.
    """
    u = check_finite(u, "target vector")
    dictionary = atoms if isinstance(atoms, Atoms) else Atoms.of(atoms)
    atoms, norms, gram = dictionary.rows, dictionary.norms, dictionary.gram
    k, dim = atoms.shape
    require(1 <= r_sparse <= min(k, dim), "need 1 <= r_sparse <= min(K, dim)")

    if exact:
        require(k <= 12, "exact mode is for small dictionaries")
        best = (float(np.linalg.norm(u)), (), np.zeros(k))
        for size in range(1, r_sparse + 1):
            for support in combinations(range(k), size):
                coef, resid_vec = _ls_on_support(u, atoms, list(support))
                resid = float(np.linalg.norm(resid_vec))
                if resid < best[0] - 1e-12:
                    w = np.zeros(k)
                    w[list(support)] = coef
                    best = (resid, support, w)
        return best[2], best[0]

    b = atoms @ u
    resid_corr = b                  # the atoms' inner products with the residual
    active: list[int] = []
    u_norm = vector_norm(u)
    for step in range(r_sparse):
        corr = np.abs(resid_corr) / norms
        corr[active] = -np.inf
        best_atom = int(corr.argmax())
        if corr[best_atom] <= 1e-12 * max(u_norm, 1e-300):
            break
        active.append(best_atom)
        if step + 1 < r_sparse:
            # the active set's fit c solves G_AA c = b_A
            coef = (b[active] / gram[best_atom, best_atom] if step == 0
                    else np.linalg.solve(gram[np.ix_(active, active)], b[active]))
            resid_corr = b - gram[:, active] @ coef
    w = np.zeros(k)
    if not active:
        return w, u_norm
    coef, residual = _ls_on_support(u, atoms, active)
    w[active] = coef
    return w, vector_norm(residual)


# ---------------------------------------------------------------------------
# Coverage certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverageFits:
    """The sparse fits of the pretraining adapters in one dictionary.

    ``centroids`` is the dictionary (prototypes in ``chain``'s coordinates),
    ``coords`` the adapters in those coordinates, ``weights`` their fit
    coefficients and ``canon`` the residual norms in canonical coordinates.
    """

    chain: ProjectionChain
    centroids: np.ndarray
    r_sparse: int
    coords: np.ndarray
    weights: np.ndarray
    canon: np.ndarray

    def raw_residuals(self) -> np.ndarray:
        """The residual norms in raw parameter units, one lift pair per adapter."""
        lift = self.chain.lift
        return np.array([float(np.linalg.norm(lift(u) - lift(w @ self.centroids)))
                         for u, w in zip(self.coords, self.weights)])


def coverage_fits(chain: ProjectionChain, centroids, theta_pre, r_sparse: int) -> CoverageFits:
    """One ``l0_fit`` per pretraining adapter in ``centroids`` (prototypes in the
    chain's coordinates), with the canonical residual norms."""
    rows = adapter_rows(theta_pre)
    require(rows.shape[0] >= 1, "no pretraining adapters")
    coords = chain.project(rows)
    atoms = Atoms.of(centroids)
    weights = np.empty((rows.shape[0], atoms.rows.shape[0]))
    canon = np.empty(rows.shape[0])
    for i, u in enumerate(coords):
        weights[i], canon[i] = l0_fit(u, atoms, r_sparse)
    return CoverageFits(chain, atoms.rows, r_sparse, coords, weights, canon)


def coverage_certificate(fits: CoverageFits, n_boot: int = 1000, seed: int = 0,
                         exhaustive: bool = False) -> CoverageCertificate:
    """Median-residual certificate with 90 percent percentile intervals, canonical and raw.

    Certifies the given sparse fits (``coverage_fits`` of the pretraining
    adapters in one dictionary) at their sparsity. Bootstraps pretraining
    tasks with replacement; ``eps_upper`` is the conservative upper endpoint
    of the percentile interval. Exhaustive mode enumerates every resample
    for small task counts, making percentile endpoints exact.
    """
    canon, raw = fits.canon, fits.raw_residuals()
    n = canon.shape[0]
    # one index matrix resamples both the canonical and the raw residuals
    idx = (exhaustive_index_tuples(n) if exhaustive
           else bootstrap_indices(n, n_boot, child_rng(seed, "coverage")))

    meds = np.median(canon[idx], axis=1)
    eps_hat = float(np.median(canon))
    pct = percentile_interval(meds)

    meds_raw = np.median(raw[idx], axis=1)
    raw_eps_hat = float(np.median(raw))
    raw_pct = percentile_interval(meds_raw)

    return CoverageCertificate(
        eps_hat=eps_hat, pct90=pct,
        n_boot=idx.shape[0], r_sparse=fits.r_sparse,
        raw_eps_hat=raw_eps_hat, raw_pct90=raw_pct,
    )


# ---------------------------------------------------------------------------
# Conditioning and coherence
# ---------------------------------------------------------------------------

def kappa_of(m_rows: np.ndarray) -> float:
    """Condition number sigma_max / sigma_min of the transposed row matrix."""
    m_rows = np.asarray(m_rows, dtype=float)
    if m_rows.shape[0] < 2:
        return 1.0 if m_rows.size else np.inf
    s = np.linalg.svd(m_rows.T, compute_uv=False)
    smin = s.min()
    return np.inf if smin < 1e-300 else float(s.max() / smin)


def _abs_cosines(m_rows: np.ndarray) -> np.ndarray:
    """Absolute cosine between every two rows, the diagonal included."""
    norms = np.linalg.norm(m_rows, axis=1)
    if np.any(norms < 1e-12):
        raise DegenerateAtomError("zero-norm prototype row")
    unit = m_rows / norms[:, None]
    return np.abs(unit @ unit.T)


def mu_of(m_rows: np.ndarray) -> float:
    """Mutual coherence: largest absolute cosine between distinct rows."""
    m_rows = np.asarray(m_rows, dtype=float)
    if m_rows.shape[0] < 2:
        return 0.0
    gram = _abs_cosines(m_rows)
    np.fill_diagonal(gram, 0.0)
    return float(np.clip(gram.max(), 0.0, 1.0))


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------

@dataclass
class MergeEvent:
    pair: tuple
    mu_before: float
    k_after: int
    coverage_before: float | None = None
    coverage_after: float | None = None


def _most_coherent_pair(m_rows):
    gram = _abs_cosines(m_rows)
    np.fill_diagonal(gram, -1.0)
    best = np.unravel_index(np.argmax(gram), gram.shape)
    i, j = int(min(best)), int(max(best))
    return i, j


# the coherence and condition number above which merge_prototypes merges
MU_THRESHOLD = 0.95
KAPPA_THRESHOLD = 1e4


def merge_prototypes(memory: PrototypeMemory, mu_threshold: float = MU_THRESHOLD,
                     kappa_threshold: float = KAPPA_THRESHOLD, theta_pre=None,
                     r_sparse: int | None = None):
    """Merge the most coherent pair until both diagnostics clear thresholds.

    The merged row is the sign-aligned normalized mean of the pair, rescaled
    to their average norm; ties break toward the lowest index pair. Returns
    a new memory, the merge log and the final rows' sparse fits. When
    pretraining adapters are supplied, each event also records the induced
    coverage-error change, and the fits are those of the last event's rows,
    ready for ``coverage_certificate``; otherwise, or when nothing merges,
    the fits are None.
    """
    m_rows = memory.M
    chain = memory.chain
    log: list[MergeEvent] = []
    fits = None

    def coverage_of(rows):
        nonlocal fits
        if theta_pre is None:
            return None
        rs = r_sparse if r_sparse is not None else min(chain.r, rows.shape[0])
        fits = coverage_fits(chain, chain.project(rows), theta_pre, min(rs, rows.shape[0]))
        return float(np.median(fits.canon))

    def health(rows):
        return kappa_of(chain.project(rows)), mu_of(rows)

    kappa, mu = health(m_rows)
    while m_rows.shape[0] > 1 and (mu > mu_threshold or kappa > kappa_threshold):
        i, j = _most_coherent_pair(m_rows)
        # the rows are those the last event measured as its coverage_after
        cov_before = log[-1].coverage_after if log else coverage_of(m_rows)
        a, b = m_rows[i], m_rows[j]
        sign = 1.0 if a @ b >= 0 else -1.0
        direction = a / np.linalg.norm(a) + sign * b / np.linalg.norm(b)
        direction /= np.linalg.norm(direction)
        merged = direction * 0.5 * (np.linalg.norm(a) + np.linalg.norm(b))
        m_rows = np.vstack([m_rows[:i], [merged], m_rows[i + 1:j], m_rows[j + 1:]])
        kappa_next, mu_next = health(m_rows)
        log.append(MergeEvent(pair=(i, j), mu_before=mu, k_after=m_rows.shape[0],
                              coverage_before=cov_before,
                              coverage_after=coverage_of(m_rows)))
        kappa, mu = kappa_next, mu_next

    merged_memory = PrototypeMemory(m_rows=m_rows, chain=chain,
                                    centroids=chain.project(m_rows),
                                    restart_stability=memory.restart_stability,
                                    sse=memory.sse)
    return merged_memory, log, fits
