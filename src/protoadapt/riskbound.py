"""Executable verification of the excess-risk decomposition.

For each synthetic task with a known true adapter the harness builds the
sparse approximant through the prototype memory, checks the triangle-inequality
chain on that task's own measured residuals (an exact identity up to float
error), and evaluates the Lipschitz-based deterministic gap bound both with
per-task residuals (exact) and with the certified median-based upper bound
(holds for most tasks by median semantics; the rate is reported). Every
risk is measured on the task's own query set; the harness estimates no
population risk and no sample-size capacity term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import binary_cross_entropy
from .prototypes import l0_fit
from .util import ValidationError, check_finite, require, sigmoid, vector_norm


def _row_radius(feats) -> float:
    """Largest row norm of a feature block: the root of the largest row sum of squares."""
    return math.sqrt(np.einsum("ij,ij->i", feats, feats).max())


def feature_radius_of(blocks, feature_map) -> float:
    """Largest feature-row norm over raw input blocks (0.0 for none)."""
    return max((_row_radius(feature_map(block)) for block in blocks), default=0.0)


def empirical_risk(adapters, x_feats, labels) -> np.ndarray:
    """Mean log loss on labelled features of each adapter in a stack, one risk each.

    Each adapter's logits are its own matrix-vector product, so an adapter's
    risk has the same bytes in any stack (one matrix product over the stack
    would round the logits differently); the sigmoid, the clip and the log
    loss (one log per entry) run once over the (m, n) logit block.
    """
    logits = np.array([x_feats @ adapter for adapter in adapters])
    return binary_cross_entropy(sigmoid(logits), labels)


@dataclass
class BoundReport:
    task_id: str
    eps_app: float                   # measured distance to the fitted subspace
    eps_coverage: float              # this task's sparse-fit residual (raw units)
    eps_certified: float             # certified raw-metric upper bound
    lipschitz: float
    emp_gap: float
    adapter_gap: float               # ||M^T w* - theta_true||
    triangle_slack: float            # eps_app + eps_coverage - adapter_gap
    deterministic_bound: float       # L (eps_app + eps_coverage), per-task residuals
    certified_bound: float           # L (eps_app + eps_certified)
    triangle_holds: bool
    per_task_bound_holds: bool
    certified_bound_holds: bool


def check_bound(task, memory, certificate, feature_map, tol: float = 1e-9) -> BoundReport:
    """Triangle and Lipschitz gap checks for one task with a known adapter.

    The approximant is built exactly as the decomposition prescribes:
    project the true adapter onto the fitted subspace, sparse-fit the
    projection in the prototype rows (raw space), and compare the empirical
    risks of the composed and oracle predictors on the task's query set.
    """
    if task.theta_true is None:
        raise ValidationError(f"task {task.task_id} has no ground-truth adapter")
    require(certificate is not None, "a coverage certificate is required")
    theta = check_finite(task.theta_true, "theta_true")

    u_star = memory.chain.subspace_project(theta)
    eps_app = vector_norm(theta - u_star)
    w_star, eps_cov = l0_fit(u_star, memory.row_atoms, min(certificate.r_sparse, memory.K))
    approx = w_star @ memory.M
    adapter_gap = vector_norm(theta - approx)
    triangle_slack = eps_app + eps_cov - adapter_gap

    feats = feature_map(task.query_x)
    lipschitz = _row_radius(feats)
    # one logit block serves the composed and the oracle adapter
    risk_mem, risk_oracle = empirical_risk([approx, theta], feats, task.query_y)
    emp_gap = float(abs(risk_mem - risk_oracle))

    eps_cert = float(certificate.raw_eps_upper)
    det_bound = lipschitz * (eps_app + eps_cov)
    cert_bound = lipschitz * (eps_app + eps_cert)

    return BoundReport(
        task_id=task.task_id,
        eps_app=eps_app,
        eps_coverage=eps_cov,
        eps_certified=eps_cert,
        lipschitz=lipschitz,
        emp_gap=emp_gap,
        adapter_gap=adapter_gap,
        triangle_slack=triangle_slack,
        deterministic_bound=det_bound,
        certified_bound=cert_bound,
        triangle_holds=adapter_gap <= eps_app + eps_cov + tol,
        per_task_bound_holds=emp_gap <= det_bound + tol,
        certified_bound_holds=emp_gap <= cert_bound + tol,
    )


@dataclass
class BoundSummary:
    n_tasks: int
    triangle_rate: float
    per_task_rate: float
    certified_rate: float
    max_triangle_violation: float
    reports: list

    def as_text(self) -> str:
        return (f"bound check over {self.n_tasks} tasks: triangle {self.triangle_rate:.3f}, "
                f"per-task gap {self.per_task_rate:.3f}, certified gap {self.certified_rate:.3f}, "
                f"max triangle violation {self.max_triangle_violation:.3e}")


def check_bounds_over_tasks(tasks, memory, certificate, feature_map,
                            tol: float = 1e-9) -> BoundSummary:
    reports = [check_bound(t, memory, certificate, feature_map, tol=tol)
               for t in tasks]
    n = len(reports)
    require(n >= 1, "no tasks to check")
    return BoundSummary(
        n_tasks=n,
        triangle_rate=sum(r.triangle_holds for r in reports) / n,
        per_task_rate=sum(r.per_task_bound_holds for r in reports) / n,
        certified_rate=sum(r.certified_bound_holds for r in reports) / n,
        max_triangle_violation=float(max(-r.triangle_slack for r in reports)),
        reports=reports,
    )
