#!/usr/bin/env python3
"""Continuous-time blocks: adaptive integration and adjoint gradients."""

import numpy as np
import scipy.linalg

from protoadapt.node import SolveConfig, VectorField, adjoint_gradient, integrate

# linear benchmark against the matrix exponential
a_mat = np.array([[0.0, 1.5], [-1.5, -0.1]])
z0 = np.array([1.0, 0.0])
cfg = SolveConfig(rtol=1e-9, atol=1e-11)
res = integrate(lambda z, t: a_mat @ z, z0, cfg)
oracle = scipy.linalg.expm(a_mat) @ z0
print(f"adaptive flow vs matrix exponential: error {np.max(np.abs(res.z1 - oracle)):.2e} "
      f"({res.n_steps} steps, {res.n_rejected} rejected)")

res4 = integrate(lambda z, t: a_mat @ z, z0, SolveConfig(method="rk4", max_step=0.01))
print(f"fixed-step integrator: error {np.max(np.abs(res4.z1 - oracle)):.2e} "
      f"({res4.n_steps} steps)")

# learnable field with adjoint gradients against finite differences
field = VectorField(m=3, hidden=5, seed=0, scale=0.7)
z_init = np.array([0.4, -0.2, 0.1])
target = np.array([0.0, 0.5, -0.5])
tight = SolveConfig(rtol=1e-10, atol=1e-12)

fwd = integrate(field, z_init, tight)
adj = adjoint_gradient(field, z_init, tight, fwd.z1 - target, forward_result=fwd)

def loss(f, z):
    out = integrate(f, z, tight).z1
    return 0.5 * float(np.sum((out - target) ** 2))

eps = 1e-5
fd = np.array([(loss(field, z_init + eps * np.eye(3)[j])
                - loss(field, z_init - eps * np.eye(3)[j])) / (2 * eps)
               for j in range(3)])
rel = np.linalg.norm(adj.grad_z0 - fd) / np.linalg.norm(fd)
print(f"state gradient vs finite differences: relative error {rel:.2e}")
print(f"parameter gradient norm {np.linalg.norm(adj.grad_params):.4f} "
      f"over {field.n_params} parameters")
print("solver log entry:", tight.as_log_dict())
