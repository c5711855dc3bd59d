"""Closed-form moment oracle and the Monte Carlo correctness gate.

For an affine diffusion dX = (a X + b) dt + sigma(X) dW with
sigma sigma^T = theta(x) = A0 + sum_i A_i x_i, the first two moments solve a
linear ODE in z = (1, m, vec M):

    dm/dt = a m + b
    dM/dt = a M + M a^T + b m^T + m b^T + A0 + sum_i A_i m_i

so one `expm` of its generator gives them exactly.  The Euler scheme without
truncation has moments that follow the same recursion in discrete time, one
matrix power of the one-step map; the gap between the two is the
discretization bias, which the gate allows on top of k standard errors.

The mean does not depend on sigma, so only the covariance check can catch a
wrong square root.  It is applied only where the model keeps paths away from
the boundary (see `COVARIANCE_SKIPPED`), because full truncation biases the
second moments of paths that reach it.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

K_SE = 5.0   # standard errors allowed on each compared moment
# CLI reports carry only per-coordinate standard deviations, not the samples.
# The standard error of a sample variance is sigma^2 sqrt((kurtosis - 1) / n);
# the gate assumes kurtosis at most KURTOSIS_BOUND.
KURTOSIS_BOUND = 9.0

# Fixtures whose boundary is attainable, so truncation biases second moments.
# parabola3: Phi = x1 - |y|^2 follows dPhi = 0.5 dt + 2 sqrt(Phi) dW, a Feller
# ratio 2 * 0.5 / 4 = 0.25 < 1.  (cir: 2 b / sigma^2 = 2; cone3: the cone
# function x1^2 - |y|^2 has ratio 1.5; triangle_channel has no square-root
# facet.)
COVARIANCE_SKIPPED = {
    "parabola3": "boundary attainable (Feller ratio 0.25 < 1): truncation "
                 "biases the second moments",
}


def _generator(a, b, A0, A) -> np.ndarray:
    """Generator G of dz/dt = G z for z = (1, m, vec M), vec row-major."""
    p = b.shape[0]
    n = 1 + p + p * p
    G = np.zeros((n, n))
    im = slice(1, 1 + p)
    iM = slice(1 + p, n)
    G[im, 0] = b
    G[im, im] = a
    eye = np.eye(p)
    G[iM, iM] = np.kron(a, eye) + np.kron(eye, a)
    G[iM, 0] = A0.reshape(-1)
    lin = A.reshape(p, p * p).T.copy()           # theta(m) - A0
    for j in range(p):
        for k in range(p):
            lin[j * p + k, k] += b[j]            # b m^T
            lin[j * p + k, j] += b[k]            # m b^T
    G[iM, im] = lin
    return G


def _euler_step(a, b, A0, A, dt: float) -> np.ndarray:
    """One-step map of z under x' = F x + c + sqrt(dt) sigma(x) xi."""
    p = b.shape[0]
    n = 1 + p + p * p
    F = np.eye(p) + dt * a
    c = dt * b
    E = np.zeros((n, n))
    E[0, 0] = 1.0
    im = slice(1, 1 + p)
    iM = slice(1 + p, n)
    E[im, 0] = c
    E[im, im] = F
    E[iM, iM] = np.kron(F, F)
    E[iM, 0] = np.outer(c, c).reshape(-1) + dt * A0.reshape(-1)
    lin = dt * A.reshape(p, p * p).T.copy()
    for j in range(p):
        for k in range(p):
            lin[j * p + k] += F[k] * c[j] + F[j] * c[k]   # F m c^T + c m^T F^T
    E[iM, im] = lin
    return E


def _unpack(z: np.ndarray, p: int):
    m = z[1:1 + p]
    M = z[1 + p:].reshape(p, p)
    cov = 0.5 * (M + M.T) - np.outer(m, m)
    return m, cov


def exact_moments(model, x0, horizon: float):
    """Mean and covariance of X_t from X_0 = x0, by one expm."""
    a, b = model.drift.a, model.drift.b
    A0, A = model.diffusion.A0, model.diffusion.A
    x0 = np.asarray(x0, dtype=float)
    z0 = np.concatenate([[1.0], x0, np.outer(x0, x0).reshape(-1)])
    return _unpack(expm(horizon * _generator(a, b, A0, A)) @ z0, x0.shape[0])


def euler_moments(model, x0, horizon: float, steps: int):
    """Mean and covariance of the untruncated Euler chain after `steps`."""
    a, b = model.drift.a, model.drift.b
    A0, A = model.diffusion.A0, model.diffusion.A
    x0 = np.asarray(x0, dtype=float)
    z0 = np.concatenate([[1.0], x0, np.outer(x0, x0).reshape(-1)])
    E = _euler_step(a, b, A0, A, horizon / steps)
    return _unpack(np.linalg.matrix_power(E, steps) @ z0, x0.shape[0])


def _scale(*arrays) -> float:
    return 1.0 + max(float(np.abs(x).max(initial=0.0)) for x in arrays)


def sample_gate(model, x0, horizon: float, steps: int, final: np.ndarray,
                check_covariance: bool) -> dict:
    """Compare the sample mean and covariance of final states with the exact
    moments; returns {"passed", "mean_z", "cov_z", ...} with the worst ratio
    |error| / allowance for each (a ratio above 1 fails)."""
    n = final.shape[0]
    m_ex, C_ex = exact_moments(model, x0, horizon)
    m_eu, C_eu = euler_moments(model, x0, horizon, steps)
    floor = 1e-9 * _scale(m_ex, C_ex)
    mean = final.mean(axis=0)
    dev = final - mean
    se_mean = dev.std(axis=0) / np.sqrt(n)
    allow = K_SE * se_mean + np.abs(m_eu - m_ex) + floor
    mean_ratio = float(np.max(np.abs(mean - m_ex) / allow))
    out = {"passed": bool(mean_ratio <= 1.0 and np.isfinite(final).all()),
           "mean_ratio": mean_ratio}
    if check_covariance:
        prods = dev[:, :, None] * dev[:, None, :]
        cov = prods.mean(axis=0)
        se_cov = prods.std(axis=0) / np.sqrt(n)
        allow = K_SE * se_cov + np.abs(C_eu - C_ex) + floor
        cov_ratio = float(np.max(np.abs(cov - C_ex) / allow))
        out["cov_ratio"] = cov_ratio
        out["passed"] = out["passed"] and cov_ratio <= 1.0
    return out


def report_gate(model, x0, horizon: float, steps: int, n_paths: int,
                final_mean, final_std, check_variance: bool) -> dict:
    """The same gate on a CLI report, which carries the sample mean and the
    per-coordinate standard deviation (ddof 0) of the final states."""
    m_ex, C_ex = exact_moments(model, x0, horizon)
    m_eu, C_eu = euler_moments(model, x0, horizon, steps)
    floor = 1e-9 * _scale(m_ex, C_ex)
    mean = np.asarray(final_mean, dtype=float)
    std = np.asarray(final_std, dtype=float)
    allow = K_SE * std / np.sqrt(n_paths) + np.abs(m_eu - m_ex) + floor
    mean_ratio = float(np.max(np.abs(mean - m_ex) / allow))
    out = {"passed": bool(mean_ratio <= 1.0), "mean_ratio": mean_ratio}
    if check_variance:
        var_ex, var_eu = np.diag(C_ex), np.diag(C_eu)
        se_var = var_ex * np.sqrt((KURTOSIS_BOUND - 1.0) / n_paths)
        allow = K_SE * se_var + np.abs(var_eu - var_ex) + floor
        var_ratio = float(np.max(np.abs(std ** 2 - var_ex) / allow))
        out["var_ratio"] = var_ratio
        out["passed"] = out["passed"] and var_ratio <= 1.0
    return out
