"""Reference computations made apart from the package.

Nothing here imports ``contracting_sde``. The moment oracles are the exact
discrete recursions of the Euler scheme the package simulates (Higham,
SIAM Review 43(3), 2001): for an affine recursion w' = F w + g_k + noise,
the mean and the covariance evolve as

    mu' = F mu + g_k
    C'  = F C F^T + Q_k(mu, C),

where Q_k is the covariance of the step noise. Every moment kind is such a
recursion on a stacked state: a coupled pair (x, y), an OU cascade (x, xi)
with the exact OU transition, and a Jacobi cascade (x, u) whose noise
covariance sigma_u^2 dt E[u (a - u)] closes on the first two moments
(Pearson closure: E[u (a - u)] = a E[u] - E[u^2]). Carrying the covariance
rather than the second moment keeps a deterministic error (common noise)
exactly deterministic. The squared weighted error
e = H w + h_k then has E e^T P e = tr(P H C H^T) + m^T P m, m = H mu + h_k.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np


def signal(spec: dict, t: np.ndarray) -> np.ndarray:
    """Input signal of a config evaluated at times t, shape (len(t), m)."""
    t = np.asarray(t, dtype=float)
    if spec["kind"] == "constant":
        v = np.atleast_1d(np.asarray(spec["value"], dtype=float))
        return np.broadcast_to(v, (t.shape[0], v.shape[0])).copy()
    if spec["kind"] == "sinusoid":
        amp = np.atleast_1d(np.asarray(spec["amplitude"], dtype=float))
        off = np.asarray(spec.get("offset") or np.zeros_like(amp), dtype=float)
        phase = spec.get("phase", 0.0)
        return off + amp * np.sin(spec.get("omega", 1.0) * t[:, None] + phase)
    raise ValueError(f"no oracle for signal kind '{spec['kind']}'")


def system_matrices(spec: dict):
    """(A, B, Sigma, P) of a config's system block."""
    if spec.get("name") == "scalar_tracker":
        c, s = float(spec["c"]), float(spec["sigma"])
        return np.array([[-c]]), np.array([[c]]), np.array([[s]]), np.eye(1)
    A = np.asarray(spec["A"], dtype=float)
    P = np.asarray(spec.get("P", np.eye(A.shape[0])), dtype=float)
    return A, np.asarray(spec["B"], dtype=float), np.asarray(spec["Sigma"], dtype=float), P


def certificate(spec: dict):
    """(c, ell, sigma_x^2) of an affine system, from eigen-decompositions.

    c = -max eig of L^{-1} ((P A + A^T P) / 2) L^{-T} with P = L L^T;
    ell = ||L^T B||_2; sigma_x^2 = tr(Sigma^T P Sigma).
    """
    A, B, Sigma, P = system_matrices(spec)
    L = np.linalg.cholesky(P)
    Li = np.linalg.inv(L)
    S = Li @ (0.5 * (P @ A + A.T @ P)) @ Li.T
    c = -float(np.linalg.eigvalsh(0.5 * (S + S.T))[-1])
    ell = float(np.linalg.svd(L.T @ B, compute_uv=False)[0])
    return c, ell, float(np.trace(Sigma.T @ P @ Sigma))


def affine_moments(F, g, noise_cov, mu0, steps: int):
    """Exact mean and covariance (mu_k, C_k), k = 0..steps, of
    w' = F w + g[k] + noise_k started at the point mu0.

    ``g`` is (steps, d); ``noise_cov(k, mu, C)`` is the covariance of
    noise_k, which is independent of w_k and may depend on its moments.
    """
    d = mu0.shape[0]
    mus = np.empty((steps + 1, d))
    Cs = np.empty((steps + 1, d, d))
    mu = np.asarray(mu0, dtype=float).copy()
    C = np.zeros((d, d))
    mus[0], Cs[0] = mu, C
    for k in range(steps):
        C = F @ C @ F.T + noise_cov(k, mu, C)
        mu = F @ mu + g[k]
        mus[k + 1], Cs[k + 1] = mu, C
    return mus, Cs


def weighted_square(mus, Cs, H, h, P):
    """E ||H w_k + h_k||_P^2, and its variance when w_k is Gaussian.

    For e ~ N(m, C): E e^T P e = tr(P C) + m^T P m and
    Var(e^T P e) = 2 tr((P C)^2) + 4 m^T P C P m; the variance is exact
    only for the linear-Gaussian kinds.
    """
    m = mus @ H.T + h
    C = np.einsum("ij,kjl,ml->kim", H, Cs, H)
    PC = np.einsum("ij,kjl->kil", P, C)
    mean = np.einsum("kii->k", PC) + np.einsum("ki,ij,kj->k", m, P, m)
    var = 2.0 * np.einsum("kij,kji->k", PC, PC) + 4.0 * np.einsum("ki,kij,jl,kl->k", m, PC, P, m)
    return mean, var


def _times(grid: dict) -> np.ndarray:
    return grid["t0"] + grid["dt"] * np.arange(grid["steps"] + 1)


def pair_moment(cfg: dict):
    """E||x_k - y_k||_P^2 (and its Gaussian variance) for niss_pair /
    niss_vs_ode configs, the latter pairing with the Sigma = 0 system."""
    A, B, Sigma, P = system_matrices(cfg["system"])
    n = A.shape[0]
    grid = cfg["grid"]
    dt, steps = grid["dt"], grid["steps"]
    t = _times(grid)[:-1]
    Sigma_y = np.zeros_like(Sigma) if cfg["scenario_kind"] == "niss_vs_ode" else Sigma
    M = np.eye(n) + A * dt
    F = np.block([[M, np.zeros((n, n))], [np.zeros((n, n)), M]])
    g = np.hstack([signal(cfg["input_x"], t) @ B.T, signal(cfg["input_y"], t) @ B.T]) * dt
    if cfg.get("coupling") == "common":
        G = np.vstack([Sigma, Sigma_y])
        Q = G @ G.T * dt
    else:
        Q = np.zeros((2 * n, 2 * n))
        Q[:n, :n] = Sigma @ Sigma.T * dt
        Q[n:, n:] = Sigma_y @ Sigma_y.T * dt
    mu0 = np.concatenate([np.asarray(cfg["x0"], float), np.asarray(cfg["y0"], float)])
    mus, Cs = affine_moments(F, g, lambda k, mu, C: Q, mu0, steps)
    H = np.hstack([np.eye(n), -np.eye(n)])
    return weighted_square(mus, Cs, H, np.zeros((steps + 1, n)), P)


def tracking_moment(cfg: dict):
    """E||x_k - x*(v_k)||_P^2 for the track_* kinds (variance None for JD).

    OU kinds stack (x, xi) with the exact transition xi' = rho xi +
    s z, rho = exp(-c dt), s^2 = sigma^2 (1 - rho^2) / (2 c m); track_didc is
    the OU cascade with sigma = 0. JD kinds stack (x, u) with the Euler step
    u' = (1 - c dt) u + c theta_k dt + sigma_u sqrt(dt u (a - u)) z.
    """
    kind = cfg["scenario_kind"]
    A, B, Sigma, P = system_matrices(cfg["system"])
    n, m = B.shape
    grid = cfg["grid"]
    dt, steps = grid["dt"], grid["steps"]
    t = _times(grid)
    theta = signal(cfg["theta"], t)
    Meq = np.atleast_2d(np.asarray(cfg["eq_map"]["M"], dtype=float))
    beq = np.asarray(cfg["eq_map"].get("b") or np.zeros(n), dtype=float)
    M = np.eye(n) + A * dt
    Qx = Sigma @ Sigma.T * dt
    F = np.zeros((n + m, n + m))
    F[:n, :n] = M
    F[:n, n:] = B * dt
    g = np.zeros((steps, n + m))
    if kind.startswith("track_jd"):
        noise = cfg["noise"]
        c_u, sig_u = float(noise["c"]), float(noise["sigma_u"])
        a = np.atleast_1d(np.asarray(noise["a"], dtype=float))
        F[n:, n:] = (1.0 - c_u * dt) * np.eye(m)
        g[:, n:] = c_u * theta[:-1] * dt
        mu0 = np.concatenate([np.asarray(cfg["x0"], float), np.asarray(cfg["u0"], float)])

        def noise_cov(k, mu, C):
            Q = np.zeros((n + m, n + m))
            Q[:n, :n] = Qx
            Eu = mu[n:]
            Euu = np.diag(C)[n:] + Eu**2
            Q[n:, n:] = np.diag(sig_u**2 * dt * (a * Eu - Euu))
            return Q
    else:
        noise = cfg.get("noise", {"c": 1.0, "sigma": 0.0})
        c_ou, sig = float(noise["c"]), float(noise["sigma"])
        rho = math.exp(-c_ou * dt)
        s2 = sig**2 * (1.0 - rho**2) / (2.0 * c_ou * m)
        F[n:, n:] = rho * np.eye(m)
        g[:, :n] = theta[:-1] @ B.T * dt
        xi0 = np.asarray(cfg.get("xi0", np.zeros(m)), dtype=float)
        mu0 = np.concatenate([np.asarray(cfg["x0"], float), xi0])
        Q = np.zeros((n + m, n + m))
        Q[:n, :n] = Qx
        Q[n:, n:] = s2 * np.eye(m)

        def noise_cov(k, mu, C):
            return Q
    mus, Cs = affine_moments(F, g, noise_cov, mu0, steps)
    stochastic = kind.endswith("sisc")
    H = np.hstack([np.eye(n), -Meq if stochastic else np.zeros((n, m))])
    if kind.startswith("track_jd"):
        h = -(theta @ Meq.T if not stochastic else 0.0) - beq
        h = np.broadcast_to(h, (steps + 1, n))
        mean, _ = weighted_square(mus, Cs, H, h, P)
        return mean, None
    h = -(theta @ Meq.T) - beq
    return weighted_square(mus, Cs, H, h, P)


def ou_exact_second_moment(x0_sq: float, c: float, sigma: float, t):
    """E||x_t||^2 of dx = -c x dt + sigma dB started at squared norm x0_sq."""
    decay = np.exp(-2.0 * c * np.asarray(t, dtype=float))
    return decay * x0_sq + sigma**2 / (2.0 * c) * (1.0 - decay)


def ou_euler_second_moment(x0_sq: float, c: float, sigma: float, dt: float, steps: int):
    """E||x_k||^2 of the Euler chain: E' = (1 - c dt)^2 E + sigma^2 dt."""
    out = np.empty(steps + 1)
    out[0] = x0_sq
    for k in range(steps):
        out[k + 1] = (1.0 - c * dt) ** 2 * out[k] + sigma**2 * dt
    return out


def bonferroni_z(comparisons: int, family_alpha: float) -> float:
    """Two-sided normal quantile for ``comparisons`` tests at family level alpha."""
    return NormalDist().inv_cdf(1.0 - family_alpha / (2.0 * comparisons))


SPREAD_SIGMAS = 8.0


def wp_limit_band(cfg: dict):
    """Interval that must contain W_p of the clouds at the final checkpoint.

    Under common noise every pair difference d_i = x_i - y_i follows
    d' = M d + B du dt with M = I + A dt, so d_K - d* = M^K (d_0 - d*) with
    d* = -A^{-1} B du. Every coupling bounds W_p from above, the index
    coupling by ||d*|| + ||M^K|| max_i ||d_0,i - d*||, and W_p >= W_1 >=
    ||mean(x) - mean(y)|| bounds it from below. The initial clouds are
    mean + std N(0, I) in each coordinate; ``SPREAD_SIGMAS`` standard
    deviations per coordinate bound max_i ||d_0,i - mean d_0||.
    """
    A, B, _, _ = system_matrices(cfg["system"])
    n = A.shape[0]
    grid = cfg["grid"]
    du = signal(cfg["input_x"], np.zeros(1))[0] - signal(cfg["input_y"], np.zeros(1))[0]
    d_star = -np.linalg.solve(A, B @ du)
    decay = np.linalg.norm(np.linalg.matrix_power(np.eye(n) + A * grid["dt"], grid["steps"]), 2)
    cloud = cfg["cloud"]
    dmean = np.asarray(cloud["mean_x"], float) - np.asarray(cloud["mean_y"], float)
    spread = SPREAD_SIGMAS * math.sqrt(2.0 * n) * float(cloud.get("std", 1.0))
    offset = float(np.linalg.norm(dmean - d_star))
    centre = float(np.linalg.norm(d_star))
    return centre - decay * (offset + spread), centre + decay * (offset + spread)



def normal_ks(samples: np.ndarray, var: float) -> float:
    """Kolmogorov-Smirnov distance of samples to N(0, var)."""
    s = np.sort(np.asarray(samples, dtype=float))
    k = s.shape[0]
    cdf = np.array([0.5 * (1.0 + math.erf(x / math.sqrt(2.0 * var))) for x in s])
    return float(np.maximum(np.arange(1, k + 1) / k - cdf, cdf - np.arange(k) / k).max())


def normal_density(x: np.ndarray, var: float) -> np.ndarray:
    return np.exp(-0.5 * np.asarray(x) ** 2 / var) / math.sqrt(2.0 * math.pi * var)
