"""Certification and estimation of the constants entering the error envelopes.

Exact values are available for affine drifts (generalized eigenvalue /
induced-norm computations); everything else is estimated by sampling, and
sampled maxima are reported as lower estimates of the true suprema, never
silently promoted to certificates.
"""

from __future__ import annotations

import numpy as np

from .core import Certificate, EquilibriumMap, Metric, validate_metric
from .errors import EstimationError, InputError

_PAIR_DISTANCE_FLOOR = 1e-8


def oslip_affine(A: np.ndarray, metric: Metric) -> float:
    """One-sided Lipschitz constant of x -> A x in the weighted norm.

    Equals the largest generalized eigenvalue of S = (PA + A^T P)/2 against
    P, the largest eigenvalue of L^-1 S L^-T for P = L L^T; exact for affine
    drifts. With d = diag(L) and the unit factor Lu = L / d, that matrix is
    (Lu^-1 S Lu^-T) / (d d^T): s / (l l) in one dimension, as LAPACK's
    dsygst forms it.
    """
    A = np.asarray(A, dtype=float)
    S = 0.5 * (metric.P @ A + A.T @ metric.P)
    d = np.diag(metric.chol)
    Lu_inv = np.linalg.inv(metric.chol / d)
    W = (Lu_inv @ S @ Lu_inv.T) / np.outer(d, d)
    return float(np.linalg.eigvalsh(0.5 * (W + W.T))[-1])


def box_sampler(lo, hi):
    """Uniform sampler over an axis-aligned box, usable as x_sampler/u_sampler."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))

    def sample(rng, n):
        return rng.uniform(lo, hi, size=(n, lo.shape[0]))

    return sample


def _drift_batch(F, xs, us) -> np.ndarray:
    out = np.asarray(F(xs, us), dtype=float)
    if out.shape != xs.shape:
        raise InputError(
            f"drift returned shape {out.shape} for a batch of {xs.shape[0]} "
            f"states; expected {xs.shape}: F must broadcast over a leading "
            "batch axis"
        )
    return out


def oslip_sampled(F, u_box, x_sampler, metric: Metric, n_pairs: int, seed: int = 0) -> float:
    """Sampled max of (F(y,u)-F(x,u))^T P (y-x) / ||y-x||_P^2.

    A lower estimate of the true one-sided Lipschitz constant. Pairs closer
    than the distance floor are skipped. F must broadcast over a leading
    batch axis: (N, n) states and (N, m) inputs give (N, n) drifts.
    """
    if n_pairs < 1:
        raise InputError("n_pairs must be >= 1")
    rng = np.random.default_rng(seed)
    xs = x_sampler(rng, n_pairs)
    ys = x_sampler(rng, n_pairs)
    if u_box is not None:
        us = box_sampler(*u_box)(rng, n_pairs)
    else:
        us = np.zeros((n_pairs, 1))
    d = ys - xs
    keep = np.linalg.norm(d, axis=1) >= _PAIR_DISTANCE_FLOOR
    if not np.any(keep):
        raise EstimationError("all sampled pairs degenerate")
    xs, ys, us, d = xs[keep], ys[keep], us[keep], d[keep]
    dF = _drift_batch(F, ys, us) - _drift_batch(F, xs, us)
    num = np.einsum("ij,jk,ik->i", dF, metric.P, d)
    den = metric.batch_norm_sq(d)
    return float((num / den).max())


def input_lipschitz(
    F,
    metric: Metric,
    norm_u: str = "l2",
    u_box=None,
    x_sampler=None,
    n_pairs: int = 10_000,
    seed: int = 0,
) -> float:
    """Lipschitz constant of F in the input, into the weighted state norm.

    For an affine input matrix B (pass the ndarray directly) with the l2 or
    l1 input norm the induced norm is exact; otherwise the maximum sampled
    ratio ||F(x,v)-F(x,u)||_P / ||v-u|| is returned (a lower estimate);
    a callable F must broadcast as in ``oslip_sampled``.
    """
    if isinstance(F, np.ndarray) or (not callable(F)):
        B = np.atleast_2d(np.asarray(F, dtype=float))
        CB = metric.chol.T @ B
        if norm_u == "l2":
            return float(np.linalg.norm(CB, 2))
        if norm_u == "l1":
            return float(np.linalg.norm(CB, axis=0).max())
        # no closed form for the linf -> weighted-l2 induced norm in general
        raise InputError(f"no exact affine route for input norm '{norm_u}'")
    if u_box is None or x_sampler is None:
        raise InputError("sampled estimator needs u_box and x_sampler")
    rng = np.random.default_rng(seed)
    usampler = box_sampler(*u_box)
    xs = x_sampler(rng, n_pairs)
    us = usampler(rng, n_pairs)
    vs = usampler(rng, n_pairs)
    du = vs - us
    keep = np.linalg.norm(du, axis=1) >= _PAIR_DISTANCE_FLOOR
    if not np.any(keep):
        raise EstimationError("all sampled input pairs degenerate")
    xs, us, vs, du = xs[keep], us[keep], vs[keep], du[keep]
    dF = _drift_batch(F, xs, vs) - _drift_batch(F, xs, us)
    num = np.sqrt(metric.batch_norm_sq(dF))
    den = _vector_norms(du, norm_u)
    return float((num / den).max())


def _vector_norms(X, norm_u):
    if norm_u == "l2":
        return np.linalg.norm(X, axis=1)
    if norm_u == "l1":
        return np.abs(X).sum(axis=1)
    if norm_u == "linf":
        return np.abs(X).max(axis=1)
    raise InputError(f"unknown input norm '{norm_u}'")


def dispersion_bound(
    Sigma,
    metric: Metric,
    x_sampler=None,
    u_box=None,
    n_samples: int = 10_000,
    seed: int = 0,
) -> float:
    """sup over (x, u) of trace(Sigma^T P Sigma); exact for constant Sigma."""
    if isinstance(Sigma, np.ndarray) or (not callable(Sigma)):
        S = np.atleast_2d(np.asarray(Sigma, dtype=float))
        return float(np.trace(S.T @ metric.P @ S))
    if x_sampler is None:
        raise InputError("sampled estimator needs x_sampler")
    rng = np.random.default_rng(seed)
    xs = x_sampler(rng, n_samples)
    if u_box is not None:
        us = box_sampler(*u_box)(rng, n_samples)
    else:
        us = np.zeros((n_samples, 1))
    best = 0.0
    for i in range(n_samples):
        S = np.atleast_2d(np.asarray(Sigma(xs[i], us[i]), dtype=float))
        best = max(best, float(np.trace(S.T @ metric.P @ S)))
    return best


def cascade_metric(metric: Metric, c: float, ell: float, m: int) -> Metric:
    """Block-diagonal weight [[(ell/c) I_m, 0], [0, (c/ell) P]] for the
    input-noise-plus-system cascade; certifies contraction rate c/2.

    Requires the state metric to be normalized to unit spectral norm.
    """
    if ell == 0.0:
        raise InputError("cascade metric undefined for ell = 0; use the plain metric")
    if c <= 0.0:
        raise InputError("c must be positive")
    if abs(metric.spectral_norm - 1.0) > 1e-9:
        raise InputError("cascade metric requires ||P||_2 = 1; normalize first")
    n = metric.dim
    P_big = np.zeros((m + n, m + n))
    P_big[:m, :m] = (ell / c) * np.eye(m)
    P_big[m:, m:] = (c / ell) * metric.P
    return validate_metric(P_big)


def _fd_hessian_diag(f, u, rel_step: float = 1e-4):
    """Five-point second derivatives of each output of f along each input axis.

    Returns an (n_out, m) array of d^2 f_k / d u_i^2; bias is O(h^2).
    """
    u = np.asarray(u, dtype=float)
    f0 = np.atleast_1d(np.asarray(f(u), dtype=float))
    out = np.empty((f0.shape[0], u.shape[0]))
    for i in range(u.shape[0]):
        h = rel_step * max(1.0, abs(u[i]))
        e = np.zeros_like(u)
        e[i] = h
        fp1 = np.atleast_1d(f(u + e))
        fm1 = np.atleast_1d(f(u - e))
        fp2 = np.atleast_1d(f(u + 2 * e))
        fm2 = np.atleast_1d(f(u - 2 * e))
        out[:, i] = (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12.0 * h * h)
    return out


def _hessian_diags(eq_map: EquilibriumMap, u):
    if eq_map.has_hessians:
        return np.stack([np.diag(H) for H in eq_map.hessians(u)])
    return _fd_hessian_diag(eq_map.x_star, u)


def ito_correction_ou(
    eq_map: EquilibriumMap,
    metric: Metric,
    m: int,
    u_sampler,
    n_samples: int = 1000,
    seed: int = 0,
) -> float:
    """Drift-correction constant for OU-driven stochastic equilibrium curves:
    (1/m) sup_u || [trace Hess x*_1(u); ...; trace Hess x*_n(u)] ||_P.

    Sampled sup over the inputs drawn by u_sampler; a lower estimate.
    """
    rng = np.random.default_rng(seed)
    us = u_sampler(rng, n_samples)
    best = 0.0
    for u in us:
        traces = _hessian_diags_full_trace(eq_map, u)
        best = max(best, metric.norm(traces) / m)
    return best


def _hessian_diags_full_trace(eq_map: EquilibriumMap, u):
    if eq_map.has_hessians:
        return np.array([float(np.trace(H)) for H in eq_map.hessians(u)])
    # only diagonal second derivatives enter the trace
    return _hessian_diags(eq_map, u).sum(axis=1)


def ito_correction_jd(eq_map: EquilibriumMap, metric: Metric, a, u_grid) -> float:
    """Drift-correction constant for JD-driven stochastic equilibrium curves:
    sup over the grid of || sum_i u_i (a_i - u_i) d^2 x*/d u_i^2 ||_P.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    best = 0.0
    for u in np.atleast_2d(np.asarray(u_grid, dtype=float)):
        if np.any(u <= 0.0) or np.any(u >= a):
            raise InputError("grid point outside (0, a)")
        diags = _hessian_diags(eq_map, u)  # (n, m)
        w = diags @ (u * (a - u))
        best = max(best, metric.norm(w))
    return best


def certify_affine(A, B, Sigma, metric: Metric) -> Certificate:
    """Exact certificate for drift A x + B u with constant dispersion Sigma."""
    b = oslip_affine(np.asarray(A, dtype=float), metric)
    return Certificate(
        c_hat=-b,
        ell_hat=input_lipschitz(np.asarray(B, dtype=float), metric),
        sigma_x_sq_hat=dispersion_bound(np.asarray(Sigma, dtype=float), metric),
        method="exact-affine",
        sample_count=0,
        confidence_note="deterministic function of (A, B, Sigma, P)",
    )
