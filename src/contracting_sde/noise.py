"""Noise process generators and their closed-form oracles.

The exact Gaussian transition of the mean-reverting Ornstein-Uhlenbeck
process, and a boundary-safe full-truncation Euler step for the Jacobi
diffusion on (0, a): one in-place ``_jd_step``, which the integrators'
kernel, ``jd_step`` and ``jd_step_with_flag`` call. ``JDParams`` holds the
input's one theta and its one ``unsafe`` switch.

Randomness comes from counter-based Philox streams keyed by
(master_seed, path_index), so ensembles are reproducible bit-for-bit and
paths are independent work items.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InputSignal, _integer
from .errors import InputError, StateCorruptionError


@dataclass(frozen=True)
class RngLineage:
    """Identity of one path's random stream."""

    master_seed: int
    path_index: int = 0

    def key(self) -> np.ndarray:
        """The Philox key of the stream."""
        return np.array(
            [self.master_seed % (1 << 64), self.path_index % (1 << 64)],
            dtype=np.uint64,
        )

    def stream(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.key()))


@dataclass(frozen=True)
class OUParams:
    """d xi = -c xi dt + (sigma / sqrt(dim)) dB, with dim-dimensional B."""

    c: float
    sigma: float
    dim: int = 1

    def __post_init__(self):
        if not 0 <= self.c < math.inf:  # NaN fails too
            raise InputError("OU rate c must be nonnegative and finite")
        if not 0 <= self.sigma < math.inf:
            raise InputError("OU sigma must be nonnegative and finite")
        object.__setattr__(self, "dim", _integer(self.dim, "OU dim"))
        if self.dim < 1:
            raise InputError("OU dim must be >= 1")


@dataclass(frozen=True)
class JDParams:
    """d u = -c (u - theta(t)) dt + sigma_u diag(u (a - u))^(1/2) dB on (0, a).

    A run checks the boundary-nonattainment condition (``feller_check``) at
    every time of its grid and refuses to start where it fails, unless
    ``unsafe=True`` is set here, the one place it can be set.
    """

    c: float
    theta: InputSignal
    sigma_u: float
    a: np.ndarray
    unsafe: bool = False

    def __post_init__(self):
        if not 0 < self.c < math.inf:  # NaN fails too
            raise InputError("JD rate c must be positive and finite")
        if not 0 <= self.sigma_u < math.inf:
            raise InputError("JD sigma_u must be nonnegative and finite")
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        if a.ndim != 1 or not np.all((a > 0) & (a < np.inf)):
            raise InputError("JD upper bounds a must be positive and finite, in a vector")
        if self.theta.dim != a.shape[0]:
            raise InputError(f"JD theta has {self.theta.dim} components, a has {a.shape[0]}")
        object.__setattr__(self, "a", a)
        # the micro-clamp interval [eps_b, a - eps_b], eps_b = 1e-12 a, lies inside (0, a)
        object.__setattr__(self, "_bounds", (1e-12 * a, a - 1e-12 * a))

    @property
    def dim(self) -> int:
        return self.a.shape[0]


def feller_check(p: JDParams, t_samples) -> dict:
    """Boundary-nonattainment test for the Jacobi diffusion.

    Checks (sigma_u^2 / 2c) a <= theta(t) <= (1 - sigma_u^2 / 2c) a at each
    sampled time, plus sigma_u^2 < c whenever sigma_u > 0. Returns the
    minimum slack as ``margin`` (negative iff the check fails).
    """
    th = p.theta.values(t_samples)
    if th.shape[0] == 0:
        raise InputError("t_samples must be nonempty")
    ratio = p.sigma_u**2 / (2.0 * p.c)
    margin = float(min((th - ratio * p.a).min(), ((1.0 - ratio) * p.a - th).min()))
    if p.sigma_u > 0:
        margin = min(margin, p.c - p.sigma_u**2)
    return {"holds": margin >= 0.0, "margin": margin}


def ou_exact_step(xi: np.ndarray, p: OUParams, dt: float, z: np.ndarray) -> np.ndarray:
    """Exact Gaussian transition of the OU process over one step of length dt.

    xi' = e^{-c dt} xi + sqrt((sigma^2 / (2 c m)) (1 - e^{-2 c dt})) z,
    which has no discretization bias. With c = 0 this degenerates to pure
    Brownian scaling sigma * sqrt(dt / m) * z.
    """
    decay, std = _ou_exact_coeffs(p, dt)
    return decay * np.asarray(xi, dtype=float) + std * np.asarray(z, dtype=float)


def _ou_exact_coeffs(p: OUParams, dt: float) -> tuple:
    """(decay, std) of the exact OU transition xi' = decay * xi + std * z."""
    if dt <= 0:
        raise InputError("dt must be positive")
    if p.c == 0.0:
        return 1.0, p.sigma * math.sqrt(dt / p.dim)
    decay = math.exp(-p.c * dt)
    return decay, math.sqrt(p.sigma**2 / (2.0 * p.c * p.dim) * (1.0 - decay**2))


def ou_second_moment(x0_norm_sq: float, c: float, sigma: float, t: float) -> float:
    """Closed-form E||x_t||_2^2 of the OU process started at squared norm x0_norm_sq."""
    if x0_norm_sq < 0 or sigma < 0 or t < 0:
        raise InputError("arguments must be nonnegative")
    if c <= 0:
        raise InputError("c must be positive")
    decay = math.exp(-2.0 * c * t)
    return decay * x0_norm_sq + sigma**2 / (2.0 * c) * (1.0 - decay)


def jd_step_with_flag(u, p: JDParams, t: float, dt: float, z):
    """Full-truncation Euler step of the Jacobi diffusion.

    Returns (u_next, n_clamped) where n_clamped counts components pushed back
    into [eps_b, a - eps_b] by the micro-clamp (eps_b = 1e-12 a_i). The step
    accepts batched input of shape (N, m).
    """
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0) or np.any(u > p.a):
        raise StateCorruptionError("JD state outside [0, a] on entry")
    proposal, out = np.empty((2,) + np.broadcast(u, z, p.a).shape)
    _jd_step(u, p, p.theta.value(t), dt, z, proposal, out)
    return out, int(np.count_nonzero(out != proposal))


def _jd_step(u, p: JDParams, th, dt: float, z, proposal, out):
    """jd_step_with_flag's step in place, theta(t) given as the row ``th``, no
    entry check: the Euler proposal (u - (c (u - th)) dt) + ((sigma_u
    sqrt(max(u (a - u), 0))) z) sqrt(dt) into ``proposal``, then its
    micro-clamp into ``out``; neither may share memory with u, th or z."""
    np.multiply(np.subtract(p.a, u, out=out), u, out=out)  # out holds the noise term
    np.sqrt(np.maximum(out, 0.0, out=out), out=out)
    out *= p.sigma_u
    out *= z
    out *= math.sqrt(dt)
    np.multiply(np.subtract(u, th, out=proposal), p.c, out=proposal)
    proposal *= dt
    np.subtract(u, proposal, out=proposal)
    proposal += out
    np.minimum(np.maximum(proposal, p._bounds[0], out=out), p._bounds[1], out=out)


def jd_step(u, p: JDParams, t: float, dt: float, z):
    """Jacobi-diffusion step; see jd_step_with_flag. Output lies inside (0, a)."""
    return jd_step_with_flag(u, p, t, dt, z)[0]
