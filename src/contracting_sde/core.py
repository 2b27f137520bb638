"""Shared domain types: weighted metrics, certificates, system
specifications, time grids, input signals and equilibrium maps.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CapabilityError, CertificationError, InputError

_SYM_RTOL = 1e-12


@dataclass(frozen=True)
class Metric:
    """Positive-definite weight matrix P defining the norm sqrt(x^T P x).

    ``chol`` is the lower-triangular Cholesky factor, P = chol @ chol.T.
    """

    dim: int
    P: np.ndarray
    chol: np.ndarray

    @property
    def spectral_norm(self) -> float:
        return float(np.linalg.eigvalsh(self.P)[-1])

    def normalized(self) -> "Metric":
        """Rescale to unit spectral norm. Idempotent."""
        s = self.spectral_norm
        if abs(s - 1.0) < 1e-14:
            return self
        return validate_metric(self.P / s)

    def norm_sq(self, x: np.ndarray) -> float:
        return weighted_norm_sq(x, self)

    def norm(self, x: np.ndarray) -> float:
        return float(np.sqrt(weighted_norm_sq(x, self)))

    def batch_norm_sq(self, X: np.ndarray) -> np.ndarray:
        """x^T P x for each row of an (N, dim) array."""
        X = np.asarray(X, dtype=float)
        if X.shape[-1] != self.dim:
            raise InputError(
                f"state dimension {X.shape[-1]} != metric dimension {self.dim}"
            )
        Y = X @ self.chol
        return np.einsum("...i,...i->...", Y, Y)


def weighted_norm_sq(x: np.ndarray, metric: Metric) -> float:
    """Squared weighted norm x^T P x, evaluated as ||chol^T x||_2^2."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != metric.dim:
        raise InputError(
            f"vector of shape {x.shape} incompatible with metric dimension {metric.dim}"
        )
    y = metric.chol.T @ x
    return float(y @ y)


def validate_metric(P: np.ndarray, normalize: bool = False) -> Metric:
    """Check symmetry and positive definiteness of P and factorize it.

    Asymmetry up to 1e-12 relative is symmetrized away; larger asymmetry is an
    input error. Non-SPD matrices raise a certification error naming the
    offending eigenvalue. With ``normalize=True`` the matrix is rescaled to
    unit spectral norm first.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise InputError(f"metric matrix must be square, got shape {P.shape}")
    scale = max(1.0, float(np.abs(P).max()))
    asym = float(np.abs(P - P.T).max())
    if asym > _SYM_RTOL * scale:
        raise InputError(f"matrix asymmetry {asym:.3e} exceeds tolerance")
    P = 0.5 * (P + P.T)
    eigvals = np.linalg.eigvalsh(P)
    if eigvals[0] <= 0.0:
        raise CertificationError(
            f"matrix is not positive definite: smallest eigenvalue {eigvals[0]:.6e}"
        )
    if normalize:
        P = P / eigvals[-1]
    chol = np.linalg.cholesky(P)
    return Metric(dim=P.shape[0], P=P, chol=chol)


def identity_metric(dim: int) -> Metric:
    return validate_metric(np.eye(dim))


def _integer(v, name: str = "value") -> int:
    """``v`` as an int: an integer, or a float of integral value; a bool, a
    string or any other number raises InputError."""
    if isinstance(v, (bool, np.bool_)) or not (
            isinstance(v, (int, np.integer)) or isinstance(v, float) and v.is_integer()):
        raise InputError(f"{name} must be an integer, got {v!r}")
    return int(v)


def _boolean(v) -> bool:
    """``v`` if it is True or False; a string, a number or None raises InputError."""
    if not isinstance(v, bool):
        raise InputError(f"value must be true or false, got {v!r}")
    return v


def _real(v, array: bool = False):
    """``v`` as a float, or with ``array`` as a float array of nested lists of
    numbers; a bool, a string or any other value in it raises InputError."""
    a = np.asarray(v, dtype=object)
    if (a.ndim and not array) or not all(
            isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
            for x in a.flat):
        raise InputError(f"value must be {'numbers' if array else 'a number'}, got {v!r}")
    return a.astype(float) if array else float(v)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t_k = t0 + k * dt, k = 0..steps."""

    t0: float
    dt: float
    steps: int

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:  # NaN fails too
            raise InputError("dt must be positive and finite")
        if not np.isfinite(self.t0):
            raise InputError("t0 must be finite")
        object.__setattr__(self, "steps", _integer(self.steps, "steps"))
        if self.steps < 0:
            raise InputError("steps must be nonnegative")

    def times(self) -> np.ndarray:
        # accumulation-free: k * dt, not repeated addition
        return self.t0 + self.dt * np.arange(self.steps + 1)

    @property
    def horizon(self) -> float:
        return self.dt * self.steps


class InputSignal:
    """Deterministic input u(t) in R^m, with an optional derivative.

    Kinds: constant, sinusoid, piecewise_linear, callable. ``value`` and
    ``derivative`` take a time or a 1-D array of times and return a (dim,)
    row or a (len(ts), dim) array. Each call evaluates the closure once, on
    an (N, 1) column of times, so a closure must broadcast its result to
    (N, dim), as ``SystemSpec.drift`` and ``EquilibriumMap.x_star`` must
    broadcast over a leading batch axis; one that does not raises
    InputError. Piecewise-linear signals return the slope of the active
    segment and continue their end segments.
    """

    def __init__(self, kind, dim, value_fn, derivative_fn=None):
        self.kind = kind
        self.dim = int(dim)
        self._value = value_fn
        self._derivative = derivative_fn

    def value(self, t) -> np.ndarray:
        return self._eval(self._value, t)

    def derivative(self, t) -> np.ndarray:
        if self._derivative is None:
            raise CapabilityError(f"input signal of kind '{self.kind}' has no derivative")
        return self._eval(self._derivative, t)

    def values(self, ts: np.ndarray) -> np.ndarray:
        """Signal evaluated at an array of times, shape (len(ts), dim)."""
        return self.value(np.ravel(ts))

    def _eval(self, fn, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if t.ndim > 1:
            raise InputError(f"times must be a scalar or a 1-D array, got shape {t.shape}")
        res = np.asarray(fn(t.reshape(-1, 1)), dtype=float)
        try:
            out = np.broadcast_to(res, (t.size, self.dim)).copy()
        except ValueError:
            raise InputError(
                f"input signal of kind '{self.kind}' returned shape {res.shape} for {t.size} "
                f"times; expected {(t.size, self.dim)}: it must broadcast over a column of times"
            ) from None
        return out if t.ndim else out[0]

    @staticmethod
    def constant(value) -> "InputSignal":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        zero = np.zeros_like(v)
        return InputSignal("constant", v.shape[0], lambda t: v, lambda t: zero)

    @staticmethod
    def sinusoid(amplitude, omega=1.0, phase=0.0, offset=None) -> "InputSignal":
        """u(t) = offset + amplitude * sin(omega t + phase), componentwise."""
        amp = np.atleast_1d(np.asarray(amplitude, dtype=float))
        off = np.zeros_like(amp) if offset is None else np.atleast_1d(np.asarray(offset, dtype=float))
        return InputSignal("sinusoid", amp.shape[0],
                           lambda t: off + amp * np.sin(omega * t + phase),
                           lambda t: amp * omega * np.cos(omega * t + phase))

    @staticmethod
    def piecewise_linear(times, values) -> "InputSignal":
        ts = np.asarray(times, dtype=float)
        vals = np.atleast_2d(np.asarray(values, dtype=float))
        if vals.shape[0] != ts.shape[0]:
            raise InputError("piecewise-linear signal needs one value row per knot")
        if ts.shape[0] < 2 or np.any(np.diff(ts) <= 0):
            raise InputError("knot times must be strictly increasing, at least two")
        slopes = np.diff(vals, axis=0) / np.diff(ts)[:, None]

        def seg(t):
            return np.clip(np.searchsorted(ts, t[:, 0], side="right") - 1, 0, ts.shape[0] - 2)

        def val(t):
            i = seg(t)
            return vals[i] + slopes[i] * (t - ts[i, None])

        def der(t):
            return slopes[seg(t)]

        return InputSignal("piecewise_linear", vals.shape[1], val, der)

    @staticmethod
    def from_callable(value_fn, dim, derivative_fn=None) -> "InputSignal":
        return InputSignal("callable", dim, value_fn, derivative_fn)


def _row_norm_sq(D: np.ndarray) -> np.ndarray:
    """Squared 2-norm of each row of an (N, m) array, rounded as ``v @ v``
    rounds each row v; einsum and sum reductions round differently once
    m >= 2."""
    D = np.atleast_2d(D)
    return np.matmul(D[:, None, :], D[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class Certificate:
    """Constants (c, ell, sigma_x^2) with provenance."""

    c_hat: float
    ell_hat: float
    sigma_x_sq_hat: float
    method: str  # "exact-affine" | "sampled"
    sample_count: int = 0
    confidence_note: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


@dataclass(frozen=True)
class SystemSpec:
    """Input-driven SDE dx = drift(x, u) dt + dispersion(x, u) dB.

    ``drift`` and ``dispersion`` must broadcast over a leading batch axis
    (an (N, n) state block maps to (N, n) drifts); all built-in affine
    systems do. ``certificate`` carries the certified contraction rate c,
    input Lipschitz constant ell and dispersion bound sigma_x_sq.

    ``affine = (A, B)`` states that drift(x, u) = A x + B u; it requires the
    constant ``dispersion_matrix`` Sigma. The integrators then step the
    system from these matrices instead of calling the closures.
    """

    state_dim: int
    input_dim: int
    drift: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dispersion: Callable[[np.ndarray, np.ndarray], np.ndarray]
    metric: Metric
    certificate: Certificate
    noise_dim: int = 1
    dispersion_matrix: Optional[np.ndarray] = None  # set when constant in (x, u)
    lipschitz_budget: Optional[float] = None
    affine: Optional[tuple] = None  # (A, B) of an affine drift A x + B u

    def __post_init__(self):
        cert = self.certificate
        if not cert.c_hat > 0:
            raise InputError("certificate.c_hat must be a positive contraction rate")
        if cert.sigma_x_sq_hat < 0:
            raise InputError("certificate.sigma_x_sq_hat must be nonnegative")
        if cert.ell_hat < 0:
            raise InputError("certificate.ell_hat must be nonnegative")
        if self.affine is not None:
            A, B = (np.asarray(M, dtype=float) for M in self.affine)
            n, m, S = self.state_dim, self.input_dim, self.dispersion_matrix
            if (A.shape != (n, n) or B.shape != (n, m) or S is None
                    or np.shape(S) != (n, self.noise_dim)):
                raise InputError(
                    "an affine system needs A (n x n), B (n x m) and a "
                    "dispersion_matrix (n x noise_dim)"
                )
            object.__setattr__(self, "affine", (A, B))


def affine_system(A, B, Sigma, metric: Metric, lipschitz_budget=None) -> SystemSpec:
    """System with drift A x + B u and constant dispersion Sigma.

    Its certificate (``certify_affine``) is exact for affine systems: c
    from the generalized eigenvalue problem on (PA + A^T P)/2, ell as the
    induced norm of chol^T B, sigma_x_sq as trace(Sigma^T P Sigma).
    """
    from .contraction import certify_affine

    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise InputError("A must be square")
    if B.ndim != 2 or B.shape[0] != n:
        raise InputError("B must have one row per state")
    if Sigma.ndim != 2 or Sigma.shape[0] != n:
        raise InputError("Sigma must have one row per state")
    if metric.dim != n:
        raise InputError("metric dimension does not match A")
    m = B.shape[1]
    r = Sigma.shape[1]

    cert = certify_affine(A, B, Sigma, metric)
    if cert.c_hat <= 0.0:
        raise CertificationError(
            f"affine drift is not contracting in the given metric (osLip={-cert.c_hat:.6e})"
        )

    def drift(x, u):
        return x @ A.T + u @ B.T

    def dispersion(x, u):
        return Sigma

    if lipschitz_budget is None:
        lipschitz_budget = float(
            np.linalg.norm(A, 2) + np.linalg.norm(Sigma, "fro")
        )
    return SystemSpec(
        state_dim=n,
        input_dim=m,
        drift=drift,
        dispersion=dispersion,
        metric=metric,
        certificate=cert,
        noise_dim=r,
        dispersion_matrix=Sigma,
        lipschitz_budget=lipschitz_budget,
        affine=(A, B),
    )


def scalar_tracker(c: float, sigma: float, metric: Optional[Metric] = None) -> SystemSpec:
    """dx = -c (x - u) dt + sigma dB, the workhorse certified test system."""
    if metric is None:
        metric = identity_metric(1)
    return affine_system([[-c]], [[c]], [[sigma]], metric)


class EquilibriumMap:
    """Input-indexed zero of the drift: F(x_star(u), u) = 0.

    ``x_star`` must broadcast over a leading batch axis (an (N, m) input
    block maps to (N, n) equilibria), as ``SystemSpec.drift`` must; the
    ensemble estimators evaluate it on whole blocks. ``hessians(u)`` returns
    one m x m matrix per output component; it is optional and only needed
    for the Ito drift-correction constants, which otherwise take finite
    differences of ``x_star``.
    """

    def __init__(self, x_star, hessians=None, state_dim=None, input_dim=None):
        self._x_star = x_star
        self._hessians = hessians
        self.state_dim = state_dim
        self.input_dim = input_dim

    def x_star(self, u):
        return np.asarray(self._x_star(np.asarray(u, dtype=float)), dtype=float)

    @property
    def has_hessians(self) -> bool:
        return self._hessians is not None

    def hessians(self, u):
        if self._hessians is None:
            raise CapabilityError("equilibrium map has no Hessians")
        return [np.asarray(H, dtype=float) for H in self._hessians(np.asarray(u, dtype=float))]

    @staticmethod
    def affine(M, b=None) -> "EquilibriumMap":
        """x_star(u) = M u + b; Hessians zero."""
        M = np.atleast_2d(np.asarray(M, dtype=float))
        n, m = M.shape
        bvec = np.zeros(n) if b is None else np.asarray(b, dtype=float).reshape(n)
        zeros = [np.zeros((m, m)) for _ in range(n)]
        return EquilibriumMap(
            x_star=lambda u: u @ M.T + bvec,
            hessians=lambda u: zeros,
            state_dim=n,
            input_dim=m,
        )
