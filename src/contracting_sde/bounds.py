"""Closed-form mean-square error envelopes.

``make_envelope(kind, params)`` is the one way to evaluate an envelope.
Every envelope is a function of time t and the Young-inequality split
alpha in (0, 1): an exponential-decay term on the initial error, a noise
floor, and convolved input terms. Each kind is one list of terms
(constants, exponentials, exact exponential convolutions, and convolutions
against a user-supplied driving signal), summed by one evaluator.

The entry point, never the times, picks the quadrature of the signal
convolutions: ``Envelope.eval`` uses composite Simpson at its time with
refinement doubling (1e-8 relative change, capped), ``Envelope.eval_grid``
an exponential-trapezoid recursion of matching O(h^2) accuracy in one pass
over a uniform grid.

The tail (t -> infinity) form of an envelope is the limit of its term
list: the driving signal is replaced by its limsup, which gives the signal
convolutions their closed forms, and the constant terms are summed, since
every exponential term decays to 0. For time-varying data callers supply
the limsup as a scalar (operationally: the max over a tail window of the
horizon).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .errors import InputError

ALPHA_EPS = 1e-4
_QUAD_TOL = 1e-8
_QUAD_DOUBLINGS = 6
_QUAD_N0 = 64


def _as_fn(v) -> Callable[[np.ndarray], np.ndarray]:
    if callable(v):
        return lambda ts: np.asarray(v(ts), dtype=float)
    return lambda ts: np.full_like(np.asarray(ts, dtype=float), float(v))


@dataclass(frozen=True)
class BoundParams:
    """Constants and driving-signal data shared by all envelopes.

    ``theta_dot_sq`` and ``input_gap_sq`` accept either a scalar (constant
    in time, doubling as the tail value) or a vectorized callable of time;
    for callables the tail value must be supplied explicitly through the
    ``*_limsup`` field for the tail forms to be defined.
    """

    c: float
    ell: float = 0.0
    sigma_x_sq: float = 0.0
    sigma_xi_sq: float = 0.0  # OU input-noise variance parameter
    sigma_u_sq: float = 0.0  # JD input-noise variance parameter
    a_norm_sq: float = 0.0  # ||a||_2^2 of the JD box
    h_ou: float = 0.0
    h_jd: float = 0.0
    E0: float = 0.0  # initial expected squared error
    Exi0: float = 0.0  # E||xi_0||^2, or E||u_0 - theta(0)||^2 in the JD case
    theta_dot_sq: Union[float, Callable] = 0.0
    input_gap_sq: Union[float, Callable] = 0.0
    theta_dot_sq_limsup: Optional[float] = None
    input_gap_sq_limsup: Optional[float] = None

    def __post_init__(self):
        # a NaN constant gives a NaN envelope, and c = inf an envelope of 0
        for name, v in vars(self).items():
            if v is not None and not callable(v) and not 0.0 <= v < math.inf:
                raise InputError(f"{name} must be finite and nonnegative, got {v}")
        if self.c == 0:
            raise InputError("c must be positive")

    def theta_dot_sq_tail(self) -> float:
        return self._tail("theta_dot_sq")

    def input_gap_sq_tail(self) -> float:
        return self._tail("input_gap_sq")

    def _tail(self, datum: str) -> float:
        limsup = getattr(self, datum + "_limsup")
        if limsup is not None:
            return float(limsup)
        if callable(getattr(self, datum)):
            raise InputError(f"tail value of {datum} not supplied")
        return float(getattr(self, datum))


def _check_alpha(alpha, lo: float = 0.0):
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")
    if alpha < lo:
        raise InputError(f"tail form requires alpha in [{lo}, 1), got {alpha}")


def _check_times(t):
    """InputError unless every time in t is finite and >= 0: an envelope
    bounds the error at a time elapsed since the start."""
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0.0) & (t < np.inf)):  # NaN fails too
        raise InputError(f"envelope times must be finite and >= 0, got {t}")


# ---------------------------------------------------------------------------
# Quadrature primitives


def _simpson(vals: np.ndarray, h: float) -> float:
    n = vals.shape[0] - 1  # number of intervals, even
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * (w @ vals))


def _decay_simpson(values, rate: float, t: float) -> float:
    """integral_0^t e^{-rate (t - tau)} v(tau) d tau by composite Simpson,
    doubling the intervals until the relative change is below _QUAD_TOL
    (at most _QUAD_DOUBLINGS times); ``values(taus, h)`` gives v on the
    nodes taus of spacing h."""
    if t <= 0.0:
        return 0.0

    def eval_with(n):
        taus = np.linspace(0.0, t, n + 1)
        vals = np.exp(-rate * (t - taus)) * values(taus, t / n)
        return _simpson(vals, t / n)

    n = _QUAD_N0
    val = eval_with(n)
    for _ in range(_QUAD_DOUBLINGS):
        n *= 2
        new = eval_with(n)
        if abs(new - val) <= _QUAD_TOL * max(1.0, abs(new)):
            return new
        val = new
    return val


def decay_convolution(g, rate: float, t: float) -> float:
    """integral_0^t e^{-rate (t - tau)} g(tau) d tau by adaptive composite Simpson."""
    gf = _as_fn(g)
    return _decay_simpson(lambda taus, h: gf(taus), rate, t)


def double_decay_convolution(g, outer_rate: float, inner_rate: float, t: float) -> float:
    """integral_0^t e^{-outer (t-tau)} integral_0^tau e^{-inner (tau-r)} g(r) dr dtau."""
    gf = _as_fn(g)
    return _decay_simpson(lambda taus, h: _conv_grid_values(gf(taus), inner_rate, h),
                          outer_rate, t)


def _conv_grid_values(gv: np.ndarray, rate: float, h: float) -> np.ndarray:
    """integral_0^{t_k} e^{-rate (t_k - tau)} g(tau) d tau at every grid node.

    Exponential-trapezoid recursion: O(h^2) accurate, one pass.
    """
    out = np.empty_like(gv)
    out[0] = 0.0
    decay = math.exp(-rate * h)
    half = 0.5 * h
    for k in range(gv.shape[0] - 1):
        out[k + 1] = decay * out[k] + half * (decay * gv[k] + gv[k + 1])
    return out


def _expconv(r_out: float, r_in: float, t):
    """integral_0^t e^{-r_out (t - tau)} e^{-r_in tau} d tau, exact; t may be an array."""
    d = r_out - r_in
    if abs(d) < 1e-9 * max(abs(r_out), 1.0):
        return t * np.exp(-r_out * t)
    return (np.exp(-r_in * t) - np.exp(-r_out * t)) / d


# ---------------------------------------------------------------------------
# Term lists
#
# Each envelope is a list of terms:
#   ("const", v)                    -> v
#   ("exp", v, r)                   -> v * e^{-r t}
#   ("expconv", v, r_out, r_in)     -> v * integral e^{-r_out(t-tau)} e^{-r_in tau}
#   ("conv", v, r, g)               -> v * integral e^{-r (t-tau)} g(tau)
#   ("dblconv", v, r_out, r_in, g)  -> v * nested double convolution of g


def _floor(coef, rate):
    # coef * (1 - e^{-rate t})
    return [("const", coef), ("exp", -coef, rate)]


def _conv_term(coef, rate, g):
    # coef * integral e^{-rate (t-tau)} g(tau); closed form for constant g
    if callable(g):
        return [("conv", coef, rate, g)]
    return _floor(coef * float(g) / rate, rate)


def _dblconv_term(coef, r_out, r_in, g):
    # nested double convolution; closed form for constant g, where the inner
    # integral is (g / r_in) (1 - e^{-r_in tau})
    if callable(g):
        return [("dblconv", coef, r_out, r_in, g)]
    v = coef * float(g) / r_in
    return _floor(v / r_out, r_out) + [("expconv", -v, r_out, r_in)]


# two independently noised realizations, E||x_t - y_t||_P^2; against the
# noiseless trajectory (niss_vs_ode) the noise floor halves
def _terms_niss(p: BoundParams, alpha: float, floor_div: int = 1):
    c = p.c
    return (
        [("exp", p.E0, 2 * c * alpha)]
        + _floor(p.sigma_x_sq / (floor_div * c * alpha), 2 * c * alpha)
        + _conv_term(p.ell**2 / (2 * c * (1 - alpha)), 2 * c * alpha, p.input_gap_sq)
    )


# tracking error under a deterministic input curve
def _terms_track_didc(p: BoundParams, alpha: float):
    c = p.c
    return (
        [("exp", p.E0, 2 * c * alpha)]
        + _floor(p.sigma_x_sq / (2 * c * alpha), 2 * c * alpha)
        + _conv_term(p.ell**2 / (2 * c**3 * (1 - alpha)), 2 * c * alpha, p.theta_dot_sq)
    )


# OU stochastic input, tracking the deterministic curve: the cascade halves
# the decay rate to c*alpha and doubles the system noise floor relative to
# the deterministic-input envelope
def _terms_track_ou_sidc(p: BoundParams, alpha: float):
    c = p.c
    return (
        [("exp", p.E0 + p.ell**2 / c**2 * p.Exi0, c * alpha)]
        + _floor(p.sigma_x_sq / (c * alpha), c * alpha)
        + _floor(p.ell**2 / c**2 * p.sigma_xi_sq / (c * alpha), c * alpha)
        + _conv_term(p.ell**2 / (c**3 * (1 - alpha)), c * alpha, p.theta_dot_sq)
    )


# OU stochastic input, tracking the stochastic curve x*(u_t)
def _terms_track_ou_sisc(p: BoundParams, alpha: float):
    c = p.c
    ra = 2 * c * alpha
    floor_coef = (1.0 / alpha) * (
        p.ell**2 / c**2 * p.sigma_xi_sq / (2 * c)
        + p.h_ou**2 / 2 * p.sigma_xi_sq**2 / (4 * c**2 * (1 - alpha))
    )
    bracket = p.ell**2 / (1 - alpha) * p.sigma_xi_sq / (2 * c**3)
    return (
        [("exp", p.E0, ra)]
        + _floor(p.sigma_x_sq / (2 * c * alpha), ra)
        + _conv_term(2 * p.ell**2 / (c**3 * (1 - alpha)), ra, p.theta_dot_sq)
        + [("exp", p.ell**2 / (2 * c**2 * (1 - alpha) ** 2) * p.Exi0, ra),
           ("exp", -p.ell**2 / (2 * c**2 * (1 - alpha) ** 2) * p.Exi0, 2 * c)]
        + _floor(floor_coef, ra)
        + [("const", bracket / alpha),
           ("exp", -bracket / (alpha * (1 - alpha)), ra),
           ("exp", bracket / (1 - alpha), 2 * c)]
    )


# JD stochastic input, tracking the deterministic curve: the OU form with
# the input-noise variance capped by the box, (|a|^2 / 4) sigma_u^2
def _terms_track_jd_sidc(p: BoundParams, alpha: float):
    c = p.c
    return (
        [("exp", p.E0 + p.ell**2 / c**2 * p.Exi0, c * alpha)]
        + _floor(p.sigma_x_sq / (c * alpha), c * alpha)
        + _floor(p.ell**2 / c**2 * (p.a_norm_sq / 4) * p.sigma_u_sq / (c * alpha), c * alpha)
        + _conv_term(p.ell**2 / (c**3 * (1 - alpha)), c * alpha, p.theta_dot_sq)
    )


# JD stochastic input, tracking the stochastic curve x*(u_t)
def _terms_track_jd_sisc(p: BoundParams, alpha: float):
    c = p.c
    ra = 2 * c * alpha
    floor_coef = (1.0 / alpha) * (
        p.ell**2 / c**2 * (3 * p.a_norm_sq / 4) * p.sigma_u_sq / (2 * c)
        + p.h_jd**2 / 2 * p.sigma_u_sq**2 / (4 * c**2 * (1 - alpha))
    )
    relax = p.ell**2 / (c * (1 - alpha)) * (p.a_norm_sq / 4) * (p.sigma_u_sq / c)
    return (
        [("exp", p.E0, ra)]
        + _floor(p.sigma_x_sq / (2 * c * alpha), ra)
        + _dblconv_term(p.ell**2 / (c**2 * (1 - alpha)), ra, c, p.theta_dot_sq)
        + [("expconv", p.ell**2 / (c * (1 - alpha)) * p.Exi0, ra, c)]
        + _floor(floor_coef, ra)
        # relax * integral e^{-ra (t-tau)} (1 - e^{-c tau}) d tau
        + _floor(relax / ra, ra)
        + [("expconv", -relax, ra, c)]
    )


_TERM_BUILDERS = {
    "niss_two_traj": _terms_niss,
    "niss_vs_ode": lambda p, alpha: _terms_niss(p, alpha, floor_div=2),
    "track_didc": _terms_track_didc,
    "track_ou_sidc": _terms_track_ou_sidc,
    "track_ou_sisc": _terms_track_ou_sisc,
    "track_jd_sidc": _terms_track_jd_sidc,
    "track_jd_sisc": _terms_track_jd_sisc,
}

# the tail of the JD stochastic-curve envelope holds only for alpha >= 1/2;
# every finite-time form holds on all of (0, 1)
_TAIL_ALPHA_MIN = {"track_jd_sisc": 0.5}


def _eval_terms(terms, t, conv):
    """The sum of a term list at t, a time or an array of times, clamped at
    0; ``conv(g, *rates)`` is the quadrature of the (nested) signal terms."""
    total = 0.0
    for tag, v, *rest in terms:
        if tag == "const":
            total = total + v
        elif tag == "exp":
            total = total + v * np.exp(-rest[0] * t)
        elif tag == "expconv":
            total = total + v * _expconv(rest[0], rest[1], t)
        else:  # conv, dblconv: the rates, then the signal
            total = total + v * conv(rest[-1], *rest[:-1])
    # the envelopes are nonnegative; clamp away cancellation residue
    return np.maximum(total, 0.0)


# ---------------------------------------------------------------------------
# Envelope objects and alpha optimization


@dataclass(frozen=True)
class Envelope:
    """Callable upper bound on an expected squared error.

    ``eval(t, alpha)`` is the finite-time formula; ``limsup(alpha)`` is the
    tail form (None when the tail value of the driving data is unknown);
    ``eval_grid(times, alpha)`` evaluates the bound over a uniform grid
    starting at 0, of one or more times, in a single O(N) pass. Times are
    elapsed times: a negative or non-finite one is an InputError.
    """

    eval: Callable[[float, float], float]
    limsup: Optional[Callable[[float], float]] = None
    kind: str = ""
    eval_grid: Optional[Callable] = None


def make_envelope(kind: str, params: BoundParams) -> Envelope:
    """Bind an envelope kind to a parameter set. Each kind bounds an
    expected squared error:

    - ``niss_two_traj``: between two independently noised realizations;
    - ``niss_vs_ode``: between a noisy realization and the noiseless one;
    - ``track_didc``: from x*(theta_t), for a deterministic input curve;
    - ``track_ou_sidc`` / ``track_ou_sisc``: under OU input noise, from the
      deterministic curve x*(theta_t) / the stochastic curve x*(u_t);
    - ``track_jd_sidc`` / ``track_jd_sisc``: the same under a bounded
      Jacobi-type input diffusion; the ``track_jd_sisc`` tail holds only
      for alpha >= 1/2.
    """
    if kind not in _TERM_BUILDERS:
        raise InputError(f"unknown envelope kind '{kind}'")
    build = _TERM_BUILDERS[kind]

    def at_time(t, alpha):
        _check_alpha(alpha)
        _check_times(t)
        conv = lambda g, *rates: (decay_convolution if len(rates) == 1
                                  else double_decay_convolution)(g, *rates, t)
        return float(_eval_terms(build(params, alpha), t, conv))

    def on_grid(times, alpha):
        _check_alpha(alpha)
        times = np.asarray(times, dtype=float)
        _check_times(times)
        h = times[1] - times[0] if times.shape[0] > 1 else 0.0
        uneven = np.any(np.abs(np.diff(times) - h) > 1e-9 * h)
        if times.shape[0] == 0 or times[0] != 0.0 or uneven:
            raise InputError("grid evaluation needs a uniform grid starting at 0")

        def conv(g, *rates):
            vals = _as_fn(g)(times)
            for rate in reversed(rates):  # innermost first
                vals = _conv_grid_values(vals, rate, h)
            return vals
        return _eval_terms(build(params, alpha), times, conv)

    # the tail: the term list's consts, with the driving signal at its tail
    datum = "theta_dot_sq" if kind.startswith("track") else "input_gap_sq"
    try:
        tail_params = replace(params, **{datum: params._tail(datum)})
    except InputError:  # a callable signal without its limsup
        limsup = None
    else:
        def limsup(alpha):
            _check_alpha(alpha, _TAIL_ALPHA_MIN.get(kind, 0.0))
            return sum(v for tag, v, *_ in build(tail_params, alpha) if tag == "const")
    return Envelope(eval=at_time, limsup=limsup, kind=kind, eval_grid=on_grid)


def optimize_alpha(env: Envelope, t_or_limsup="limsup"):
    """Minimize the envelope over alpha by grid scan plus golden-section refine.

    ``t_or_limsup`` is either the string "limsup" (minimize the tail form)
    or a finite time t. Returns (alpha_star, value); the value never
    exceeds the coarse 201-point grid minimum.
    """
    if t_or_limsup == "limsup":
        if env.limsup is None:
            raise InputError("envelope has no tail form to optimize")
        lo = max(_TAIL_ALPHA_MIN.get(env.kind, 0.0), ALPHA_EPS)
        f = env.limsup
    else:
        if not (isinstance(t_or_limsup, numbers.Real) and 0.0 <= t_or_limsup < math.inf):
            raise InputError(f"t_or_limsup must be 'limsup' or a finite t >= 0, "
                             f"got {t_or_limsup!r}")
        t = float(t_or_limsup)
        lo = ALPHA_EPS
        f = lambda a: env.eval(t, a)
    hi = 1.0 - ALPHA_EPS

    grid = np.linspace(lo, hi, 201)
    vals = np.array([f(a) for a in grid])
    finite = np.isfinite(vals)
    if not np.any(finite):
        raise InputError("envelope not finite anywhere on the alpha grid")
    i = int(np.nanargmin(np.where(finite, vals, np.inf)))
    a_lo = grid[max(i - 1, 0)]
    a_hi = grid[min(i + 1, grid.shape[0] - 1)]
    a_star, v_star = _golden_section(f, a_lo, a_hi)
    if vals[i] < v_star:
        return float(grid[i]), float(vals[i])
    return float(a_star), float(v_star)


def _golden_section(f, lo, hi, tol=1e-10, max_iter=200):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    return xm, f(xm)
