"""Ensemble statistics: empirical second moments of errors in the weighted
norm, standard errors, tail averages, and envelope-domination verdicts.

The estimators run scenarios checked and prepared when made
(``PairScenario`` and ``CascadeScenario`` of ``integrate``, re-exported
here): each chunk of paths is one run of the scenario's ``_blocks`` on the
one batched kernel of ``integrate``, which the single-path integrators run
on a block of one, and nothing is checked again. OU moments run the
kernel's OU input process with no system, with the exact or the Euler
coefficients. All three estimators reduce through one reducer: the squared
norms of a sub-block's (S, N, n) errors at once, then row sums over
contiguous rows, which are the same pairwise sums as summing each step
alone. Paths are independent work items: path i draws from the
counter-based stream keyed (master_seed, i) in the same order as the
single-path run of that lineage, so in one dimension the two are
bit-identical; for n >= 2 they agree to within 1e-14 relative, because BLAS
may round a matrix product differently for a different number of rows.
Ensembles run serially in fixed-size chunks, which bound the memory of
each chunk's draws; their sums are added in chunk order, so a result
depends only on the seed and the inputs. The estimators' ``n_workers``
argument is accepted and has no effect; it does not govern the helper
thread that fills a chunk's normals (``integrate._draws``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bounds import Envelope, optimize_alpha
from .core import EquilibriumMap, TimeGrid
from .errors import InputError
from .integrate import (  # noqa: F401 - the scenarios and the chunk size, importable from here
    CHUNK_SIZE,
    CascadeScenario,
    PairScenario,
    _block,
    _blocks,
    _chunks,
)
from .noise import OUParams, _ou_exact_coeffs

_MIN_PATHS = 100  # the smallest ensemble a moment estimate is taken over


@dataclass(frozen=True)
class MomentSeries:
    """Empirical mean of a squared error over an ensemble, per grid time."""

    grid: TimeGrid
    mean_sq: np.ndarray  # (steps+1,)
    std_err: np.ndarray  # (steps+1,)
    n_paths: int

    def times(self) -> np.ndarray:
        return self.grid.times()


@dataclass(frozen=True)
class Verdict:
    """Outcome of an envelope-domination check with its slack rule."""

    holds: bool
    worst_margin: float
    worst_t: float
    slack_rule: str


def _moments(grid, n_paths, blocks, norm_sq):
    """MomentSeries of the squared norms over n_paths paths, in chunks.

    ``blocks(start, count)`` yields the (k, views) runs of a chunk (see
    ``integrate._blocks``) and ``norm_sq(k, views)`` gives their
    step-major (S, N) squared norms. Each step's sums are row sums over
    contiguous rows, the same pairwise sums as summing that step's (N,)
    vector alone; each chunk's sums are added in chunk order.
    """
    if n_paths < _MIN_PATHS:
        raise InputError(f"n_paths must be >= {_MIN_PATHS}")
    total, total_sq = np.zeros(grid.steps + 1), np.zeros(grid.steps + 1)
    for start, count in _chunks(n_paths):
        for k, views in blocks(start, count):
            # as in the kernel: the squares of a diverging path may overflow
            # before its DivergenceError is raised
            with np.errstate(over="ignore", invalid="ignore"):
                sq = norm_sq(k, views)
                total[k:k + len(sq)] += sq.sum(axis=1)
                sq *= sq
                total_sq[k:k + len(sq)] += sq.sum(axis=1)
    mean = total / n_paths
    # SE of the mean from streamed sums; equals the jackknife SE for a mean
    var = np.clip(total_sq - n_paths * mean**2, 0.0, None) / max(n_paths - 1, 1)
    se = np.sqrt(var / n_paths)
    return MomentSeries(grid=grid, mean_sq=mean, std_err=se, n_paths=n_paths)


def pair_error_moment(
    scenario: PairScenario,
    n_paths: int,
    master_seed: int,
    n_workers: int = 1,
) -> MomentSeries:
    """Per-time mean and standard error of ||x_t - y_t||_P^2 over the ensemble."""
    sc = scenario
    norm_sq = lambda k, xy: sc.sys_x.metric.batch_norm_sq(xy[0] - xy[1])
    return _moments(sc.grid, n_paths, partial(sc._blocks, master_seed), norm_sq)


def _x_star_batch(eq_map: EquilibriumMap, U: np.ndarray, n: int) -> np.ndarray:
    out = eq_map.x_star(U)
    if out.shape != (U.shape[0], n):
        raise InputError(
            f"equilibrium map returned shape {out.shape} for a batch of "
            f"{U.shape[0]} inputs; expected {(U.shape[0], n)}: x_star must "
            "broadcast over a leading batch axis"
        )
    return out


def tracking_error_moment(
    scenario: CascadeScenario,
    eq_map: EquilibriumMap,
    target: str,
    n_paths: int,
    master_seed: int,
    n_workers: int = 1,
) -> MomentSeries:
    """Mean squared tracking error ||x_t - x*(v_t)||_P^2 over the ensemble.

    ``target`` selects v_t: "deterministic_curve" uses theta(t); and
    "stochastic_curve" uses the realized input u_t of each path.
    """
    if target not in ("deterministic_curve", "stochastic_curve"):
        raise InputError(f"unknown target '{target}'")
    sc = scenario
    sys, n, m = sc.sys, sc.sys.state_dim, sc.noise.dim
    dims = (eq_map.state_dim, eq_map.input_dim)
    if None not in dims and dims != (n, m):
        raise InputError(f"the equilibrium map takes {dims[1]} inputs to {dims[0]} states; "
                         f"the system has {m} inputs and {n} states")
    xstar_det = _x_star_batch(eq_map, sc._rows, n)  # (steps+1, n)

    def norm_sq(k, xu):
        x, u = xu
        if target == "deterministic_curve":
            e = x - xstar_det[k:k + len(x), None]
        else:
            e = x - _x_star_batch(eq_map, u.reshape(-1, m), n).reshape(x.shape)
        return sys.metric.batch_norm_sq(e)

    return _moments(sc.grid, n_paths, partial(sc._blocks, master_seed), norm_sq)


def ou_moment(
    p: OUParams,
    x0,
    grid: TimeGrid,
    n_paths: int,
    master_seed: int,
    method: str = "exact",
    n_workers: int = 1,
) -> MomentSeries:
    """E||x_t||_2^2 of the zero-mean OU process, exact-transition or Euler paths.

    Both step x' = decay x + std z through the kernel's input process: the
    exact transition's coefficients, or Euler's (1 - c dt, sigma sqrt(dt / m)),
    as Euler-Maruyama on OU is that linear recursion (Higham, SIAM Rev. 43(3),
    2001).
    """
    if method not in ("exact", "euler"):
        raise InputError(f"unknown method '{method}'")
    if method == "exact":
        coeffs = _ou_exact_coeffs(p, grid.dt)
    else:
        coeffs = 1.0 - p.c * grid.dt, p.sigma * math.sqrt(grid.dt / p.dim)
    theta = np.zeros((grid.steps + 1, p.dim))  # zero mean: 0 + x is x exactly

    def blocks(start, count):
        drive = (p, theta, _block(x0, p.dim, count), coeffs)
        return _blocks([], [], [], grid, master_seed, start, drive=drive)

    norm_sq = lambda k, xs: np.einsum("kbi,kbi->kb", xs[0], xs[0])
    return _moments(grid, n_paths, blocks, norm_sq)


def check_envelope(series: MomentSeries, env: Envelope, alpha_policy) -> Verdict:
    """Compare an empirical moment series against a bound with 3-SE slack
    (see ``compare_to_bound`` for points where the SE is 0).

    ``alpha_policy`` is ("fixed", alpha) or "optimized"; the optimized policy
    minimizes the tail form of the envelope (falling back to the final time
    when no tail form exists) and evaluates the resulting alpha everywhere.
    The envelope is evaluated at the time elapsed since the grid's t0.
    """
    alpha = _resolve_alpha(env, alpha_policy, series.grid)
    elapsed = series.times() - series.grid.t0
    if env.eval_grid is not None:
        bound = env.eval_grid(elapsed, alpha)
    else:
        bound = np.array([env.eval(t, alpha) for t in elapsed])
    return compare_to_bound(series, bound)


def _resolve_alpha(env: Envelope, alpha_policy, grid: TimeGrid) -> float:
    if alpha_policy == "optimized":
        target = "limsup" if env.limsup is not None else grid.horizon
        alpha, _ = optimize_alpha(env, target)
        return alpha
    try:
        tag, alpha = alpha_policy
    except (TypeError, ValueError):
        raise InputError(f"unknown alpha policy {alpha_policy!r}")
    if tag != "fixed":
        raise InputError(f"unknown alpha policy tag '{tag}'")
    return float(alpha)


_ROUNDING_ULPS = 16  # slack at zero-variance points, in ulp of the largest bound


def compare_to_bound(series: MomentSeries, bound: np.ndarray) -> Verdict:
    """Verdict for a precomputed bound array aligned with the series grid."""
    bound = np.asarray(bound, dtype=float)
    if bound.shape != series.mean_sq.shape:
        raise InputError("bound array does not match the series grid")
    # where std_err is 0 every path holds the same value (as at t = 0), so
    # only rounding separates the two sides; the envelope's floor terms
    # cancel there to within a few ulp of its largest value
    se = series.std_err
    slack = np.where(se > 0.0, 3.0 * se, _ROUNDING_ULPS * np.spacing(np.abs(bound).max()))
    ok = series.mean_sq <= bound + slack
    margins = (bound - series.mean_sq) / np.maximum(bound, 1e-12)
    i = int(np.argmin(margins))
    return Verdict(
        holds=bool(np.all(ok)),
        worst_margin=float(margins[i]),
        worst_t=float(series.times()[i]),
        slack_rule=("mean_sq <= bound + 3*std_err at every grid point; where std_err = 0, "
                    f"mean_sq <= bound + {_ROUNDING_ULPS} ulp of the largest bound"),
    )


def _tail(values, steps: int, fraction: float, min_steps: int = 10) -> np.ndarray:
    """The entries of a per-grid-time array over the final ``fraction`` of
    the horizon, from step steps - floor(fraction * steps) on: a window of
    at least ``min_steps`` steps."""
    if not (0.0 < fraction <= 1.0):
        raise InputError("fraction must lie in (0, 1]")
    start = steps - int(math.floor(fraction * steps))
    if steps - start < min_steps:
        raise InputError(f"tail window must contain at least {min_steps} steps")
    return values[start:]


def tail_average(series, fraction: float):
    """(mean, max) of the series over the final ``fraction`` of the horizon."""
    if isinstance(series, MomentSeries):
        tail = _tail(series.mean_sq, series.grid.steps, fraction)
    else:
        vals = np.asarray(series, dtype=float)
        tail = _tail(vals, vals.shape[0] - 1, fraction)
    return float(tail.mean()), float(tail.max())


def tail_standard_error(series: MomentSeries, fraction: float) -> float:
    """Conservative SE for the tail-averaged moment: max SE over the window."""
    return float(_tail(series.std_err, series.grid.steps, fraction).max())
