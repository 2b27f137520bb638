"""Ensemble statistics: empirical second moments of errors in the weighted
norm, standard errors, tail averages, and envelope-domination verdicts.

Paths are independent work items keyed by (master_seed, path_index). Every
ensemble steps through the batched kernels of ``integrate`` that the
single-path integrators also run, on a block of one, and each path's
Gaussian draws come from its own counter-based stream in the same order.
In one dimension an ensemble path is therefore bit-identical to the
single-path run of the same lineage; for n >= 2 the two agree to rounding
(about 1e-16 relative), because BLAS may round a matrix product
differently for a different number of rows. Ensembles are processed in
fixed-size chunks whose partial sums are merged in chunk order, which makes
results independent of the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .bounds import Envelope, optimize_alpha
from .core import EquilibriumMap, InputSignal, SystemSpec, TimeGrid
from .errors import DivergenceError, InputError
from .integrate import (
    CHUNK_SIZE,  # noqa: F401 - the ensembles' chunk size, importable from here
    CouplingMode,
    _block,
    _cascade_states,
    _check_cascade,
    _check_pair,
    _draws,
    _pair_states,
    _run_chunks,
)
from .noise import JDParams, OUParams, _ou_exact_coeffs

_OU_STEP_BLOCK = 128  # steps per block in ou_moment


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


@dataclass(frozen=True)
class PairScenario:
    """Two coupled systems driven by possibly different inputs."""

    sys_x: SystemSpec
    sys_y: SystemSpec
    x0: np.ndarray
    y0: np.ndarray
    u_x: InputSignal
    u_y: InputSignal
    mode: CouplingMode
    grid: TimeGrid


@dataclass(frozen=True)
class CascadeScenario:
    """Input-noise process (OU or JD) feeding a contracting system.

    For OU noise ``xi0`` is the initial input-noise state; for JD it is the
    initial input u_0 in (0, a).
    """

    noise: Union[OUParams, JDParams]
    theta: InputSignal
    sys: SystemSpec
    x0: np.ndarray
    xi0: np.ndarray
    grid: TimeGrid
    unsafe: bool = False


def _moment_sums(errors, steps):
    """Per-step (sum, sum of squares) of one chunk's squared errors."""
    ps = np.zeros(steps + 1)
    pq = np.zeros(steps + 1)
    for k, e in enumerate(errors):
        ps[k], pq[k] = e.sum(), (e**2).sum()
    return ps, pq


def _finalize(grid, partials, n_paths):
    total = np.zeros(grid.steps + 1)
    total_sq = np.zeros(grid.steps + 1)
    for ps, pq in partials:
        total += ps
        total_sq += pq
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
    debug_guard: Optional[Callable[[float], float]] = None,
) -> MomentSeries:
    """Per-time mean and standard error of ||x_t - y_t||_P^2 over the ensemble."""
    if n_paths < 100:
        raise InputError("n_paths must be >= 100")
    sc = scenario
    _check_pair(sc.sys_x, sc.sys_y, sc.mode, sc.grid)
    grid = sc.grid
    metric = sc.sys_x.metric
    times = grid.times()
    ux_path = sc.u_x.values(times)
    uy_path = sc.u_y.values(times)

    def errors(states, start):
        for k, (x, y) in enumerate(states):
            if debug_guard is not None and k > 0:
                _apply_guard(x, times[k], debug_guard, start, k)
            yield metric.batch_norm_sq(x - y)

    def worker(start, count):
        states = _pair_states(
            sc.sys_x, sc.sys_y, _block(sc.x0, sc.sys_x.state_dim, count),
            _block(sc.y0, sc.sys_y.state_dim, count), ux_path, uy_path, sc.mode, grid,
            master_seed, start)
        return _moment_sums(errors(states, start), grid.steps)

    return _finalize(grid, _run_chunks(worker, n_paths, n_workers), n_paths)


def _apply_guard(x, t, guard, chunk_start, step):
    sq = np.einsum("bi,bi->b", x, x)
    bad = sq > guard(t)
    if np.any(bad):
        idx = chunk_start + int(np.flatnonzero(bad)[0])
        raise DivergenceError(
            f"path {idx} escaped the moment guard at step {step}",
            step=step, path_index=idx,
        )


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
    if n_paths < 100:
        raise InputError("n_paths must be >= 100")
    sc = scenario
    grid, sys, noise = sc.grid, sc.sys, sc.noise
    _check_cascade(noise, sys, sc.xi0, grid, sc.unsafe)
    metric = sys.metric
    n = sys.state_dim
    theta_path = sc.theta.values(grid.times())
    xstar_det = _x_star_batch(eq_map, theta_path, n)  # (steps+1, n)

    def worker(start, count):
        states = _cascade_states(
            noise, theta_path, sys, _block(sc.x0, n, count), _block(sc.xi0, noise.dim, count),
            grid, master_seed, start)
        if target == "deterministic_curve":
            errs = (metric.batch_norm_sq(x - xstar_det[k]) for k, (x, _) in enumerate(states))
        else:
            errs = (metric.batch_norm_sq(x - _x_star_batch(eq_map, u, n)) for x, u in states)
        return _moment_sums(errs, grid.steps)

    return _finalize(grid, _run_chunks(worker, n_paths, n_workers), n_paths)


def ou_moment(
    p: OUParams,
    x0,
    grid: TimeGrid,
    n_paths: int,
    master_seed: int,
    method: str = "exact",
    n_workers: int = 1,
) -> MomentSeries:
    """E||x_t||_2^2 of the zero-mean OU process, exact-transition or Euler paths."""
    if method not in ("exact", "euler"):
        raise InputError(f"unknown method '{method}'")
    if n_paths < 100:
        raise InputError("n_paths must be >= 100")
    decay, std = _ou_exact_coeffs(p, grid.dt)
    scale = p.sigma / math.sqrt(p.dim)
    exact = method == "exact"

    def worker(start, count):
        ps, pq = np.empty(grid.steps + 1), np.empty(grid.steps + 1)

        def reduce(states, k):
            sq = np.einsum("kbi,kbi->kb", states, states)
            ps[k:k + len(sq)] = sq.sum(axis=1)
            sq *= sq
            pq[k:k + len(sq)] = sq.sum(axis=1)

        # step-major blocks of states and noise terms, small enough to stay
        # in cache, within each draw block; X[0] holds the last state of the
        # previous block
        X = np.empty((_OU_STEP_BLOCK + 1, count, p.dim))
        W = np.empty((_OU_STEP_BLOCK, count, p.dim))
        X[0] = _block(x0, p.dim, count)
        reduce(X[:1], 0)
        k0 = 0
        for Z in _draws(master_seed, start, count, grid.steps, p.dim):
            for j0 in range(0, Z.shape[1], _OU_STEP_BLOCK):
                n = min(_OU_STEP_BLOCK, Z.shape[1] - j0)
                w = W[:n]
                np.multiply(Z[:, j0:j0 + n].transpose(1, 0, 2), std if exact else scale, out=w)
                if not exact:
                    w *= math.sqrt(grid.dt)
                for j in range(n):
                    x, nx = X[j], X[j + 1]
                    if exact:
                        np.multiply(x, decay, out=nx)
                    else:  # x - c x dt, without temporaries
                        np.multiply(x, p.c, out=nx)
                        nx *= grid.dt
                        np.subtract(x, nx, out=nx)
                    nx += w[j]
                reduce(X[1:n + 1], k0 + 1)
                X[0] = X[n]
                k0 += n
        return ps, pq

    return _finalize(grid, _run_chunks(worker, n_paths, n_workers), n_paths)


def check_envelope(series: MomentSeries, env: Envelope, alpha_policy) -> Verdict:
    """Compare an empirical moment series against a bound with 3-SE slack.

    ``alpha_policy`` is ("fixed", alpha) or "optimized"; the optimized policy
    minimizes the tail form of the envelope (falling back to the final time
    when no tail form exists) and evaluates the resulting alpha everywhere.
    """
    alpha = _resolve_alpha(env, alpha_policy, series.grid)
    times = series.times()
    if env.eval_grid is not None and times.shape[0] > 1 and times[0] == 0.0:
        bound = env.eval_grid(times, alpha)
    else:
        bound = np.array([env.eval(t, alpha) for t in times])
    return compare_to_bound(series, bound)


def _resolve_alpha(env: Envelope, alpha_policy, grid: TimeGrid) -> float:
    if alpha_policy == "optimized":
        target = "limsup" if env.limsup is not None else grid.t0 + grid.horizon
        alpha, _ = optimize_alpha(env, target)
        return alpha
    try:
        tag, alpha = alpha_policy
    except (TypeError, ValueError):
        raise InputError(f"unknown alpha policy {alpha_policy!r}")
    if tag != "fixed":
        raise InputError(f"unknown alpha policy tag '{tag}'")
    return float(alpha)


def compare_to_bound(series: MomentSeries, bound: np.ndarray) -> Verdict:
    """Verdict for a precomputed bound array aligned with the series grid."""
    bound = np.asarray(bound, dtype=float)
    if bound.shape != series.mean_sq.shape:
        raise InputError("bound array does not match the series grid")
    slack = 3.0 * series.std_err
    ok = series.mean_sq <= bound + slack
    margins = (bound - series.mean_sq) / np.maximum(bound, 1e-12)
    i = int(np.argmin(margins))
    return Verdict(
        holds=bool(np.all(ok)),
        worst_margin=float(margins[i]),
        worst_t=float(series.times()[i]),
        slack_rule="mean_sq <= bound + 3*std_err at every grid point",
    )


def tail_average(series, fraction: float):
    """(mean, max) of the series over the final ``fraction`` of the horizon."""
    if not (0.0 < fraction <= 1.0):
        raise InputError("fraction must lie in (0, 1]")
    if isinstance(series, MomentSeries):
        vals = series.mean_sq
        steps = series.grid.steps
    else:
        vals = np.asarray(series, dtype=float)
        steps = vals.shape[0] - 1
    start = steps - int(math.floor(fraction * steps))
    if steps - start < 10:
        raise InputError("tail window must contain at least 10 steps")
    tail = vals[start:]
    return float(tail.mean()), float(tail.max())


def tail_standard_error(series: MomentSeries, fraction: float) -> float:
    """Conservative SE for the tail-averaged moment: max SE over the window."""
    if not (0.0 < fraction <= 1.0):
        raise InputError("fraction must lie in (0, 1]")
    steps = series.grid.steps
    start = steps - int(math.floor(fraction * steps))
    if steps - start < 10:
        raise InputError("tail window must contain at least 10 steps")
    return float(series.std_err[start:].max())


def moment_growth_guard(L: float, x0) -> Callable[[float], float]:
    """Coarse a-priori second-moment envelope (1 + ||x0||^2) e^{(1+L) t} used
    as a hard per-path guard in debug runs."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    base = 1.0 + float(x0 @ x0)
    # per-path guard: allow a generous multiple of the mean bound
    return lambda t: 400.0 * base * math.exp((1.0 + L) * t)
