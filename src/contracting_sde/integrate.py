"""Trajectory generation: Euler-Maruyama for single SDEs, coupled pairs
(independent or common noise), input-noise cascades, and classical RK4 for
deterministic comparisons.

Inputs are sampled at the left endpoint of each step (explicit scheme, Ito
convention). Divergence is detected at every step so mis-specified systems
fail fast.
"""

from __future__ import annotations

import concurrent.futures
import enum
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import InputSignal, SystemSpec, TimeGrid
from .errors import ConfigError, DivergenceError, InputError
from .noise import JDParams, OUParams, RngLineage, jd_step_with_flag, ou_exact_step


class CouplingMode(enum.Enum):
    INDEPENDENT = "independent"
    COMMON = "common"


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus sampled states and inputs; states[0] is the exact x0."""

    grid: TimeGrid
    states: np.ndarray  # (steps+1, n)
    input_record: np.ndarray  # (steps+1, m)
    lineage: Optional[RngLineage] = None

    def times(self) -> np.ndarray:
        return self.grid.times()


CHUNK_SIZE = 512  # paths per chunk; fixed so results do not depend on n_workers


def _draws(master_seed, start, count, steps, width):
    """(count, steps, width) standard normals for paths start .. start+count-1.

    Path i draws from the stream keyed (master_seed, i) in step order, so its
    increments do not depend on the block it is stepped in.
    """
    out = np.empty((count, steps, width))
    gen = RngLineage(master_seed, start).stream()
    # re-keying one Philox from its fresh state gives the same stream as a
    # new one, without the entropy draw that each construction makes
    fresh = gen.bit_generator.state
    for i in range(count):
        fresh["state"]["key"] = RngLineage(master_seed, start + i).key()
        gen.bit_generator.state = fresh
        gen.standard_normal(out=out[i])
    return out


def _check_finite(x, step, start):
    """Raise DivergenceError naming the first non-finite row of the (N, n) block.

    Row i is path start + i. A non-finite entry makes the sum non-finite, so
    the rows are searched only when it is; a sum that overflows over finite
    rows finds no bad row and passes.
    """
    if math.isfinite(x.sum()):
        return
    bad = np.flatnonzero(~np.all(np.isfinite(x), axis=1))
    if bad.size:
        idx = None if start is None else start + int(bad[0])
        raise DivergenceError(
            f"non-finite state at step {step} on path {idx}", step=step, path_index=idx,
        )


def _run_chunks(worker, n_paths, n_workers):
    """worker(start, count) over fixed-size chunks of paths; results in chunk order."""
    jobs = [(s, min(CHUNK_SIZE, n_paths - s)) for s in range(0, n_paths, CHUNK_SIZE)]
    if n_workers <= 1:
        return [worker(s, c) for s, c in jobs]
    with concurrent.futures.ThreadPoolExecutor(max_workers=n_workers) as ex:
        futures = [ex.submit(worker, s, c) for s, c in jobs]
        return [f.result() for f in futures]


def _warn_step_size(sys: SystemSpec, grid: TimeGrid, stacklevel: int = 3):
    """Warn at the user's call: stacklevel 3 from a public function, 4 from a _check_*."""
    if sys.lipschitz_budget is not None and grid.dt * sys.lipschitz_budget > 0.1:
        warnings.warn(
            f"dt * L = {grid.dt * sys.lipschitz_budget:.3g} > 0.1; "
            "Euler-Maruyama may be inaccurate",
            RuntimeWarning,
            stacklevel=stacklevel,
        )


def _check_pair(sys_x: SystemSpec, sys_y: SystemSpec, mode, grid: TimeGrid):
    if mode is CouplingMode.COMMON and sys_x.noise_dim != sys_y.noise_dim:
        raise InputError("common coupling requires equal dispersion column counts")
    _warn_step_size(sys_x, grid, stacklevel=4)


def _check_cascade(noise, sys: SystemSpec, xi0, grid: TimeGrid, unsafe: bool):
    _warn_step_size(sys, grid, stacklevel=4)
    if noise.dim != sys.input_dim:
        raise InputError("noise dimension does not match system input dimension")
    if isinstance(noise, JDParams):
        u0 = np.asarray(xi0, dtype=float).reshape(noise.dim)
        if np.any(u0 <= 0.0) or np.any(u0 >= noise.a):
            raise ConfigError("JD initial input must lie inside (0, a)")
        if not (noise.feller_holds or noise.unsafe or unsafe):
            raise ConfigError(
                "JD parameters violate the boundary-nonattainment (Feller) "
                f"condition (margin {noise.feller_margin:.3g}); pass unsafe=True to override"
            )


def _diffuse(sys: SystemSpec, x, u, dB):
    """Noise increment Sigma(x, u) dB for an (N, r) block of increments."""
    if sys.dispersion_matrix is not None:
        return dB @ sys.dispersion_matrix.T
    S = np.asarray(sys.dispersion(x, u), dtype=float)
    if S.ndim == 2:
        return dB @ S.T
    return np.einsum("bnr,br->bn", S, dB)


def _em_states(sys: SystemSpec, x, inputs, dt, Z, start):
    """Yield the (N, n) block x_0, x_1, ..., x_steps of the Euler-Maruyama
    recursion x_{k+1} = x_k + F(x_k, u_k) dt + Sigma(x_k, u_k) sqrt(dt) Z_k.

    ``inputs`` yields u_0, u_1, ... (one row for all paths, or one per path);
    ``Z`` holds the (N, steps, r) standard normals.
    """
    sq_dt = math.sqrt(dt)
    yield x
    for k, u in zip(range(Z.shape[1]), inputs):
        x = x + np.asarray(sys.drift(x, u), dtype=float) * dt + _diffuse(sys, x, u, Z[:, k] * sq_dt)
        _check_finite(x, k + 1, start)
        yield x


def _pair_states(sys_x, sys_y, x0, y0, ux_path, uy_path, mode, grid, master_seed, start):
    """Yield (x_k, y_k) blocks of two recursions coupled on one noise source.

    Independent mode draws r_x + r_y normals per path-step (x block first);
    common mode drives both systems with one r-block.
    """
    r_x = sys_x.noise_dim
    width = r_x if mode is CouplingMode.COMMON else r_x + sys_y.noise_dim
    Z = _draws(master_seed, start, x0.shape[0], grid.steps, width)
    Zx, Zy = (Z, Z) if mode is CouplingMode.COMMON else (Z[:, :, :r_x], Z[:, :, r_x:])
    return zip(_em_states(sys_x, x0, ux_path, grid.dt, Zx, start),
               _em_states(sys_y, y0, uy_path, grid.dt, Zy, start))


def _input_states(noise, theta_path, xi0, grid: TimeGrid, Zu):
    """Yield the (N, m) input block u_k: theta + OU noise (exact transition)
    or the Jacobi diffusion (xi0 is then u_0)."""
    times = grid.times()
    if isinstance(noise, JDParams):
        u = xi0
        yield u
        for k in range(grid.steps):
            u, _ = jd_step_with_flag(u, noise, times[k], grid.dt, Zu[:, k])
            yield u
    else:
        xi = xi0
        yield theta_path[0] + xi
        for k in range(grid.steps):
            xi = ou_exact_step(xi, noise, grid.dt, Zu[:, k])
            yield theta_path[k + 1] + xi


def _cascade_states(noise, theta_path, sys, x0, xi0, grid, master_seed, start):
    """Yield (x_k, u_k) blocks of the input-noise cascade u_t -> x_t.

    Each path-step draws m input normals, then r state normals; x_{k+1} is
    stepped against the realized u_k.
    """
    m = noise.dim
    Z = _draws(master_seed, start, x0.shape[0], grid.steps, m + sys.noise_dim)
    drive, out = itertools.tee(_input_states(noise, theta_path, xi0, grid, Z[:, :, :m]))
    return zip(_em_states(sys, x0, drive, grid.dt, Z[:, :, m:], start), out)


def _block(v, dim, count=1):
    """``count`` copies of the vector v as a contiguous (count, dim) block."""
    return np.broadcast_to(np.asarray(v, dtype=float).reshape(dim), (count, dim)).copy()


def default_dt(c: float) -> float:
    """Step-size guidance: min(1e-3, 0.05 / c)."""
    return min(1e-3, 0.05 / c)


def euler_maruyama(
    sys: SystemSpec,
    x0,
    u: InputSignal,
    grid: TimeGrid,
    lineage: RngLineage,
) -> Trajectory:
    """x_{k+1} = x_k + F(x_k, u(t_k)) dt + Sigma(x_k, u(t_k)) dB_k."""
    _warn_step_size(sys, grid)
    inputs = u.values(grid.times())
    Z = _draws(lineage.master_seed, lineage.path_index, 1, grid.steps, sys.noise_dim)
    states = np.concatenate(list(_em_states(
        sys, _block(x0, sys.state_dim), inputs, grid.dt, Z, lineage.path_index)))
    return Trajectory(grid=grid, states=states, input_record=inputs, lineage=lineage)


def integrate_pair(
    sys_x: SystemSpec,
    sys_y: SystemSpec,
    x0,
    y0,
    u_x: InputSignal,
    u_y: InputSignal,
    mode: CouplingMode,
    grid: TimeGrid,
    lineage: RngLineage,
):
    """Couple two Euler-Maruyama recursions on one noise source.

    Independent mode draws 2r Gaussians per step (x block first); common
    mode reuses a single r block for both systems and requires equal noise
    dimension.
    """
    _check_pair(sys_x, sys_y, mode, grid)
    times = grid.times()
    ux_rec, uy_rec = u_x.values(times), u_y.values(times)
    pairs = list(_pair_states(
        sys_x, sys_y, _block(x0, sys_x.state_dim), _block(y0, sys_y.state_dim),
        ux_rec, uy_rec, mode, grid, lineage.master_seed, lineage.path_index))
    xs = np.concatenate([x for x, _ in pairs])
    ys = np.concatenate([y for _, y in pairs])
    return (
        Trajectory(grid=grid, states=xs, input_record=ux_rec, lineage=lineage),
        Trajectory(grid=grid, states=ys, input_record=uy_rec, lineage=lineage),
    )


def integrate_cascade(
    noise: Union[OUParams, JDParams],
    theta: InputSignal,
    sys: SystemSpec,
    x0,
    xi0,
    grid: TimeGrid,
    lineage: RngLineage,
    unsafe: bool = False,
):
    """Simulate the input-noise cascade u_t -> x_t.

    OU branch: u_t = theta(t) + xi_t with xi stepped by the exact Gaussian
    transition. JD branch: u_t stepped by the boundary-safe Euler scheme
    (xi0 is then the initial u_0, required inside (0, a)). The state is
    stepped by Euler-Maruyama against the realized u.

    Returns (input trajectory, state trajectory).
    """
    _check_cascade(noise, sys, xi0, grid, unsafe)
    theta_rec = theta.values(grid.times())
    pairs = list(_cascade_states(
        noise, theta_rec, sys, _block(x0, sys.state_dim), _block(xi0, noise.dim),
        grid, lineage.master_seed, lineage.path_index))
    xs = np.concatenate([x for x, _ in pairs])
    us = np.concatenate([u for _, u in pairs])
    u_traj = Trajectory(grid=grid, states=us, input_record=theta_rec, lineage=lineage)
    x_traj = Trajectory(grid=grid, states=xs, input_record=us, lineage=lineage)
    return u_traj, x_traj


def ode_rk4(F_closed, x0, grid: TimeGrid) -> Trajectory:
    """Classical fourth-order Runge-Kutta for dx/dt = F(t, x)."""
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    n = x.shape[0]
    states = np.empty((grid.steps + 1, n))
    states[0] = x
    dt = grid.dt
    times = grid.times()
    for k in range(grid.steps):
        t = times[k]
        k1 = np.atleast_1d(F_closed(t, x))
        k2 = np.atleast_1d(F_closed(t + dt / 2, x + dt / 2 * k1))
        k3 = np.atleast_1d(F_closed(t + dt / 2, x + dt / 2 * k2))
        k4 = np.atleast_1d(F_closed(t + dt, x + dt * k3))
        x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        _check_finite(x[None], k + 1, None)
        states[k + 1] = x
    return Trajectory(grid=grid, states=states, input_record=np.zeros((grid.steps + 1, 0)))
