"""Trajectory generation: Euler-Maruyama for single SDEs, coupled pairs
(independent or common noise), input-noise cascades, and classical RK4 for
deterministic comparisons.

A pair or a cascade is checked and prepared once, when its ``PairScenario``
or ``CascadeScenario`` is made: dimensions, coupling mode, a Jacobi input's
theta, start and Feller condition, and the dt * L warning; it keeps its
input rows on the grid. Every run of it, one path of ``integrate_pair`` or
``integrate_cascade`` or a chunk of a ``montecarlo`` ensemble, runs its
``_blocks`` and checks nothing again.

Inputs are sampled at the left endpoint of each step (explicit scheme, Ito
convention). Every trajectory steps through one batched kernel,
``_blocks``: single paths on a block of one row, ensembles and W_p clouds
on chunks of paths. All systems of a run, one or the two of a pair, step
as one stacked stepper on one step-major (S + 1, K, N, n) block of
states, its buffers holding S + 1 = min(``_STEP_BLOCK``, steps) + 1 rows
so that they stay in cache and a short run builds no more than it uses.
Within each time block of draws it works on sub-blocks of S steps. For
a system given as data, ``SystemSpec.affine = (A, B)`` with its
``dispersion_matrix`` Sigma, the noise terms (Z sqrt(dt)) Sigma^T of a
sub-block are one matrix product per system; the input terms u_k B^T are
computed once per chunk for inputs shared by all paths, or per sub-block
for OU and Jacobi input noise, stepped first (Jacobi by ``_jd_step``
toward the cascade's one theta); and the states are stepped in place, five
calls per step for the whole pair: one product by the stacked A^T (a
scalar per system when each A is d I), then + u B^T, * dt, + x and
+ Sigma dB. Other systems call their drift and dispersion closures per
step on their own slice of the stack. An OU input process run with no
system is the OU ensemble of ``montecarlo.ou_moment``: its one recursion
xi' = decay xi + std z takes the exact transition's coefficients or
Euler's. Finiteness is checked once per sub-block: the finite steps are
handed on, then DivergenceError names the first non-finite step and
path, x before y.

The normals of a chunk come from ``_draws`` in time blocks. When a block
holds at least _SPLIT_FILL normals per path of two or more paths and the
process may run on two or more CPUs, DRAW_BLOCK_BYTES is split into two
buffers of half the size, and the rows of each block are shared between
the calling thread and one helper thread with its own generator, which
also fills the next block into the other buffer while the stepper
consumes this one; closing the draws joins the helper. Row i is path i's
stream in step order whichever thread fills it, so every draw, and every
result, is the same as on one thread.

The order of operations is that of x + F(x, u) dt + Sigma dB, so in one
dimension every result is bit-identical to stepping the closures one step
at a time; for n >= 2 the two agree to within 1e-14 relative, as a
matrix product may round differently for another number of rows.
"""

from __future__ import annotations

import enum
import math
import os
import threading
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import InputSignal, SystemSpec, TimeGrid
from .errors import ConfigError, DivergenceError, InputError
from .noise import JDParams, OUParams, RngLineage, _jd_step, _ou_exact_coeffs, feller_check


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


CHUNK_SIZE = 512  # paths per chunk: bounds a chunk's draw memory and fixes the merge order


_STEP_BLOCK = 128  # steps per sub-block; a chunk's step-major buffers stay in cache


DRAW_BLOCK_BYTES = 16 << 20  # bound on one chunk's buffers of normals, whatever the horizon


_SPLIT_FILL = 1024  # normals per path and block below which a chunk is filled on one thread


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _draws(master_seed, start, count, steps, width):
    """Yield the (count, steps, width) standard normals of paths
    start .. start+count-1 as consecutive time blocks (count, n, width) of
    equal n, the last one possibly shorter.

    Path i draws from the stream keyed (master_seed, i) in step order; its
    stream is paused between blocks and resumed from the saved state, so
    the blocks concatenate to one ``standard_normal((steps, width))`` call
    per path and a path's increments do not depend on the block it is
    stepped in, nor on the thread that filled it. Every block is a view of
    a buffer reused in turn, valid until the next block is drawn; all
    buffers together hold at most DRAW_BLOCK_BYTES.

    With two or more CPUs, two or more paths and at least _SPLIT_FILL
    normals per path and block, the budget is split into two buffers and
    each block is filled by the calling thread and one helper thread, each
    with its own generator, claiming rows from one shared iterator under a
    lock. Block 0 is filled by both; before block b is yielded a helper
    starts filling block b + 1 into the other buffer, and the caller joins
    in when it asks for that block. On close the rows left are claimed and
    the helper is joined, so no thread outlives the generator. A shorter
    fill stays on one thread and one buffer: saving and restoring a
    stream's state under the interpreter lock would cost more than the
    fill that is shared.
    """
    # row i is RngLineage(master_seed, start + i).key(); the index wraps past 2^64 as there
    keys = np.full((count, 2), master_seed % (1 << 64), np.uint64)
    keys[:, 1] = np.arange(count, dtype=np.uint64) + np.uint64(start % (1 << 64))
    paused = [None] * count

    def span(budget):
        return max(1, min(steps, budget // (8 * count * max(width, 1)) - 1))

    split = count > 1 and span(DRAW_BLOCK_BYTES // 2) * width >= _SPLIT_FILL and _cpus() > 1
    n = span(DRAW_BLOCK_BYTES // 2 if split else DRAW_BLOCK_BYTES)
    starts = range(0, steps, n)
    # a buffer holds its first and longest block; an odd row length keeps
    # path rows from sitting a power-of-two stride apart, where the strided
    # per-step reads would alias in the cache
    bufs = [np.empty((count, min(n, steps - k0) | 1, width)) for k0 in starts[:1 + split]]

    def filler():
        """fill(rows, k0): draw the given rows of the block at step k0."""
        gen = RngLineage(master_seed, start).stream()
        # re-keying one Philox from its fresh state gives the same stream as
        # a new one, without the entropy draw that each construction makes
        fresh = gen.bit_generator.state

        def fill(rows, k0):
            block = bufs[k0 // n % len(bufs)][:, :min(n, steps - k0)]
            for i in rows:
                if k0 == 0:
                    fresh["state"]["key"] = keys[i]
                    gen.bit_generator.state = fresh
                else:
                    gen.bit_generator.state = paused[i]
                gen.standard_normal(out=block[i])
                if k0 + n < steps:
                    paused[i] = gen.bit_generator.state
            return block
        return fill

    fill = filler()
    if not split:
        for k0 in starts:
            yield fill(range(count), k0)
        return
    shared = _SharedFill(fill, filler(), count)
    try:
        shared.start(0)
        for k0 in starts:
            block = shared.finish(k0)
            if k0 + n < steps:
                shared.start(k0 + n)
            yield block
    finally:
        shared.cancel()


class _SharedFill:
    """One draw block at a time, its rows claimed from one iterator of row
    indices by a helper thread and the calling thread, each filling with
    its own ``fill(rows, k0)``."""

    def __init__(self, fill, helper_fill, count):
        self.fill, self.helper_fill, self.count = fill, helper_fill, count
        self.lock = threading.Lock()
        self.thread = None

    def _claim(self):
        while True:
            with self.lock:
                i = next(self.rows, None)
            if i is None:
                return
            yield i

    def _help(self, k0):
        try:
            self.helper_fill(self._claim(), k0)
        except BaseException as err:  # raised again on the calling thread
            self.error = err

    def start(self, k0):
        """Start the helper on the block at step k0."""
        self.rows, self.error = iter(range(self.count)), None
        self.thread = threading.Thread(target=self._help, args=(k0,), name="draws")
        self.thread.start()

    def finish(self, k0):
        """Fill the rows left on this thread, join the helper and return the block."""
        block = self.fill(self._claim(), k0)
        self.thread.join()
        self.thread = None
        if self.error is not None:
            raise self.error
        return block

    def cancel(self):
        """Claim every row left, so that the helper stops after its row, and join it."""
        if self.thread is not None:
            with self.lock:
                for _ in self.rows:
                    pass
            self.thread.join()
            self.thread = None


def _check_finite(x, step, start):
    """Raise DivergenceError naming the first non-finite row of the (..., N, n)
    block of states at one step, the systems of a stacked (K, N, n) block in
    order.

    Row i is path start + i. A non-finite entry makes the sum non-finite, so
    the rows are searched only when it is; a sum that overflows over finite
    rows finds no bad row and passes.
    """
    if math.isfinite(x.sum()):
        return
    bad = np.argwhere(~np.all(np.isfinite(x), axis=-1))
    if len(bad):
        idx = None if start is None else start + int(bad[0, -1])
        raise DivergenceError(
            f"non-finite state at step {step} on path {idx}", step=step, path_index=idx,
        )


def _finite_steps(block, step, start):
    """(j, error) for the step-major (S, K, N, n) block of states at steps
    step, step+1, ...: the first j steps are finite, and error is the
    DivergenceError of step + j (see ``_check_finite``), or None when all
    S steps are finite."""
    S = len(block)
    if not math.isfinite(block.sum()):
        for j in range(S):
            try:
                _check_finite(block[j], step + j, start)
            except DivergenceError as err:
                return j, err
    return S, None


def _chunks(n_paths):
    """The (start, count) of each fixed-size chunk of paths, in order."""
    for s in range(0, n_paths, CHUNK_SIZE):
        yield s, min(CHUNK_SIZE, n_paths - s)


def _warn_step_size(sys: SystemSpec, grid: TimeGrid, stacklevel: int = 3):
    """Warn at the caller: stacklevel 3 from a public function, 4 from a ``__post_init__``."""
    if sys.lipschitz_budget is not None and grid.dt * sys.lipschitz_budget > 0.1:
        warnings.warn(
            f"dt * L = {grid.dt * sys.lipschitz_budget:.3g} > 0.1; "
            "Euler-Maruyama may be inaccurate",
            RuntimeWarning,
            stacklevel=stacklevel,
        )


def _signal_rows(sig: InputSignal, name: str, dim: int, times: np.ndarray) -> np.ndarray:
    """The (len(times), dim) values of the input signal ``name``; InputError
    unless it has one component per input of its system."""
    if sig.dim != dim:
        raise InputError(f"{name} has {sig.dim} components; its system has {dim} inputs")
    return sig.values(times)


def _assign(obj, **values):
    """Set attributes of a frozen dataclass while its ``__post_init__`` runs."""
    for key, value in values.items():
        object.__setattr__(obj, key, value)


@dataclass(frozen=True)
class PairScenario:
    """Two coupled systems driven by possibly different inputs. ``mode`` is
    a CouplingMode or its value; ``x0`` and ``y0`` become float vectors.
    Checked and prepared when made (see the module docstring)."""

    sys_x: SystemSpec
    sys_y: SystemSpec
    x0: np.ndarray
    y0: np.ndarray
    u_x: InputSignal
    u_y: InputSignal
    mode: CouplingMode
    grid: TimeGrid

    def __post_init__(self):
        try:
            mode = CouplingMode(self.mode)
        except ValueError:
            raise InputError(f"unknown coupling mode {self.mode!r}") from None
        sys_x, sys_y, grid, ts = self.sys_x, self.sys_y, self.grid, self.grid.times()
        if sys_x.state_dim != sys_y.state_dim:
            raise InputError(f"a pair needs one state space; the systems have "
                             f"{sys_x.state_dim} and {sys_y.state_dim} states")
        if mode is CouplingMode.COMMON and sys_x.noise_dim != sys_y.noise_dim:
            raise InputError("common coupling requires equal dispersion column counts")
        _assign(self, mode=mode, x0=_block(self.x0, sys_x.state_dim)[0],
                y0=_block(self.y0, sys_y.state_dim)[0],
                _rows=[_signal_rows(self.u_x, "u_x", sys_x.input_dim, ts),
                       _signal_rows(self.u_y, "u_y", sys_y.input_dim, ts)])
        _warn_step_size(sys_x, grid, stacklevel=4)

    def _blocks(self, master_seed, start, count):
        """The kernel's (k, (x, y)) runs of paths start .. start+count-1."""
        x0s = [v[None].repeat(count, 0) for v in (self.x0, self.y0)]
        return _blocks([self.sys_x, self.sys_y], x0s, self._rows, self.grid, master_seed, start,
                       common=self.mode is CouplingMode.COMMON)


@dataclass(frozen=True)
class CascadeScenario:
    """Input-noise process (OU or JD) feeding a contracting system, checked
    and prepared when made (see the module docstring).

    For OU noise ``xi0`` is the initial input-noise state; for JD it is the
    initial input u_0 in (0, a), and ``theta`` is ``noise.theta`` or equal
    to it on the grid; ``noise.unsafe`` is the one unsafe switch. ``x0``
    and ``xi0`` become float vectors.
    """

    noise: Union[OUParams, JDParams]
    theta: InputSignal
    sys: SystemSpec
    x0: np.ndarray
    xi0: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        noise, sys, grid, ts = self.noise, self.sys, self.grid, self.grid.times()
        if noise.dim != sys.input_dim:
            raise InputError("noise dimension does not match system input dimension")
        rows, xi0 = _signal_rows(self.theta, "theta", noise.dim, ts), _block(self.xi0, noise.dim)[0]
        if isinstance(noise, JDParams):
            if self.theta is not noise.theta and not np.array_equal(rows, noise.theta.values(ts)):
                raise InputError("a JD cascade's theta differs on the grid from its noise's theta")
            if np.any(xi0 <= 0.0) or np.any(xi0 >= noise.a):
                raise ConfigError("JD initial input must lie inside (0, a)")
            margin = feller_check(noise, ts)["margin"]
            if margin < 0.0 and not noise.unsafe:
                raise ConfigError("JD parameters violate the boundary-nonattainment (Feller) "
                                  f"condition on the grid (margin {margin:.3g}); set "
                                  "JDParams(unsafe=True) to override")
        _assign(self, x0=_block(self.x0, sys.state_dim)[0], xi0=xi0, _rows=rows)
        _warn_step_size(sys, grid, stacklevel=4)

    def _blocks(self, master_seed, start, count):
        """Yield the kernel's (k, (x, u)) runs of paths start .. start+count-1:
        the states, and the inputs u_k that stepped them.

        An OU input with sigma = 0 is deterministic, u_k = theta_k + e^{-c k dt}
        xi0: its rows are computed once, shared by all paths, and draw nothing,
        so each path-step draws only the system's r normals.
        """
        noise, grid = self.noise, self.grid
        x0s = [self.x0[None].repeat(count, 0)]
        if isinstance(noise, OUParams) and noise.sigma == 0.0:
            decay, _ = _ou_exact_coeffs(noise, grid.dt)
            rows = self._rows + np.multiply.outer(decay ** np.arange(grid.steps + 1), self.xi0)
            for k, (x,) in _blocks([self.sys], x0s, [rows], grid, master_seed, start):
                yield k, (x, np.broadcast_to(rows[k:k + len(x), None], (len(x), count, noise.dim)))
        else:
            yield from _blocks([self.sys], x0s, [None], grid, master_seed, start,
                               drive=(noise, self._rows, self.xi0))


def _diffuse(sys: SystemSpec, x, u, dB):
    """Noise increment Sigma(x, u) dB for an (N, r) block of increments."""
    if sys.dispersion_matrix is not None:
        return dB @ sys.dispersion_matrix.T
    S = np.asarray(sys.dispersion(x, u), dtype=float)
    if S.ndim == 2:
        return dB @ S.T
    return np.einsum("bnr,br->bn", S, dB)


class _Stepper:
    """The Euler-Maruyama steps of the K systems of a run, in place, on one
    step-major (S + 1, K, N, n) block X of states; X[0] holds the states at
    the first step of a sub-block of at most S steps.

    ``rows[i]`` holds the (steps+1, m) inputs of system i shared by all
    paths, or is None when a process realizes the inputs per path (then
    for a lone system); ``cols[i]`` selects system i's columns of the
    draws. The affine systems step as one stack, five calls per step for
    all of them; any other system calls its drift and dispersion closures
    per step on its own slice of X.
    """

    def __init__(self, systems, x0s, rows, cols, dt, S):
        self.dt, self.rows = dt, rows
        N, n = x0s[0].shape
        self.X = np.empty((S + 1, len(systems), N, n))
        self.X[0] = x0s
        aff = [i for i, s in enumerate(systems) if s.affine is not None]
        self.closures = [(i, s) for i, s in enumerate(systems) if s.affine is None]
        # the affine systems are all of them or, in a pair, one: a slice
        self.aff = slice(aff[0], aff[-1] + 1) if aff else None
        # per-step views, made once
        self.Xv = list(self.X) if self.closures else None
        self.Xa = [x[self.aff] for x in self.X] if aff else None
        # noise terms (Z sqrt(dt)) Sigma^T, system-major: written in place
        # when Sigma is s I, through a matrix product otherwise
        D = np.empty((len(aff), S, N, n))
        self.Dv = list(D.transpose(1, 0, 2, 3))
        self.noise = []  # (cols, Z sqrt(dt) buffer, Sigma^T product, noise terms)
        for i, sys in enumerate(systems):
            if sys.affine is None:
                self.noise.append((cols[i], np.empty((S, N, sys.noise_dim)), None, None))
                continue
            d = D[i - self.aff.start]
            prod = _product(sys.dispersion_matrix.T)
            W = d if prod[0] is np.multiply else np.empty((S, N, sys.noise_dim))
            self.noise.append((cols[i], W, prod, d))
        if not aff:
            return
        A = [systems[i].affine[0] for i in aff]
        B = [systems[i].affine[1] for i in aff]
        # x -> x A^T for the whole stack: a (K, 1, 1) product when every A
        # is d I, else one batched matmul by the stacked A^T, each kept a
        # transposed view with the strides of the system's own A.T
        products = [_product(a.T) for a in A]
        if all(f is np.multiply for f, _ in products):
            self.A = np.multiply, np.array([d for _, d in products])[:, None, None]
        else:
            self.A = np.matmul, np.stack(A).transpose(0, 2, 1)
        # input terms u_k B^T: for shared rows once, row by row as a
        # single u_k @ B^T rounds; for realized inputs per sub-block
        if rows[aff[0]] is None:
            self.B = _product(B[0].T)
            self.b = np.empty((S, 1, N, n))
            self.bv = list(self.b)
        else:
            self.b = np.empty((len(rows[0]), len(aff), 1, n))
            for j, i in enumerate(aff):
                self.b[:, j] = np.matmul(rows[i][:, None], B[j].T)

    def step(self, z, k, u):
        """Step X[1..n] from X[0], the states at step k, on the (n, N, width)
        normals z; u holds the realized (n, N, m) inputs at steps k..k+n-1,
        or is None for the shared rows."""
        Xv, dt, n = self.Xv, self.dt, len(z)
        for cols, W, prod, D in self.noise:
            np.multiply(z[:, :, cols], math.sqrt(dt), out=W[:n])
            if prod is not None:
                _apply(prod, W[:n], D[:n])
        for i, sys in self.closures:
            us = self.rows[i][k:k + n] if u is None else u
            for j in range(n):
                x, t = Xv[j][i], Xv[j + 1][i]
                np.multiply(np.asarray(sys.drift(x, us[j]), dtype=float), dt, out=t)
                t += x
                t += _diffuse(sys, x, us[j], self.noise[i][1][j])
        if self.aff is None:
            return
        Xa, Dv = self.Xa, self.Dv
        if u is None:
            bv = list(self.b[k:k + n])
        else:
            bv = self.bv
            _apply(self.B, u, self.b[:n, 0])
        times_A, A = self.A
        for j in range(n):  # x + (A x + B u) dt + Sigma dB, in that order
            x, t = Xa[j], Xa[j + 1]
            times_A(x, A, t)
            t += bv[j]
            t *= dt
            t += x
            t += Dv[j]


def _product(M):
    """x -> x @ M as (f, operand), applied as f(x, operand, out). M = d I,
    as in one dimension or for an identity P, is one product by the scalar
    d; the matrix product only adds zero terms to the same numbers."""
    if M.size and M.shape[0] == M.shape[1] and (M == M[0, 0] * np.eye(len(M))).all():
        return np.multiply, float(M[0, 0])
    return np.matmul, M


def _apply(product, a, out):
    """out = a @ M over the last axis of the step-major block a; a matrix
    product runs as one 2-D product."""
    f, M = product
    if f is np.matmul:
        rows = a.shape[0] * a.shape[1]
        a, out = a.reshape(rows, a.shape[2]), out.reshape(rows, out.shape[2])
    f(a, M, out)


def _input_process(U, grid, noise, theta_path, u0, coeffs=None):
    """Set U[0] to the inputs at step 0 and return advance(z, k), which
    fills U[1..n] from U[0], the inputs at step k, on the (n, N, m) input
    normals z: theta_k + xi_k with xi' = decay xi + std z from xi_0 = u0,
    where (decay, std) = ``coeffs`` or by default the exact OU
    transition's; or the Jacobi diffusion (u0 is then u_0) stepped by
    ``_jd_step`` toward the rows theta_k of ``theta_path``."""
    dt = grid.dt
    Uv = list(U)
    if isinstance(noise, JDParams):
        U[0] = u0
        proposal = np.empty_like(U[0])

        def advance(z, k):
            for j in range(len(z)):
                _jd_step(Uv[j], noise, theta_path[k + j], dt, z[j], proposal, Uv[j + 1])
        return advance

    decay, std = coeffs or _ou_exact_coeffs(noise, dt)
    XI, tmp = np.empty_like(U), np.empty_like(U[0])
    XIv = list(XI)
    XI[0] = u0
    np.add(theta_path[0], XI[0], out=U[0])

    def advance(z, k):
        n = len(z)
        np.multiply(z, std, out=XI[1:n + 1])
        for j in range(n):  # xi' = decay xi + std z
            np.multiply(XIv[j], decay, out=tmp)
            XIv[j + 1] += tmp
        np.add(theta_path[k + 1:k + n + 1, None], XI[1:n + 1], out=U[1:n + 1])
        XI[0] = XI[n]
    return advance


def _blocks(systems, x0s, rows, grid, master_seed, start, common=False, drive=None):
    """Yield (k, views) for consecutive runs of steps k, k+1, ..., k+S-1:
    one step-major (S, N, n) view of the states of each system and, when
    ``drive`` realizes the inputs, a last (S, N, m) view of them. The first
    run is step 0 alone, each later one a sub-block of at most _STEP_BLOCK
    steps; the views are overwritten when the next run is requested.

    ``x0s`` holds one (N, n) block of initial states per system, all of
    one state dimension; row i is path start + i and draws from the stream
    keyed (master_seed, start + i) first the m input normals of ``drive``,
    then each system's r normals (in common mode, one r-block for all).
    ``rows[i]`` holds the (steps+1, m) inputs of system i shared by all
    paths; ``drive`` = (noise, theta_path, u0[, coeffs]) instead feeds the
    one system the input process of ``_input_process``, started from the
    (m,) vector u0. With no system the input process alone is stepped and
    checked, and u0 is its (N, m) block of initial states. The systems
    step as one ``_Stepper`` on buffers of min(_STEP_BLOCK, steps) + 1
    rows.

    Steps run with numpy's overflow and invalid-value warnings off: a
    non-finite state raises DivergenceError once the finite steps before
    it were yielded.
    """
    dt, S = grid.dt, min(_STEP_BLOCK, grid.steps)
    m = 0 if drive is None else drive[0].dim
    cols, c = [], m
    for sys in systems:
        cols.append(slice(c, c + sys.noise_dim))
        if not common:
            c += sys.noise_dim
    N = len(x0s[0] if systems else drive[2])
    if drive is not None:
        U = np.empty((S + 1, N, m))
        advance = _input_process(U, grid, *drive)
    stepper = _Stepper(systems, x0s, rows, cols, dt, S) if systems else None
    # the (S + 1, K, N, n) states that are checked: the systems', or a lone
    # input process's; then the inputs that drive the systems
    X = U[:, None] if stepper is None else stepper.X
    inputs = [U] if systems and drive is not None else []

    def views(a, b):
        return list(X[a:b].swapaxes(0, 1)) + [v[a:b] for v in inputs]

    yield 0, views(0, 1)
    k = 0
    for Z in _draws(master_seed, start, N, grid.steps, cols[-1].stop if cols else m):
        for j0 in range(0, Z.shape[1], S):
            n = min(S, Z.shape[1] - j0)
            z = Z[:, j0:j0 + n].transpose(1, 0, 2)  # (n, N, width), step-major
            with np.errstate(over="ignore", invalid="ignore"):
                u = None
                if drive is not None:
                    advance(z[:, :, :m], k)
                    u = U[:n]
                if stepper is not None:
                    stepper.step(z, k, u)
                ok, err = _finite_steps(X[1:n + 1], k + 1, start)
            if ok:
                yield k + 1, views(1, ok + 1)
            if err is not None:
                raise err
            for v in [X] + inputs:
                v[0] = v[n]
            k += n


def _collect(blocks, steps):
    """Copy the yielded views into one (steps+1, N, dim) array per view."""
    out = None
    for k, views in blocks:
        if out is None:
            out = [np.empty((steps + 1,) + v.shape[1:]) for v in views]
        for o, v in zip(out, views):
            o[k:k + len(v)] = v
    return out


def _block(v, dim, count=1):
    """``count`` copies of the vector v as a contiguous (count, dim) block;
    InputError unless v has ``dim`` components."""
    v = np.asarray(v, dtype=float)
    if v.size != dim:
        raise InputError(f"initial vector has {v.size} components; expected {dim}")
    return v.reshape(1, dim).repeat(count, 0)


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
    inputs = _signal_rows(u, "u", sys.input_dim, grid.times())
    _warn_step_size(sys, grid)
    (xs,) = _collect(_blocks([sys], [_block(x0, sys.state_dim)], [inputs], grid,
                             lineage.master_seed, lineage.path_index), grid.steps)
    return Trajectory(grid=grid, states=xs[:, 0], input_record=inputs, lineage=lineage)


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
    """Couple two Euler-Maruyama recursions on one noise source: the
    ``lineage`` path of the ``PairScenario`` of these arguments.

    Independent mode draws 2r Gaussians per step (x block first); common
    mode reuses a single r block for both systems and requires equal noise
    dimension.
    """
    sc = PairScenario(sys_x, sys_y, x0, y0, u_x, u_y, mode, grid)
    xs, ys = _collect(sc._blocks(lineage.master_seed, lineage.path_index, 1), grid.steps)
    ux_rec, uy_rec = sc._rows
    return (
        Trajectory(grid=grid, states=xs[:, 0], input_record=ux_rec, lineage=lineage),
        Trajectory(grid=grid, states=ys[:, 0], input_record=uy_rec, lineage=lineage),
    )


def integrate_cascade(
    noise: Union[OUParams, JDParams],
    theta: InputSignal,
    sys: SystemSpec,
    x0,
    xi0,
    grid: TimeGrid,
    lineage: RngLineage,
):
    """Simulate the input-noise cascade u_t -> x_t: the ``lineage`` path of
    the ``CascadeScenario`` of these arguments.

    OU branch: u_t = theta(t) + xi_t with xi stepped by the exact Gaussian
    transition. JD branch: u_t stepped by the boundary-safe Euler scheme
    toward theta(t), ``noise.theta`` or equal to it on the grid (xi0 is then
    u_0, inside (0, a)). The state is stepped by Euler-Maruyama against u.

    Returns (input trajectory, state trajectory).
    """
    sc = CascadeScenario(noise, theta, sys, x0, xi0, grid)
    xs, us = _collect(sc._blocks(lineage.master_seed, lineage.path_index, 1), grid.steps)
    u_traj = Trajectory(grid=grid, states=us[:, 0], input_record=sc._rows, lineage=lineage)
    x_traj = Trajectory(grid=grid, states=xs[:, 0], input_record=us[:, 0], lineage=lineage)
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
