"""Empirical p-Wasserstein distances between sampled marginals, the
contraction envelope for distributional convergence, and Gibbs-stationarity
checks for gradient drifts.

Distances between equal-weight empirical measures are computed exactly: by
the sorted-order formula in one dimension and by an optimal-assignment
solve in general. For p = 2 in l2 the assignment is solved on the squared
distances between the centred clouds X - mean(X) and Y - mean(Y):
translating either cloud changes the cost of every pairing by the same
constant, so the optimal pairings are unchanged, and the solver is spared
the near-ties of offset clouds and near-translates. The value is still taken
from the uncentred distances at the pairing found, so it can move, by
rounding, only where two pairings tie. For p = infinity the bottleneck
assignment bisects the distances between the largest row or column minimum
and the largest diagonal distance max_i D[i, i]. Pairing sample i with
sample i is a perfect matching whatever the order, so that diagonal bounds
the answer from above; for the common-noise coupled clouds of ``wasserstein_series``
it is often the answer, so the first probe is at the largest distance below
it, and if that probe fails the solve is done. Each probe is one
Hopcroft-Karp matching on a CSR threshold graph built directly, each row's
columns in index order; a probe that finds a perfect matching lowers the
upper end to that matching's largest distance, and the probe after a
successful first one is at the lower end. l2 distances are summed
coordinate by coordinate, with no (k, k, n) difference tensor. A weighted
norm maps both clouds through its Cholesky factor, so 1-D clouds keep the
sorted formula. Problem size is capped at k = 2048 samples per measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _check_times, decay_convolution
from .core import InputSignal, Metric, SystemSpec, TimeGrid, _row_norm_sq
from .errors import CapabilityError, CapacityError, DomainError, InputError
from .integrate import CouplingMode, _blocks, _check_pair, _chunks
from .montecarlo import Verdict

MAX_SAMPLES = 2048


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniformly weighted empirical measure on k >= 2 sample points, given
    as a (k, n) array or, for scalar samples, a (k,) array."""

    samples: np.ndarray  # (k, n)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim == 1:  # k scalar samples, as wasserstein_1d reads them
            s = s[:, None]
        elif s.ndim != 2:
            raise InputError(
                f"empirical measure samples must be a (k,) or (k, n) array; got shape {s.shape}")
        if s.shape[0] < 2:
            raise InputError("empirical measure needs at least 2 samples")
        if not np.all(np.isfinite(s)):
            raise InputError("empirical measure samples must be finite")
        object.__setattr__(self, "samples", s)

    @property
    def k(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


def wasserstein_1d(xs, ys, p) -> float:
    """Exact W_p between equal-weight scalar empirical measures (sorted order)."""
    if not p >= 1:  # first, and NaN too: pow(1, nan) = 1 would make any W_p 1
        raise InputError(f"p must be >= 1 or inf, got {p}")
    xs, ys = _scalar_samples(xs), _scalar_samples(ys)
    if xs.size == 0 or ys.size == 0:
        raise InputError("empty sample set")
    if xs.size != ys.size:
        raise InputError("sample counts must match")
    xs, ys = np.sort(xs), np.sort(ys)
    # sorting puts -inf first and inf and NaN last
    if not all(map(math.isfinite, (xs[0], xs[-1], ys[0], ys[-1]))):
        raise InputError("samples must be finite")
    d = np.abs(xs - ys)
    if p == math.inf:
        return float(d.max())
    return float(np.mean(d**p) ** (1.0 / p))


def _scalar_samples(v) -> np.ndarray:
    """Samples of shape (k,) or (k, 1) as a (k,) float array."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 2 and v.shape[1] == 1:
        v = v[:, 0]
    if v.ndim != 1:
        raise InputError(f"scalar samples must have shape (k,) or (k, 1), got {v.shape}")
    return v


def _to_l2(X: np.ndarray, Y: np.ndarray, norm):
    """(X, Y, norm), a weighted norm turned into l2 by mapping both clouds
    through its Cholesky factor."""
    if isinstance(norm, Metric):
        for Z in (X, Y):
            if Z.shape[-1] != norm.dim:
                raise InputError(f"samples of dimension {Z.shape[-1]} measured in a metric "
                                 f"of dimension {norm.dim}")
        return X @ norm.chol, Y @ norm.chol, "l2"
    return X, Y, norm


def _sq_l2(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Squared l2 distances between the points of X and Y, (..., n) arrays
    broadcast against each other, summed coordinate by coordinate: no
    difference tensor with a trailing axis of n.

    Even and odd coordinates are summed apart, then added: the order of
    numpy's two-lane einsum reduction, so for n <= 7 the distances are bit
    for bit those of the einsum form.
    """
    def sq_sum(js):
        out = (X[..., js[0]] - Y[..., js[0]]) ** 2
        for j in js[1:]:
            out += (X[..., j] - Y[..., j]) ** 2
        return out

    n = X.shape[-1]
    out = sq_sum(range(0, n, 2))
    if n > 1:
        out += sq_sum(range(1, n, 2))
    return out


def _pairwise_norms(X: np.ndarray, Y: np.ndarray, norm) -> np.ndarray:
    X, Y, norm = _to_l2(X, Y, norm)
    if norm == "l2":
        out = _sq_l2(X[:, None], Y[None])
        return np.sqrt(out, out=out)
    diff = X[:, None, :] - Y[None, :, :]
    if norm == "l1":
        return np.abs(diff).sum(axis=2)
    if norm == "linf":
        return np.abs(diff).max(axis=2)
    raise InputError(f"unknown norm '{norm}'")


def wasserstein_assignment(mx: EmpiricalMeasure, my: EmpiricalMeasure, p, norm="l2") -> float:
    """Exact W_p between equal-size empirical measures via optimal assignment.

    Finite p minimizes the mean p-th power cost; p = infinity solves the
    bottleneck assignment (minimize the largest matched distance). For
    p = 2 in l2 or a weighted norm the pairing is solved on the centred
    clouds, which have the same optimal pairings; the value is taken from
    the uncentred distances of the pairing found.
    """
    if not p >= 1:  # before the k x k distances, and NaN too
        raise InputError(f"p must be >= 1 or inf, got {p}")
    import scipy.optimize  # here, not at the top: importing the package loads no scipy

    if mx.k != my.k:
        raise InputError("sample counts must match")
    if mx.dim != my.dim:
        raise InputError(f"sample dimensions must match, got {mx.dim} and {my.dim}")
    if mx.k > MAX_SAMPLES:
        raise CapacityError(
            f"{mx.k} samples exceed the cap of {MAX_SAMPLES}; subsample first"
        )
    X, Y, norm = _to_l2(mx.samples, my.samples, norm)
    if p == 2 and norm == "l2":
        # translating either cloud changes sum_i ||x_i - y_s(i)||^2 by a
        # constant independent of the pairing s, so the centred clouds have
        # the same optimal pairings, without the large row and column
        # potentials that offset clouds cost the solver
        Xc, Yc = X - X.mean(axis=0), Y - Y.mean(axis=0)
        rows, cols = scipy.optimize.linear_sum_assignment(_sq_l2(Xc[:, None], Yc[None]))
        d = np.sqrt(_sq_l2(X[rows], Y[cols]))  # bit for bit D[rows, cols]
        return float(np.mean(d**p) ** (1.0 / p))
    D = _pairwise_norms(X, Y, norm)
    if p == math.inf:
        return _bottleneck_assignment(D)
    rows, cols = scipy.optimize.linear_sum_assignment(D**p)
    return float(np.mean(D[rows, cols] ** p) ** (1.0 / p))


def _bottleneck_assignment(D: np.ndarray) -> float:
    """Smallest threshold tau such that edges {D <= tau} admit a perfect matching.

    A perfect matching uses an edge of every row and column, so tau is at
    least each row's and column's minimum. The identity pairing i -> i is a
    perfect matching for any order of the rows, so tau is at most
    max_i D[i, i], which needs no probe; for coupled samples it is often
    tau itself. The first probe is at the largest candidate below that
    bound: if it fails, the bound is tau. A probe that finds a perfect
    matching moves the upper end of the bracket to that matching's largest
    distance, which is at most the probe's threshold. After a first probe
    that succeeds, the next is at the lower bound; the rest is bisected.
    Each probe's graph comes from ``_threshold_csr``, rows and columns
    relabelled by ascending degree so that Hopcroft-Karp matches the
    scarcest vertices first, its row pointers in one int32 ``indptr``
    allocated per solve.
    """
    import scipy.sparse.csgraph

    k = D.shape[0]
    low = max(D.min(axis=1).max(), D.min(axis=0).max())
    cands = np.unique(D[(D >= low) & (D <= np.diagonal(D).max())])
    lo, hi = 0, cands.shape[0] - 1
    indptr = np.zeros(k + 1, np.int32)
    col_ids = np.broadcast_to(np.arange(k, dtype=np.int32), (k, k))

    def matched_max(tau):
        """The largest distance of a perfect matching in {D <= tau}, or None."""
        rows, cols, indices = _threshold_csr(D, tau, indptr, col_ids)
        graph = scipy.sparse.csr_matrix((np.ones_like(indices, bool), indices, indptr), (k, k))
        match = scipy.sparse.csgraph.maximum_bipartite_matching(graph, perm_type="column")
        if np.any(match < 0):
            return None
        return D[rows, cols[match]].max()

    mid, first = hi - 1, True  # first probe: just below the diagonal bound
    while lo < hi:
        top = matched_max(cands[mid])
        if top is None:
            lo = mid + 1
        else:  # the matching found bounds tau by its largest distance
            hi = int(np.searchsorted(cands, top))
        # a first probe that fails ends the solve; one that succeeds is
        # followed by a probe at the lower bound
        mid, first = (lo if first else (lo + hi) // 2), False
    return float(cands[lo])


def _threshold_csr(D: np.ndarray, tau, indptr: np.ndarray, col_ids: np.ndarray):
    """The graph {D <= tau} with rows and columns relabelled by ascending
    degree, as CSR arrays with each row's columns in index order.

    Writes the row pointers into ``indptr`` (int32, k + 1 entries, the
    first 0) and returns (rows, cols, indices): relabelled row r is row
    rows[r] of D, relabelled column c is column cols[c], and ``indices``
    are taken from ``col_ids``, the int32 column ids 0..k-1 broadcast to
    (k, k).
    """
    mask = D <= tau
    deg = np.count_nonzero(mask, axis=1)
    rows = np.argsort(deg, kind="stable")
    cols = np.argsort(np.count_nonzero(mask, axis=0), kind="stable")
    np.cumsum(deg[rows], out=indptr[1:])
    return rows, cols, col_ids[mask.take(rows, 0).take(cols, 1)]


def wasserstein_envelope(W0: float, c: float, ell: float, input_gap, t: float) -> float:
    """e^{-ct} W0 + ell * integral_0^t e^{-c(t-tau)} gap(tau) dtau."""
    if not all(0 <= v < math.inf for v in (W0, c, ell)):
        raise InputError(f"W0, c, ell must be finite and nonnegative, got {W0}, {c}, {ell}")
    _check_times(t)
    return math.exp(-c * t) * W0 + ell * decay_convolution(input_gap, c, t)


@dataclass(frozen=True)
class WassersteinScenario:
    """Common-noise coupled pair started from two initial sample clouds."""

    sys_x: SystemSpec
    sys_y: SystemSpec
    x0_samples: np.ndarray  # (k, n)
    y0_samples: np.ndarray  # (k, n)
    u_x: InputSignal
    u_y: InputSignal
    grid: TimeGrid

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.x0_samples, dtype=float))
        ys = np.atleast_2d(np.asarray(self.y0_samples, dtype=float))
        if xs.shape != ys.shape:
            raise InputError("initial clouds must have equal shape")
        if xs.shape[0] == 0:
            raise InputError("initial clouds are empty")
        if xs.shape[0] < 2:  # W_p between two points is not a distributional distance
            raise InputError(f"initial clouds need at least 2 samples, got {xs.shape[0]}")
        if xs.shape[0] > MAX_SAMPLES:
            raise CapacityError(
                f"{xs.shape[0]} samples exceed the cap of {MAX_SAMPLES}"
            )
        n, nx, ny = xs.shape[1], self.sys_x.state_dim, self.sys_y.state_dim
        if n != nx or n != ny:
            raise InputError(f"initial clouds have {n} columns; the systems' "
                             f"state dimensions are {nx} and {ny}")
        object.__setattr__(self, "x0_samples", xs)
        object.__setattr__(self, "y0_samples", ys)

    @property
    def k(self) -> int:
        return self.x0_samples.shape[0]


def _require_state_independent(sys: SystemSpec, name: str):
    if sys.dispersion_matrix is None:
        raise CapabilityError(
            f"{name} has state-dependent dispersion; the distributional "
            "contraction result requires Sigma(t) independent of the state"
        )


def wasserstein_series(
    scenario: WassersteinScenario,
    p,
    master_seed: int,
    checkpoints=None,
    norm=None,
    n_workers: int = 1,
):
    """Empirical W_p between the coupled clouds at checkpoint times.

    Returns (times, w_empirical, envelope) arrays. Both systems must have
    state-independent dispersion and share the common Brownian source; each
    path pair i is driven by the stream keyed (master_seed, i). Distances
    are measured in ``norm``, by default the first system's metric, in
    which the envelope's c and ell are certified. ``n_workers`` is accepted
    and has no effect; it does not govern the helper thread that fills a
    chunk's normals (``integrate._draws``).
    """
    sc = scenario
    norm = sc.sys_x.metric if norm is None else norm
    _require_state_independent(sc.sys_x, "first system")
    _require_state_independent(sc.sys_y, "second system")
    grid = sc.grid
    _check_pair(sc.sys_x, sc.sys_y, CouplingMode.COMMON, grid)
    times = grid.times()
    if checkpoints is None:
        idx = np.unique(np.linspace(0, grid.steps, 21).astype(int))
    else:
        idx = np.unique(np.rint((np.asarray(checkpoints) - grid.t0) / grid.dt).astype(int))
        if np.any(idx < 0) or np.any(idx > grid.steps):
            raise InputError("checkpoint outside the time grid")
    ux_path = sc.u_x.values(times)
    uy_path = sc.u_y.values(times)

    clouds_x = np.empty((idx.shape[0],) + sc.x0_samples.shape)  # (checkpoints, k, n)
    clouds_y = np.empty_like(clouds_x)
    for start, count in _chunks(sc.k):
        paths = slice(start, start + count)
        _fill_clouds((clouds_x, clouds_y), idx, paths, _blocks(
            [sc.sys_x, sc.sys_y], [sc.x0_samples[paths], sc.y0_samples[paths]],
            [ux_path, uy_path], grid, master_seed, start, common=True))

    c, ell = sc.sys_x.certificate.c_hat, sc.sys_x.certificate.ell_hat
    gap = lambda ts: np.sqrt(_row_norm_sq(sc.u_x.value(ts) - sc.u_y.value(ts)))
    w_emp = np.array([
        _cloud_distance(clouds_x[a], clouds_y[a], p, norm) for a in range(idx.shape[0])
    ])
    W0 = float(w_emp[0]) if idx[0] == 0 else _cloud_distance(sc.x0_samples, sc.y0_samples, p, norm)
    env = np.array([
        wasserstein_envelope(W0, c, ell, gap, times[j] - grid.t0) for j in idx
    ])
    return times[idx], w_emp, env


def _fill_clouds(clouds, idx, paths, blocks):
    """Copy the states at the checkpoint steps ``idx`` from each system's
    views yielded by ``blocks`` into the columns ``paths`` of its
    (checkpoints, k, n) cloud. The chunk's step buffers, which the views
    keep alive, are released on return."""
    for k, views in blocks:
        a, b = np.searchsorted(idx, [k, k + len(views[0])])
        for cloud, v in zip(clouds, views):
            cloud[a:b, paths] = v[idx[a:b] - k]


def _cloud_distance(X, Y, p, norm):
    X, Y, norm = _to_l2(X, Y, norm)
    if X.shape[1] == 1 and norm in ("l1", "l2", "linf"):
        return wasserstein_1d(X[:, 0], Y[:, 0], p)
    return wasserstein_assignment(EmpiricalMeasure(X), EmpiricalMeasure(Y), p, norm)


def _wasserstein_verdict(times, w_emp, env, k: int) -> Verdict:
    """Check empirical W_p <= envelope * (1 + 2/sqrt(k)) at every checkpoint
    of a ``wasserstein_series``."""
    slack = 2.0 / math.sqrt(k)
    allowed = env * (1.0 + slack)
    margins = (allowed - w_emp) / np.maximum(allowed, 1e-12)
    i = int(np.argmin(margins))
    return Verdict(
        holds=bool(np.all(w_emp <= allowed)),
        worst_margin=float(margins[i]),
        worst_t=float(times[i]),
        slack_rule=f"w_p <= envelope * (1 + 2/sqrt(k)), k={k}",
    )


def gibbs_density(f, sigma: float, grid1d: np.ndarray) -> np.ndarray:
    """Normalized stationary density proportional to e^{-2 f(x) / sigma^2};
    the potential ``f`` is called once, on the whole grid."""
    xs = np.asarray(grid1d, dtype=float)
    if xs.ndim != 1 or xs.shape[0] < 3:
        raise InputError("grid must be one-dimensional with >= 3 points")
    logw = -2.0 * np.broadcast_to(f(xs), xs.shape) / sigma**2
    logw -= logw.max()  # stabilize before exponentiating
    w = np.exp(logw)
    Z = (np.diff(xs) * (w[1:] + w[:-1]) / 2.0).sum()  # trapezoid rule
    if not np.isfinite(Z) or Z <= 0.0:
        raise DomainError("density is not normalizable on the grid")
    return w / Z


def stationarity_residual(f, grad_f, sigma: float, grid1d: np.ndarray) -> float:
    """Sup-norm of the discrete stationarity defect of the probability flux.

    For drift -grad f the stationary density satisfies
    d/dx(mu* f') + (sigma^2/2) mu*'' = 0 exactly; central differences leave
    an O(h^2) residual, so refinement should shrink it quadratically.
    ``f`` and ``grad_f`` are called once, on the whole grid.
    """
    xs = np.asarray(grid1d, dtype=float)
    mu = gibbs_density(f, sigma, xs)
    flux = mu * np.broadcast_to(grad_f(xs), xs.shape)
    term1 = np.gradient(flux, xs)
    term2 = 0.5 * sigma**2 * np.gradient(np.gradient(mu, xs), xs)
    interior = slice(2, -2)  # one-sided boundary stencils are only O(h)
    return float(np.abs(term1[interior] + term2[interior]).max())


def gibbs_check(f, grad_f, sigma: float, samples, grid1d) -> dict:
    """KS distance of a sampled marginal to the Gibbs law plus the
    Fokker-Planck stationarity residual on the grid.

    ``samples`` is a 1D array of (burned-in, subsampled) state values.
    """
    if sigma <= 0:
        raise InputError("sigma must be positive")
    xs = np.asarray(grid1d, dtype=float)
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.shape[0] < 2:
        raise InputError("need at least 2 samples")
    mu = gibbs_density(f, sigma, xs)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (mu[1:] + mu[:-1]) * np.diff(xs))])
    cdf = np.clip(cdf / cdf[-1], 0.0, 1.0)
    sorted_s = np.sort(samples)
    model = np.interp(sorted_s, xs, cdf)
    k = sorted_s.shape[0]
    emp_hi = np.arange(1, k + 1) / k
    emp_lo = np.arange(0, k) / k
    ks = float(np.maximum(np.abs(emp_hi - model), np.abs(model - emp_lo)).max())
    residual = stationarity_residual(f, grad_f, sigma, xs)
    return {"ks_stat": ks, "residual": residual}
