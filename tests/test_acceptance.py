"""End-to-end acceptance checks.

Each test function covers exactly one acceptance criterion, so the verbose
pytest report gives one pass/fail line per criterion. Tolerances are pinned
in the asserts; statistical checks use 3-standard-error slack.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from contracting_sde import (
    BoundParams,
    CascadeScenario,
    CouplingMode,
    EmpiricalMeasure,
    EquilibriumMap,
    InputSignal,
    JDParams,
    OUParams,
    PairScenario,
    RngLineage,
    TimeGrid,
    WassersteinScenario,
    affine_system,
    box_sampler,
    cascade_metric,
    check_envelope,
    compare_to_bound,
    euler_maruyama,
    feller_check,
    gibbs_check,
    identity_metric,
    jd_step_with_flag,
    make_envelope,
    ode_rk4,
    optimize_alpha,
    oslip_sampled,
    ou_moment,
    ou_second_moment,
    pair_error_moment,
    parse_config,
    run_scenario,
    scalar_tracker,
    stationarity_residual,
    tail_average,
    tail_standard_error,
    tracking_error_moment,
    wasserstein_1d,
    wasserstein_assignment,
    wasserstein_series,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_criterion_01_ou_moment_oracle():
    """Scalar OU, c=1, sigma=1, x0=2: the ensemble second moment matches the
    closed form within 3 SE for exact-transition paths, and within
    3 SE + 2*dt bias for Euler paths, in under 10 seconds."""
    p = OUParams(c=1.0, sigma=1.0, dim=1)
    grid = TimeGrid(0.0, 1e-3, 4000)
    start = time.perf_counter()
    exact = ou_moment(p, [2.0], grid, n_paths=20_000, master_seed=11, method="exact")
    euler = ou_moment(p, [2.0], grid, n_paths=20_000, master_seed=11, method="euler")
    elapsed = time.perf_counter() - start
    for t in (0.25, 1.0, 4.0):
        k = int(round(t / grid.dt))
        truth = ou_second_moment(4.0, 1.0, 1.0, t)
        assert abs(exact.mean_sq[k] - truth) <= 3.0 * exact.std_err[k], f"exact at t={t}"
        assert abs(euler.mean_sq[k] - truth) <= 3.0 * euler.std_err[k] + 2.0 * grid.dt, \
            f"euler at t={t}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"


def test_criterion_02_two_trajectory_envelope_domination():
    """F = -x + u, Sigma = 0.3, independent noise, u_x = sin t vs u_y = 0:
    the empirical squared gap stays under the two-trajectory envelope at
    every grid point for alpha in {0.3, 0.5, 0.7, alpha*}, in under 30 s."""
    sys = affine_system([[-1.0]], [[1.0]], [[0.3]], identity_metric(1))
    grid = TimeGrid(0.0, 2e-3, 5000)
    sc = PairScenario(
        sys_x=sys, sys_y=sys, x0=[0.0], y0=[0.0],
        u_x=InputSignal.sinusoid([1.0]), u_y=InputSignal.constant([0.0]),
        mode=CouplingMode.INDEPENDENT, grid=grid,
    )
    start = time.perf_counter()
    series = pair_error_moment(sc, n_paths=10_000, master_seed=2, n_workers=4)
    elapsed = time.perf_counter() - start
    params = BoundParams(
        c=1.0, ell=1.0, sigma_x_sq=0.09, E0=0.0,
        input_gap_sq=lambda ts: np.sin(np.asarray(ts)) ** 2,
        input_gap_sq_limsup=1.0,
    )
    env = make_envelope("niss_two_traj", params)
    alpha_star, _ = optimize_alpha(env)
    for alpha in (0.3, 0.5, 0.7, alpha_star):
        verdict = check_envelope(series, env, ("fixed", alpha))
        assert verdict.holds, f"alpha={alpha}: worst margin {verdict.worst_margin}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s"


def test_criterion_03_deterministic_reduction():
    """Noise-free reduction: with matched inputs the stochastic envelope at
    alpha = 0.999 stays within 2% (log-relative) of the squared deterministic
    decay, and deterministic difference paths agree with the ODE of the
    difference to 1e-6."""
    c, E0 = 1.0, 1.0
    alpha = 0.999
    params = BoundParams(c=c, ell=1.0, sigma_x_sq=0.0, E0=E0)
    env = make_envelope("niss_two_traj", params)
    for t in np.linspace(0.0, 10.0, 41):
        stoch = env.eval(float(t), alpha)
        det_sq = E0 * math.exp(-2.0 * c * t)
        log_gap = abs(math.log(stoch) - math.log(det_sq))
        assert log_gap <= 0.02 * (1.0 + 1e-9), f"t={t}: log gap {log_gap}"

    # difference of two deterministic solves vs the solved difference ODE
    grid = TimeGrid(0.0, 1e-3, 10_000)
    x = ode_rk4(lambda t, x: -x + math.sin(t), [1.0], grid)
    y = ode_rk4(lambda t, x: -x + 0.0, [0.0], grid)
    d = ode_rk4(lambda t, x: -x + math.sin(t), [1.0], grid)  # same forcing, d0 = x0-y0
    diff = x.states - y.states
    assert np.abs(diff - d.states).max() <= 1e-6

    # the SDE integrator with zero dispersion reduces to the same forward-
    # Euler difference recursion exactly
    sys0 = affine_system([[-1.0]], [[1.0]], [[0.0]], identity_metric(1))
    ex = euler_maruyama(sys0, [1.0], InputSignal.sinusoid([1.0]), grid, RngLineage(0))
    ey = euler_maruyama(sys0, [0.0], InputSignal.constant([0.0]), grid, RngLineage(0))
    delta = 1.0
    ts = grid.times()
    for k in range(grid.steps):
        assert abs((ex.states[k, 0] - ey.states[k, 0]) - delta) <= 1e-12
        delta = delta + grid.dt * (-delta + math.sin(ts[k]))


def _didc_tracker_scenario(noise, xi0):
    c = 2.0
    sys = affine_system([[-c]], [[c]], [[0.2]], identity_metric(1))
    return CascadeScenario(
        noise=noise, theta=InputSignal.sinusoid([1.0]), sys=sys,
        x0=[0.0], xi0=xi0, grid=TimeGrid(0.0, 2e-3, 10_000),
    )


_COS_SQ = lambda ts: np.cos(np.asarray(ts)) ** 2


def test_criterion_04_deterministic_input_tracking_tail():
    """F = -2(x - theta), theta = sin t, Sigma = 0.2: the tail-window (last
    20% of horizon 20) tracking moment is dominated by the deterministic-input
    envelope's long-run value at the optimized alpha, plus 3 SE."""
    sc = _didc_tracker_scenario(OUParams(c=2.0, sigma=0.0, dim=1), [0.0])
    series = tracking_error_moment(sc, EquilibriumMap.affine([[1.0]]),
                                   "deterministic_curve", n_paths=3000,
                                   master_seed=4, n_workers=4)
    params = BoundParams(c=2.0, ell=2.0, sigma_x_sq=0.04, E0=0.0,
                         theta_dot_sq=_COS_SQ, theta_dot_sq_limsup=1.0)
    env = make_envelope("track_didc", params)
    _, tail_bound = optimize_alpha(env)
    tail_mean, _ = tail_average(series, 0.2)
    assert tail_mean <= tail_bound + 3.0 * tail_standard_error(series, 0.2)


def test_criterion_05_ou_input_tracking_tails_and_finite_time():
    """Same tracker with OU input noise sigma_xi = 0.3: tail moments are
    dominated by the deterministic-curve and stochastic-curve envelopes at
    the optimized alpha + 3 SE, and the stochastic-curve finite-time formula
    dominates at every grid point."""
    noise = OUParams(c=2.0, sigma=0.3, dim=1)
    eq = EquilibriumMap.affine([[1.0]])
    params = BoundParams(c=2.0, ell=2.0, sigma_x_sq=0.04, sigma_xi_sq=0.09,
                         h_ou=0.0, E0=0.0, Exi0=0.0,
                         theta_dot_sq=_COS_SQ, theta_dot_sq_limsup=1.0)

    sc = _didc_tracker_scenario(noise, [0.0])
    sidc = tracking_error_moment(sc, eq, "deterministic_curve", n_paths=3000,
                                 master_seed=5, n_workers=4)
    env_sidc = make_envelope("track_ou_sidc", params)
    _, sidc_bound = optimize_alpha(env_sidc)
    tail_mean, _ = tail_average(sidc, 0.2)
    assert tail_mean <= sidc_bound + 3.0 * tail_standard_error(sidc, 0.2)

    sisc = tracking_error_moment(sc, eq, "stochastic_curve", n_paths=3000,
                                 master_seed=6, n_workers=4)
    env_sisc = make_envelope("track_ou_sisc", params)
    _, sisc_bound = optimize_alpha(env_sisc)
    tail_mean, _ = tail_average(sisc, 0.2)
    assert tail_mean <= sisc_bound + 3.0 * tail_standard_error(sisc, 0.2)

    verdict = check_envelope(sisc, env_sisc, "optimized")
    assert verdict.holds, f"finite-time sisc: worst margin {verdict.worst_margin}"


def test_criterion_06_jacobi_diffusion_positivity_and_tracking():
    """Bounded-input tracking, a = 1, theta = 0.5, c = 1, sigma_u^2 = 0.5:
    (i) 1e5 bounded-noise steps stay strictly inside (0, 1) with under 0.1%
    clamps; (ii) tail tracking moments are dominated by the two bounded-input
    envelopes at their optimized alphas + 3 SE."""
    theta = InputSignal.constant([0.5])
    noise = JDParams(c=1.0, theta=theta, sigma_u=math.sqrt(0.5), a=[1.0])
    feller = feller_check(noise, [0.0])
    assert feller["holds"] and feller["margin"] == pytest.approx(0.25)

    rng = RngLineage(66, 0).stream()
    u = np.array([0.5])
    dt, n_steps = 1e-3, 100_000
    clamps = 0
    z = rng.standard_normal(n_steps)
    for k in range(n_steps):
        u, flagged = jd_step_with_flag(u, noise, k * dt, dt, z[k:k + 1])
        clamps += flagged
        if not (0.0 < u[0] < 1.0):
            pytest.fail(f"state left (0,1) at step {k}")
    assert clamps < 0.001 * n_steps

    sys = scalar_tracker(1.0, 0.2)
    eq = EquilibriumMap.affine([[1.0]])
    sc = CascadeScenario(noise=noise, theta=theta, sys=sys, x0=[0.5], xi0=[0.5],
                         grid=TimeGrid(0.0, 2e-3, 5000))
    params = BoundParams(c=1.0, ell=1.0, sigma_x_sq=0.04, sigma_u_sq=0.5,
                         a_norm_sq=1.0, h_jd=0.0, E0=0.0, Exi0=0.0, theta_dot_sq=0.0)

    sidc = tracking_error_moment(sc, eq, "deterministic_curve", n_paths=2000,
                                 master_seed=7, n_workers=4)
    _, sidc_bound = optimize_alpha(make_envelope("track_jd_sidc", params))
    tail_mean, _ = tail_average(sidc, 0.2)
    assert tail_mean <= sidc_bound + 3.0 * tail_standard_error(sidc, 0.2)

    sisc = tracking_error_moment(sc, eq, "stochastic_curve", n_paths=2000,
                                 master_seed=8, n_workers=4)
    alpha_star, sisc_bound = optimize_alpha(make_envelope("track_jd_sisc", params))
    assert 0.5 <= alpha_star < 1.0
    tail_mean, _ = tail_average(sisc, 0.2)
    assert tail_mean <= sisc_bound + 3.0 * tail_standard_error(sisc, 0.2)


def test_criterion_07_cascade_contracts_at_half_rate():
    """The input-noise/state cascade of the certified linear tracker is
    contracting at rate c/2 under the rescaled cascade metric: the sampled
    one-sided Lipschitz constant over 1e5 pairs is at most -c/2 + 1e-3."""
    c = 2.0
    sys = scalar_tracker(c, 0.2)
    ell = sys.certificate.ell_hat
    Pc = cascade_metric(identity_metric(1), c=c, ell=ell, m=1)

    def cascade_field(s, th):
        xi, x = s[..., :1], s[..., 1:]
        return np.concatenate([-c * xi, -c * (x - (th + xi))], axis=-1)

    est = oslip_sampled(cascade_field, ([0.0], [1.0]),
                        box_sampler([-2.0, -2.0], [2.0, 2.0]), Pc,
                        n_pairs=100_000, seed=77)
    assert est <= -c / 2.0 + 1e-3


def test_criterion_08_wasserstein_contraction():
    """Common-noise pair with unit input offset, k = 1024: (i) the log of
    the distance above its limit decays with slope -c within 10%;
    (ii) the empirical distance stays under the contraction envelope plus
    2/sqrt(k); (iii) the stationary distance is within 5% of ell*offset/c."""
    sys = affine_system([[-1.0]], [[1.0]], [[0.5]], identity_metric(1))
    k = 1024
    rng_x = RngLineage(99, 1).stream()
    rng_y = RngLineage(99, 2).stream()
    sc = WassersteinScenario(
        sys_x=sys, sys_y=sys,
        x0_samples=20.0 + rng_x.standard_normal((k, 1)),
        y0_samples=rng_y.standard_normal((k, 1)),
        u_x=InputSignal.constant([1.0]), u_y=InputSignal.constant([0.0]),
        grid=TimeGrid(0.0, 2e-3, 4000),
    )
    fit_times = list(np.linspace(0.0, 3.0, 13))
    times, w_emp, _ = wasserstein_series(sc, 2, master_seed=3,
                                         checkpoints=fit_times + [8.0])
    gap_limit = 1.0  # ell * offset / c
    excess = w_emp[:-1] - gap_limit
    assert np.all(excess > 0.0)
    slope = np.polyfit(times[:-1], np.log(excess), 1)[0]
    assert abs(slope - (-1.0)) <= 0.10, f"slope {slope}"
    assert abs(w_emp[-1] - gap_limit) <= 0.05 * gap_limit

    times_all, w_all, env_all = wasserstein_series(sc, 2, master_seed=3)
    assert np.all(w_all <= env_all + 2.0 / math.sqrt(k))


def test_criterion_09_gibbs_stationarity():
    """Overdamped Langevin with f = x^2/2, sigma = 1 over horizon 200:
    the subsampled marginal passes a 1% KS test against the N(0, 1/2) Gibbs
    law, and the quartic-potential stationarity residual shrinks at O(h^2)."""
    dt, steps, sigma = 0.005, 40_000, 1.0
    rng = RngLineage(1234, 0).stream()
    noise = rng.standard_normal(steps)
    xs = np.empty(steps + 1)
    x = 0.0
    xs[0] = x
    sq_dt = math.sqrt(dt)
    for k in range(steps):
        x = x - x * dt + sigma * sq_dt * noise[k]
        xs[k + 1] = x
    burn, stride = int(round(10.0 / dt)), int(round(1.0 / dt))
    samples = xs[burn::stride]
    grid1d = np.linspace(-6.0, 6.0, 2001)
    out = gibbs_check(lambda v: 0.5 * v * v, lambda v: v, sigma, samples, grid1d)
    crit = 1.63 / math.sqrt(samples.shape[0])
    assert out["ks_stat"] <= crit, f"KS {out['ks_stat']:.4f} vs {crit:.4f}"

    f4, g4 = (lambda v: 0.25 * v**4), (lambda v: v**3)
    coarse = stationarity_residual(f4, g4, sigma, np.linspace(-3.0, 3.0, 1001))
    fine = stationarity_residual(f4, g4, sigma, np.linspace(-3.0, 3.0, 2001))
    assert 3.0 <= coarse / fine <= 5.0


def test_criterion_10_assignment_solver_exactness():
    """The assignment-based distance equals permutation brute force on 200
    random instances with k <= 7, and equals the sorted-order formula on 200
    one-dimensional instances, to 1e-12."""
    rng = np.random.default_rng(10)
    p_cycle = itertools.cycle((1, 2, math.inf))
    for trial in range(200):
        k = int(rng.integers(2, 8))
        X = rng.standard_normal((k, 2))
        Y = rng.standard_normal((k, 2))
        p = next(p_cycle)
        got = wasserstein_assignment(EmpiricalMeasure(X), EmpiricalMeasure(Y), p)
        D = np.linalg.norm(X[:, None, :] - Y[None, :, :], axis=2)
        if p == math.inf:
            best = min(max(D[i, perm[i]] for i in range(k))
                       for perm in itertools.permutations(range(k)))
        else:
            best = min(np.mean([D[i, perm[i]] ** p for i in range(k)])
                       for perm in itertools.permutations(range(k))) ** (1.0 / p)
        assert abs(got - best) <= 1e-12, f"trial {trial}, p={p}"
    for trial in range(200):
        k = int(rng.integers(2, 64))
        xs = rng.standard_normal(k)
        ys = rng.standard_normal(k)
        p = next(p_cycle)
        direct = wasserstein_1d(xs, ys, p)
        assigned = wasserstein_assignment(
            EmpiricalMeasure(xs[:, None]), EmpiricalMeasure(ys[:, None]), p)
        assert abs(direct - assigned) <= 1e-12, f"1d trial {trial}, p={p}"


def test_criterion_11_reproducible_bundles_across_workers(tmp_path):
    """Rerunning a bundled scenario with the same seed produces byte-identical
    CSV outputs with 1, 4, and 8 worker threads."""
    text = (CONFIG_DIR / "niss_pair.json").read_text(encoding="utf-8")
    bundles = {}
    for workers in (1, 4, 8):
        cfg = parse_config(text)
        data = dict(cfg.data)
        data["n_workers"] = workers
        cfg = type(cfg)(kind=cfg.kind, data=data)
        out = tmp_path / f"w{workers}"
        verdict = run_scenario(cfg, out)
        assert verdict.holds
        bundles[workers] = out
    for name in ("moments.csv", "envelope.csv", "plotdata.csv"):
        ref = (bundles[1] / name).read_bytes()
        assert (bundles[4] / name).read_bytes() == ref, name
        assert (bundles[8] / name).read_bytes() == ref, name
