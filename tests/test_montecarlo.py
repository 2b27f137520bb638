"""Tests for ensemble moment estimation, envelope verdicts, and the
worker-count-independent reproducibility of the chunked path scheduler."""

import math

import numpy as np
import pytest

from contracting_sde import (
    BoundParams,
    CascadeScenario,
    ConfigError,
    CouplingMode,
    DivergenceError,
    Envelope,
    EquilibriumMap,
    InputError,
    InputSignal,
    JDParams,
    MomentSeries,
    OUParams,
    PairScenario,
    RngLineage,
    SystemSpec,
    TimeGrid,
    affine_system,
    check_envelope,
    compare_to_bound,
    identity_metric,
    integrate_cascade,
    make_envelope,
    moment_growth_guard,
    ou_moment,
    pair_error_moment,
    scalar_tracker,
    tail_average,
    tail_standard_error,
    tracking_error_moment,
)


def _ou_pair_scenario(mode, sigma=0.5, steps=500, dt=2e-3, x0=1.0, y0=1.0,
                      u_x=None, u_y=None):
    sys = affine_system([[-1.0]], [[1.0]], [[sigma]], identity_metric(1))
    zero = InputSignal.constant([0.0])
    return PairScenario(
        sys_x=sys, sys_y=sys, x0=[x0], y0=[y0],
        u_x=u_x or zero, u_y=u_y or zero,
        mode=mode, grid=TimeGrid(0.0, dt, steps),
    )


class TestPairErrorMoment:
    def test_common_noise_identical_copies_vanish(self):
        sc = _ou_pair_scenario(CouplingMode.COMMON)
        series = pair_error_moment(sc, n_paths=128, master_seed=0)
        assert np.all(series.mean_sq == 0.0)
        assert np.all(series.std_err == 0.0)

    def test_independent_stationary_floor(self):
        # two independent OU realizations started at 0: E|x - y|^2 approaches
        # 2 * sigma^2 / (2 c) = sigma^2 / c = 0.25 for c = 1, sigma = 0.5
        sc = _ou_pair_scenario(CouplingMode.INDEPENDENT, x0=0.0, y0=0.0,
                               steps=4000, dt=2e-3)
        series = pair_error_moment(sc, n_paths=4000, master_seed=1)
        tail_mean, _ = tail_average(series, 0.25)
        se = tail_standard_error(series, 0.25)
        assert abs(tail_mean - 0.25) <= 3.0 * se + 0.01

    def test_noiseless_gap_matches_euler_recursion(self):
        # sigma = 0 and distinct constant inputs: the squared gap follows the
        # deterministic Euler recursion d' = ((1 - c dt) d + dt * gap)^2
        sc = _ou_pair_scenario(
            CouplingMode.COMMON, sigma=0.0, x0=1.0, y0=0.0, steps=200, dt=1e-2,
            u_x=InputSignal.constant([1.0]), u_y=InputSignal.constant([0.0]))
        series = pair_error_moment(sc, n_paths=100, master_seed=2)
        d = 1.0
        for k in range(200):
            d = (1.0 - 1e-2) * d + 1e-2 * 1.0
            assert series.mean_sq[k + 1] == pytest.approx(d * d, rel=1e-12)
        assert np.all(series.std_err <= 1e-14)

    def test_requires_minimum_paths(self):
        sc = _ou_pair_scenario(CouplingMode.COMMON)
        with pytest.raises(InputError):
            pair_error_moment(sc, n_paths=50, master_seed=0)

    def test_divergence_names_path_index(self):
        sys = SystemSpec(
            state_dim=1, input_dim=1,
            drift=lambda x, u: 1e3 * x,
            dispersion=lambda x, u: np.zeros((1, 1)),
            metric=identity_metric(1),
            constants={"c": 1.0, "ell": 0.0, "sigma_x_sq": 0.0},
            noise_dim=1,
        )
        sc = PairScenario(
            sys_x=sys, sys_y=sys, x0=[1.0], y0=[0.0],
            u_x=InputSignal.constant([0.0]), u_y=InputSignal.constant([0.0]),
            mode=CouplingMode.COMMON, grid=TimeGrid(0.0, 1.0, 300),
        )
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
            pair_error_moment(sc, n_paths=100, master_seed=0)
        assert err.value.path_index is not None

    def test_debug_guard_passes_on_sane_run(self):
        sc = _ou_pair_scenario(CouplingMode.INDEPENDENT, steps=200)
        guard = moment_growth_guard(1.0, [1.0])
        series = pair_error_moment(sc, n_paths=128, master_seed=3, debug_guard=guard)
        assert series.n_paths == 128


class TestTrackingErrorMoment:
    def test_started_at_equilibrium_noiseless_stays_zero(self):
        # sigma = 0, frozen theta, xi0 = 0, x0 = x*(theta): error is identically 0
        sys = scalar_tracker(1.0, 0.0)
        sc = CascadeScenario(
            noise=OUParams(c=1.0, sigma=0.0, dim=1),
            theta=InputSignal.constant([0.7]),
            sys=sys, x0=[0.7], xi0=[0.0], grid=TimeGrid(0.0, 1e-2, 100),
        )
        eq = EquilibriumMap.affine([[1.0]])
        for target in ("deterministic_curve", "stochastic_curve"):
            series = tracking_error_moment(sc, eq, target, n_paths=100, master_seed=0)
            assert np.all(series.mean_sq == 0.0)

    def test_unknown_target_rejected(self):
        sys = scalar_tracker(1.0, 0.1)
        sc = CascadeScenario(
            noise=OUParams(c=1.0, sigma=0.1, dim=1),
            theta=InputSignal.constant([0.0]),
            sys=sys, x0=[0.0], xi0=[0.0], grid=TimeGrid(0.0, 1e-2, 50),
        )
        with pytest.raises(InputError):
            tracking_error_moment(sc, EquilibriumMap.affine([[1.0]]), "nope",
                                  n_paths=100, master_seed=0)

    def test_jd_initial_input_outside_box_rejected_as_single_path(self):
        theta = InputSignal.constant([0.5])
        noise = JDParams(c=1.0, theta=theta, sigma_u=0.1, a=[1.0])
        sys = scalar_tracker(1.0, 0.2)
        grid = TimeGrid(0.0, 1e-2, 10)
        sc = CascadeScenario(noise=noise, theta=theta, sys=sys, x0=[0.5], xi0=[1.5], grid=grid)
        with pytest.raises(ConfigError) as ensemble:
            tracking_error_moment(sc, EquilibriumMap.affine([[1.0]]), "stochastic_curve",
                                  n_paths=100, master_seed=0)
        with pytest.raises(ConfigError) as single:
            integrate_cascade(noise, theta, sys, [0.5], [1.5], grid, RngLineage(0))
        assert str(ensemble.value) == str(single.value)

    def test_equilibrium_map_must_broadcast(self):
        # written for one input vector: a batch collapses to a single sum
        eq = EquilibriumMap(x_star=lambda u: np.atleast_1d(np.sum(u)), state_dim=1, input_dim=1)
        sc = CascadeScenario(
            noise=OUParams(c=1.0, sigma=0.1, dim=1), theta=InputSignal.constant([0.0]),
            sys=scalar_tracker(1.0, 0.1), x0=[0.0], xi0=[0.0], grid=TimeGrid(0.0, 1e-2, 20),
        )
        with pytest.raises(InputError, match=r"expected \(21, 1\)"):
            tracking_error_moment(sc, eq, "deterministic_curve", n_paths=100, master_seed=0)

    def test_didc_envelope_holds_on_small_scenario(self):
        # F = -2(x - theta), theta = sin t, system noise 0.2
        c = 2.0
        sys = affine_system([[-c]], [[c]], [[0.2]], identity_metric(1))
        sc = CascadeScenario(
            noise=OUParams(c=c, sigma=0.0, dim=1),
            theta=InputSignal.sinusoid([1.0]),
            sys=sys, x0=[0.0], xi0=[0.0], grid=TimeGrid(0.0, 2e-3, 2500),
        )
        eq = EquilibriumMap.affine([[1.0]])
        series = tracking_error_moment(sc, eq, "deterministic_curve",
                                       n_paths=2000, master_seed=4)
        p = BoundParams(c=c, ell=c, sigma_x_sq=0.04, E0=0.0,
                        theta_dot_sq=lambda ts: np.cos(np.asarray(ts)) ** 2,
                        theta_dot_sq_limsup=1.0)
        env = make_envelope("track_didc", p)
        for alpha in (0.2, 0.35, 0.5, 0.65, 0.8):
            verdict = check_envelope(series, env, ("fixed", alpha))
            assert verdict.holds, f"alpha={alpha}: margin {verdict.worst_margin}"
        assert check_envelope(series, env, "optimized").holds

    def test_draw_memory_does_not_grow_with_the_horizon(self):
        # 100 paths x 50k steps of m + r = 2 normals: 80 MB if drawn at once
        import tracemalloc

        from contracting_sde.integrate import DRAW_BLOCK_BYTES

        sc = CascadeScenario(
            noise=OUParams(c=1.0, sigma=0.3, dim=1), theta=InputSignal.constant([0.5]),
            sys=scalar_tracker(1.0, 0.2), x0=[0.5], xi0=[0.0], grid=TimeGrid(0.0, 1e-3, 50_000),
        )
        tracemalloc.start()
        try:
            tracking_error_moment(sc, EquilibriumMap.affine([[1.0]]), "deterministic_curve",
                                  n_paths=100, master_seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * DRAW_BLOCK_BYTES


class TestOuMoment:
    def test_exact_matches_closed_form_everywhere(self):
        p = OUParams(c=1.0, sigma=1.0, dim=1)
        grid = TimeGrid(0.0, 0.05, 80)
        series = ou_moment(p, [2.0], grid, n_paths=4000, master_seed=5)
        for k in (10, 40, 80):
            t = grid.times()[k]
            expect = 4.0 * math.exp(-2.0 * t) + 0.5 * (1.0 - math.exp(-2.0 * t))
            assert abs(series.mean_sq[k] - expect) <= 3.0 * series.std_err[k]

    def test_euler_within_bias_band(self):
        p = OUParams(c=1.0, sigma=1.0, dim=1)
        grid = TimeGrid(0.0, 1e-2, 200)
        series = ou_moment(p, [2.0], grid, n_paths=2000, master_seed=6, method="euler")
        t = grid.horizon
        expect = 4.0 * math.exp(-2.0 * t) + 0.5 * (1.0 - math.exp(-2.0 * t))
        assert abs(series.mean_sq[-1] - expect) <= 3.0 * series.std_err[-1] + 2.0 * grid.dt

    def test_unknown_method(self):
        with pytest.raises(InputError):
            ou_moment(OUParams(c=1.0, sigma=1.0), [0.0], TimeGrid(0.0, 0.1, 10),
                      n_paths=100, master_seed=0, method="milstein")


class TestVerdicts:
    def _flat_series(self, value, se=0.0, steps=20):
        grid = TimeGrid(0.0, 0.1, steps)
        return MomentSeries(grid=grid,
                            mean_sq=np.full(steps + 1, value),
                            std_err=np.full(steps + 1, se), n_paths=1000)

    def test_trivial_hold_and_fail(self):
        env = Envelope(eval=lambda t, a: 1.0, limsup=lambda a: 1.0)
        assert check_envelope(self._flat_series(0.5), env, ("fixed", 0.5)).holds
        v = check_envelope(self._flat_series(2.0), env, ("fixed", 0.5))
        assert not v.holds
        assert v.worst_margin == pytest.approx(-1.0)

    def test_slack_admits_three_standard_errors(self):
        env = Envelope(eval=lambda t, a: 1.0, limsup=lambda a: 1.0)
        assert check_envelope(self._flat_series(1.25, se=0.1), env, ("fixed", 0.5)).holds
        assert not check_envelope(self._flat_series(1.35, se=0.1), env, ("fixed", 0.5)).holds

    def test_compare_to_bound_shape_check(self):
        with pytest.raises(InputError):
            compare_to_bound(self._flat_series(1.0), np.ones(3))

    def test_bad_alpha_policy(self):
        env = Envelope(eval=lambda t, a: 1.0, limsup=lambda a: 1.0)
        with pytest.raises(InputError):
            check_envelope(self._flat_series(0.5), env, "halfway")
        with pytest.raises(InputError):
            check_envelope(self._flat_series(0.5), env, ("maximized", 0.5))


class TestTailStatistics:
    def test_constant_series(self):
        mean, peak = tail_average(np.full(101, 3.0), 0.2)
        assert mean == 3.0 and peak == 3.0

    def test_decaying_series_max_at_window_start(self):
        ts = np.linspace(0.0, 10.0, 101)
        vals = np.exp(-ts)
        mean, peak = tail_average(vals, 0.2)
        assert peak == pytest.approx(math.exp(-8.0), rel=1e-12)
        assert mean < peak

    def test_window_too_short(self):
        with pytest.raises(InputError):
            tail_average(np.ones(11), 0.2)
        with pytest.raises(InputError):
            tail_average(np.ones(101), 0.0)


class TestStatisticalConsistency:
    def test_standard_error_shrinks_with_path_count(self):
        sc = _ou_pair_scenario(CouplingMode.INDEPENDENT, x0=0.0, y0=0.0, steps=100)
        small = pair_error_moment(sc, n_paths=400, master_seed=7)
        large = pair_error_moment(sc, n_paths=1600, master_seed=7)
        ratio = np.median(small.std_err[1:] / large.std_err[1:])
        assert 1.5 <= ratio <= 2.5  # expect about sqrt(4) = 2


class TestReproducibility:
    def test_worker_count_does_not_change_results(self):
        sc = _ou_pair_scenario(CouplingMode.INDEPENDENT, steps=200)
        a = pair_error_moment(sc, n_paths=1200, master_seed=8, n_workers=1)
        b = pair_error_moment(sc, n_paths=1200, master_seed=8, n_workers=3)
        assert np.array_equal(a.mean_sq, b.mean_sq)
        assert np.array_equal(a.std_err, b.std_err)

    def test_ou_moment_reproducible_across_workers(self):
        p = OUParams(c=1.0, sigma=1.0, dim=2)
        grid = TimeGrid(0.0, 1e-2, 100)
        a = ou_moment(p, [1.0, -1.0], grid, n_paths=1100, master_seed=9, n_workers=1)
        b = ou_moment(p, [1.0, -1.0], grid, n_paths=1100, master_seed=9, n_workers=4)
        assert np.array_equal(a.mean_sq, b.mean_sq)
