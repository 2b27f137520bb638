"""Tests for trajectory generation: Euler-Maruyama, coupled pairs,
input-noise cascades and the RK4 reference solver."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from contracting_sde import (
    ConfigError,
    CouplingMode,
    DivergenceError,
    InputSignal,
    JDParams,
    OUParams,
    RngLineage,
    SystemSpec,
    TimeGrid,
    affine_system,
    default_dt,
    euler_maruyama,
    identity_metric,
    integrate_cascade,
    integrate_pair,
    ode_rk4,
    ou_second_moment,
    scalar_tracker,
)

ZERO = InputSignal.constant([0.0])


class TestEulerMaruyama:
    def test_deterministic_linear_decay(self):
        sys = affine_system([[-1.0]], [[1.0]], [[0.0]], identity_metric(1))
        grid = TimeGrid(0.0, 1e-4, 10_000)
        traj = euler_maruyama(sys, [1.0], ZERO, grid, RngLineage(0))
        assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-3)

    def test_zero_steps(self):
        sys = scalar_tracker(1.0, 0.5)
        traj = euler_maruyama(sys, [2.5], ZERO, TimeGrid(0.0, 0.01, 0), RngLineage(0))
        assert traj.states.shape == (1, 1)
        assert traj.states[0, 0] == 2.5

    def test_ou_terminal_moment_matches_oracle(self):
        # F = -c x, constant Sigma = sigma: terminal E x^2 vs the closed form
        c, sigma = 1.0, 0.8
        sys = affine_system([[-c]], [[0.0]], [[sigma]], identity_metric(1))
        grid = TimeGrid(0.0, 1e-3, 1000)
        n = 10_000
        terminal = np.empty(n)
        # vectorize the identical recursion over paths with one bulk stream
        Z = RngLineage(4, 0).stream().standard_normal((n, grid.steps))
        x = np.full(n, 1.5)
        sq_dt = math.sqrt(grid.dt)
        for k in range(grid.steps):
            x = x - c * x * grid.dt + sigma * sq_dt * Z[:, k]
        terminal[:] = x**2
        se = terminal.std(ddof=1) / math.sqrt(n)
        oracle = ou_second_moment(1.5**2, c, sigma, grid.horizon)
        assert abs(terminal.mean() - oracle) <= 3.0 * se

    def test_determinism(self):
        sys = scalar_tracker(1.0, 0.5)
        grid = TimeGrid(0.0, 1e-3, 100)
        a = euler_maruyama(sys, [1.0], ZERO, grid, RngLineage(3, 1))
        b = euler_maruyama(sys, [1.0], ZERO, grid, RngLineage(3, 1))
        assert np.array_equal(a.states, b.states)

    def test_divergence_error_carries_step(self):
        exploding = SystemSpec(
            state_dim=1, input_dim=1,
            drift=lambda x, u: 1e3 * x,
            dispersion=lambda x, u: np.zeros((1, 1)),
            metric=identity_metric(1),
            constants={"c": 1.0, "ell": 0.0, "sigma_x_sq": 0.0},
        )
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as exc:
            euler_maruyama(exploding, [1.0], ZERO, TimeGrid(0.0, 1.0, 200), RngLineage(0))
        assert exc.value.step is not None and exc.value.step > 0

    def test_step_size_warning(self):
        sys = scalar_tracker(1.0, 0.1)
        big = TimeGrid(0.0, 0.5, 2)
        with pytest.warns(RuntimeWarning, match="dt"):
            euler_maruyama(sys, [1.0], ZERO, big, RngLineage(0))

    def test_default_dt_guidance(self):
        assert default_dt(1.0) == 1e-3
        assert default_dt(100.0) == pytest.approx(5e-4)


class TestIntegratePair:
    def test_common_identical_bitwise_equal(self):
        sys = scalar_tracker(1.0, 0.4)
        grid = TimeGrid(0.0, 1e-3, 500)
        tx, ty = integrate_pair(sys, sys, [1.0], [1.0], ZERO, ZERO,
                                CouplingMode.COMMON, grid, RngLineage(8))
        assert np.array_equal(tx.states, ty.states)

    def test_common_noise_cancels_difference_deterministic(self):
        # with constant Sigma and F = -c(x - u), the difference obeys the
        # deterministic recursion d' = (1 - c dt) d + c dt (u_x - u_y)
        c = 1.0
        sys = scalar_tracker(c, 0.4)
        grid = TimeGrid(0.0, 1e-3, 2000)
        ux, uy = InputSignal.constant([1.0]), InputSignal.constant([0.0])
        tx, ty = integrate_pair(sys, sys, [2.0], [0.0], ux, uy,
                                CouplingMode.COMMON, grid, RngLineage(8))
        diff = tx.states[:, 0] - ty.states[:, 0]
        k = np.arange(grid.steps + 1)
        expected = 1.0 + (2.0 - 1.0) * (1.0 - c * grid.dt) ** k
        assert np.max(np.abs(diff - expected)) <= 1e-10

    def test_common_mode_requires_equal_noise_dims(self):
        a = affine_system([[-1.0]], [[1.0]], [[0.1, 0.1]], identity_metric(1))
        b = scalar_tracker(1.0, 0.1)
        from contracting_sde import InputError
        with pytest.raises(InputError):
            integrate_pair(a, b, [0.0], [0.0], ZERO, ZERO,
                           CouplingMode.COMMON, TimeGrid(0.0, 1e-3, 10), RngLineage(0))

    def test_independent_mode_distinct_noise(self):
        sys = scalar_tracker(1.0, 0.4)
        grid = TimeGrid(0.0, 1e-3, 200)
        tx, ty = integrate_pair(sys, sys, [0.0], [0.0], ZERO, ZERO,
                                CouplingMode.INDEPENDENT, grid, RngLineage(8))
        assert not np.array_equal(tx.states, ty.states)

    def test_pathwise_contraction_invariant(self):
        # common noise, identical inputs: the weighted error contracts pathwise
        c = 1.0
        sys = scalar_tracker(c, 0.3)
        grid = TimeGrid(0.0, 1e-3, 5000)
        tx, ty = integrate_pair(sys, sys, [1.0], [0.0], ZERO, ZERO,
                                CouplingMode.COMMON, grid, RngLineage(5))
        diff = np.abs(tx.states[:, 0] - ty.states[:, 0])
        bound = 1.0 * np.exp(-c * grid.times()) * (1.0 + 10.0 * grid.dt * c)
        assert np.all(diff <= bound)


class TestIntegrateCascade:
    def test_noiseless_ou_input_reduces_to_theta(self):
        sys = scalar_tracker(1.0, 0.2)
        theta = InputSignal.sinusoid([1.0])
        noise = OUParams(c=1.0, sigma=0.0, dim=1)
        grid = TimeGrid(0.0, 1e-3, 500)
        u_traj, x_traj = integrate_cascade(noise, theta, sys, [0.0], [0.0],
                                           grid, RngLineage(0))
        assert np.array_equal(u_traj.states, theta.values(grid.times()))
        assert np.array_equal(x_traj.input_record, u_traj.states)

    def test_ou_cascade_moment_below_tail_bound(self):
        # constant theta, F = -c(x - u): the long-run tracking moment is finite
        # and below the stochastic-input tail bound evaluated near alpha -> 1
        from contracting_sde import BoundParams, track_ou_sidc_tail
        c, sigma, sigma_xi = 1.0, 0.2, 0.3
        sys = scalar_tracker(c, sigma)
        theta = InputSignal.constant([0.5])
        noise = OUParams(c=c, sigma=sigma_xi, dim=1)
        grid = TimeGrid(0.0, 2e-3, 4000)
        errs = []
        for i in range(200):
            _, x_traj = integrate_cascade(noise, theta, sys, [0.5], [0.0],
                                          grid, RngLineage(21, i))
            tail = x_traj.states[-800:, 0] - 0.5
            errs.append(float(np.mean(tail**2)))
        emp = float(np.mean(errs))
        p = BoundParams(c=c, ell=c, sigma_x_sq=sigma**2, sigma_xi_sq=sigma_xi**2)
        bound = track_ou_sidc_tail(p, 0.9)
        se = float(np.std(errs, ddof=1)) / math.sqrt(len(errs))
        assert emp <= bound + 3.0 * se

    def test_jd_cascade_stays_in_domain(self):
        sys = scalar_tracker(1.0, 0.2)
        theta = InputSignal.constant([0.5])
        noise = JDParams(c=1.0, theta=theta, sigma_u=math.sqrt(0.5), a=[1.0])
        grid = TimeGrid(0.0, 1e-3, 2000)
        u_traj, _ = integrate_cascade(noise, theta, sys, [0.5], [0.5],
                                      grid, RngLineage(1))
        assert np.all(u_traj.states > 0.0)
        assert np.all(u_traj.states < 1.0)

    def test_jd_feller_violation_raises(self):
        sys = scalar_tracker(1.0, 0.2)
        theta = InputSignal.constant([0.5])
        noise = JDParams(c=1.0, theta=theta, sigma_u=math.sqrt(1.2), a=[1.0])
        with pytest.raises(ConfigError, match="Feller"):
            integrate_cascade(noise, theta, sys, [0.5], [0.5],
                              TimeGrid(0.0, 1e-3, 10), RngLineage(0))
        # the unsafe override allows the run
        integrate_cascade(noise, theta, sys, [0.5], [0.5],
                          TimeGrid(0.0, 1e-3, 10), RngLineage(0), unsafe=True)

    def test_jd_initial_condition_validated(self):
        sys = scalar_tracker(1.0, 0.2)
        theta = InputSignal.constant([0.5])
        noise = JDParams(c=1.0, theta=theta, sigma_u=0.1, a=[1.0])
        with pytest.raises(ConfigError):
            integrate_cascade(noise, theta, sys, [0.5], [1.5],
                              TimeGrid(0.0, 1e-3, 10), RngLineage(0))


class TestOdeRk4:
    def test_linear_decay(self):
        grid = TimeGrid(0.0, 0.01, 100)
        traj = ode_rk4(lambda t, x: -x, [1.0], grid)
        assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_sinusoid_tracking_vs_quadrature_oracle(self):
        # variation of constants: x(t) = e^{-ct} x0 + c int e^{-c(t-s)} sin s ds
        c, x0, t_end = 1.0, 0.3, 2.0
        grid = TimeGrid(0.0, 0.005, 400)
        traj = ode_rk4(lambda t, x: -c * (x - math.sin(t)), [x0], grid)
        integral, _ = scipy.integrate.quad(
            lambda s: math.exp(-c * (t_end - s)) * math.sin(s), 0.0, t_end,
            epsabs=1e-13, epsrel=1e-13,
        )
        oracle = math.exp(-c * t_end) * x0 + c * integral
        assert traj.states[-1, 0] == pytest.approx(oracle, abs=1e-8)

    def test_matrix_exponential_oracle(self):
        A = np.array([[-1.0, 1.0], [0.0, -2.0]])
        x0 = np.array([1.0, -1.0])
        grid = TimeGrid(0.0, 0.005, 200)
        traj = ode_rk4(lambda t, x: A @ x, x0, grid)
        oracle = scipy.linalg.expm(A * grid.horizon) @ x0
        assert np.max(np.abs(traj.states[-1] - oracle)) <= 1e-8

    def test_divergence_detection(self):
        with np.errstate(over="ignore"), pytest.raises(DivergenceError):
            ode_rk4(lambda t, x: x**3, [10.0], TimeGrid(0.0, 1.0, 50))


class TestMomentSanity:
    def test_second_moment_below_growth_envelope(self):
        # coarse a-priori bound E||x_t||^2 <= (1 + ||x0||^2) e^{(1+L) t}
        sys = scalar_tracker(1.0, 0.5)
        L = sys.lipschitz_budget
        grid = TimeGrid(0.0, 1e-3, 2000)
        acc = np.zeros(grid.steps + 1)
        n = 200
        for i in range(n):
            traj = euler_maruyama(sys, [1.0], ZERO, grid, RngLineage(6, i))
            acc += traj.states[:, 0] ** 2
        mean_sq = acc / n
        envelope = (1.0 + 1.0) * np.exp((1.0 + L) * grid.times())
        assert np.all(mean_sq <= envelope)


class TestSharedKernel:
    """Ensembles step paths in blocks through the same generators that the
    single-path integrators run on a block of one."""

    SEED, START, COUNT = 11, 3, 6

    def _pair_block(self, sys, x0, y0, ux, uy, mode, grid):
        from contracting_sde.integrate import _block, _pair_states

        states = list(_pair_states(
            sys, sys, _block(x0, sys.state_dim, self.COUNT), _block(y0, sys.state_dim, self.COUNT),
            ux.values(grid.times()), uy.values(grid.times()), mode, grid, self.SEED, self.START))
        return np.stack([x for x, _ in states], axis=1), np.stack([y for _, y in states], axis=1)

    @pytest.mark.parametrize("mode", list(CouplingMode))
    def test_pair_slot_bit_identical_to_single_path_1d(self, mode):
        sys = scalar_tracker(1.5, 0.4)
        grid = TimeGrid(0.0, 1e-2, 200)
        ux, uy = InputSignal.sinusoid([1.0]), ZERO
        xs, ys = self._pair_block(sys, [1.0], [-0.5], ux, uy, mode, grid)
        for i in range(self.COUNT):
            tx, ty = integrate_pair(sys, sys, [1.0], [-0.5], ux, uy, mode, grid,
                                    RngLineage(self.SEED, self.START + i))
            assert np.array_equal(xs[i], tx.states)
            assert np.array_equal(ys[i], ty.states)

    @pytest.mark.parametrize("kind", ["ou", "jd"])
    def test_cascade_slot_bit_identical_to_single_path_1d(self, kind):
        from contracting_sde.integrate import _block, _cascade_states

        sys = scalar_tracker(1.0, 0.2)
        theta = InputSignal.sinusoid([0.2], offset=[0.5])
        if kind == "ou":
            noise, xi0 = OUParams(c=1.0, sigma=0.3, dim=1), [0.1]
        else:
            noise, xi0 = JDParams(c=1.0, theta=theta, sigma_u=0.5, a=[1.0]), [0.4]
        grid = TimeGrid(0.0, 1e-2, 200)
        states = list(_cascade_states(
            noise, theta.values(grid.times()), sys, _block([0.3], 1, self.COUNT),
            _block(xi0, 1, self.COUNT), grid, self.SEED, self.START))
        xs = np.stack([x for x, _ in states], axis=1)
        us = np.stack([u for _, u in states], axis=1)
        for i in range(self.COUNT):
            tu, tx = integrate_cascade(noise, theta, sys, [0.3], xi0, grid,
                                       RngLineage(self.SEED, self.START + i))
            assert np.array_equal(us[i], tu.states)
            assert np.array_equal(xs[i], tx.states)

    @pytest.mark.parametrize("mode", list(CouplingMode))
    def test_pair_slot_agrees_with_single_path_2d(self, mode):
        # BLAS may round a product differently for another row count, so
        # for n >= 2 the agreement is to rounding, not bit for bit
        from contracting_sde import validate_metric

        metric = validate_metric([[2.0, 0.3], [0.3, 1.0]])
        sys = affine_system([[-1.0, 0.4], [-0.3, -1.5]], [[1.0, 0.2], [0.0, 0.8]],
                            [[0.3, 0.1], [0.05, 0.2]], metric)
        grid = TimeGrid(0.0, 1e-2, 200)
        ux, uy = InputSignal.sinusoid([1.0, 0.5]), InputSignal.constant([0.2, -0.1])
        xs, ys = self._pair_block(sys, [1.0, -1.0], [0.0, 0.5], ux, uy, mode, grid)
        for i in range(self.COUNT):
            tx, ty = integrate_pair(sys, sys, [1.0, -1.0], [0.0, 0.5], ux, uy, mode, grid,
                                    RngLineage(self.SEED, self.START + i))
            for block, single in ((xs[i], tx.states), (ys[i], ty.states)):
                assert np.max(np.abs(block - single)) <= 1e-14 * np.max(np.abs(single))
            err_block = metric.batch_norm_sq(xs[i] - ys[i])
            err_single = metric.batch_norm_sq(tx.states - ty.states)
            assert np.max(np.abs(err_block - err_single)) <= 1e-14 * np.max(err_single)

    def test_finite_check_names_first_bad_path(self):
        from contracting_sde.integrate import _check_finite

        for bad in (np.nan, np.inf):
            x = np.zeros((5, 2))
            x[3, 1] = bad
            x[4, 0] = bad
            with pytest.raises(DivergenceError) as exc:
                _check_finite(x, 7, 100)
            assert exc.value.path_index == 103
            assert exc.value.step == 7

    def test_finite_check_passes_finite_rows_whose_sum_overflows(self):
        from contracting_sde.integrate import _check_finite

        x = np.full((4, 1), 1e308)
        with np.errstate(over="ignore"):
            assert not np.isfinite(x.sum())
            _check_finite(x, 1, 0)

    def test_single_path_divergence_names_its_lineage(self):
        exploding = SystemSpec(
            state_dim=1, input_dim=1,
            drift=lambda x, u: 1e3 * x,
            dispersion=lambda x, u: np.zeros((1, 1)),
            metric=identity_metric(1),
            constants={"c": 1.0, "ell": 0.0, "sigma_x_sq": 0.0},
        )
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as exc:
            euler_maruyama(exploding, [1.0], ZERO, TimeGrid(0.0, 1.0, 200), RngLineage(0, 42))
        assert exc.value.path_index == 42
