"""Tests for trajectory generation: Euler-Maruyama, coupled pairs,
input-noise cascades and the RK4 reference solver."""

import dataclasses
import faulthandler
import math
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from contracting_sde import (
    CascadeScenario,
    Certificate,
    ConfigError,
    CouplingMode,
    DivergenceError,
    EquilibriumMap,
    InputError,
    InputSignal,
    JDParams,
    OUParams,
    PairScenario,
    RngLineage,
    SystemSpec,
    TimeGrid,
    WassersteinScenario,
    affine_system,
    default_dt,
    euler_maruyama,
    feller_check,
    identity_metric,
    integrate_cascade,
    integrate_pair,
    ode_rk4,
    ou_moment,
    ou_second_moment,
    pair_error_moment,
    scalar_tracker,
    tracking_error_moment,
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
            certificate=Certificate(1.0, 0.0, 0.0, "exact-affine"),
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
        from contracting_sde import BoundParams, make_envelope
        c, sigma, sigma_xi = 1.0, 0.2, 0.3
        sys = scalar_tracker(c, sigma)
        theta = InputSignal.constant([0.5])
        noise = OUParams(c=c, sigma=sigma_xi, dim=1)
        grid = TimeGrid(0.0, 2e-3, 4000)
        # the lineages RngLineage(21, i), i < 200, as one block: in 1-D each
        # slot is bit-identical to integrate_cascade on that lineage
        from contracting_sde.integrate import _collect
        xs, _ = _collect(CascadeScenario(noise, theta, sys, [0.5], np.zeros(1), grid)._blocks(
            21, 0, 200), grid.steps)
        xs = xs[:, :, 0].T  # (paths, steps+1)
        errs = []
        for path in xs:
            tail = path[-800:] - 0.5
            errs.append(float(np.mean(tail**2)))
        emp = float(np.mean(errs))
        p = BoundParams(c=c, ell=c, sigma_x_sq=sigma**2, sigma_xi_sq=sigma_xi**2)
        bound = make_envelope("track_ou_sidc", p).limsup(0.9)
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
        integrate_cascade(dataclasses.replace(noise, unsafe=True), theta, sys, [0.5], [0.5],
                          TimeGrid(0.0, 1e-3, 10), RngLineage(0))

    def test_jd_feller_is_checked_on_the_whole_grid(self):
        # theta = 0.5 + 0.45 sin t: the margin is +0.255 at t = 0 and -0.195
        # where theta peaks, at t = pi/2
        sys = scalar_tracker(1.0, 0.2)
        theta = InputSignal.sinusoid([0.45], offset=[0.5])
        noise = JDParams(c=1.0, theta=theta, sigma_u=0.7, a=[1.0])
        assert feller_check(noise, [0.0])["margin"] == pytest.approx(0.255)
        grid = TimeGrid(0.0, 1e-2, 200)
        with pytest.raises(ConfigError, match=r"Feller.*margin -0\.195"):
            integrate_cascade(noise, theta, sys, [0.5], [0.5], grid, RngLineage(0))
        u_traj, _ = integrate_cascade(dataclasses.replace(noise, unsafe=True), theta, sys,
                                      [0.5], [0.5], grid, RngLineage(0))
        assert np.all((u_traj.states > 0.0) & (u_traj.states < 1.0))

    def test_jd_initial_condition_validated(self):
        sys = scalar_tracker(1.0, 0.2)
        theta = InputSignal.constant([0.5])
        noise = JDParams(c=1.0, theta=theta, sigma_u=0.1, a=[1.0])
        with pytest.raises(ConfigError):
            integrate_cascade(noise, theta, sys, [0.5], [1.5],
                              TimeGrid(0.0, 1e-3, 10), RngLineage(0))


    def test_jd_theta_must_be_the_noise_theta(self):
        # a JD cascade steps toward noise.theta: a cascade theta that differs
        # from it on the grid is refused, not silently ignored
        sys = scalar_tracker(1.0, 0.2)
        noise = JDParams(c=1.0, theta=InputSignal.constant([0.5]), sigma_u=0.3, a=[1.0])
        grid, eq = TimeGrid(0.0, 1e-2, 50), EquilibriumMap.affine([[1.0]])
        other = InputSignal.sinusoid([0.1], offset=[0.5])  # equal to it at t = 0 only
        with pytest.raises(InputError, match="JD cascade's theta differs on the grid"):
            integrate_cascade(noise, other, sys, [0.5], [0.5], grid, RngLineage(0))
        with pytest.raises(InputError, match="JD cascade's theta differs on the grid"):
            sc = CascadeScenario(noise, other, sys, [0.5], [0.5], grid)
            tracking_error_moment(sc, eq, "deterministic_curve", 100, 0)
        # a signal equal to noise.theta on the grid runs the same cascade
        runs = [integrate_cascade(noise, th, sys, [0.5], [0.5], grid, RngLineage(0))
                for th in (noise.theta, InputSignal.constant([0.5]))]
        for a, b in zip(*runs):
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.input_record, b.input_record)

    def test_noise_dimension_must_be_the_input_dimension(self):
        with pytest.raises(InputError, match="noise dimension does not match system input"):
            integrate_cascade(OUParams(c=1.0, sigma=0.1, dim=2), InputSignal.constant([0.0]),
                              scalar_tracker(1.0, 0.2), [0.0], [0.0, 0.0],
                              TimeGrid(0.0, 1e-2, 10), RngLineage(0))


class TestScenarioChecks:
    """A pair or cascade is checked when it is made, also by the integrators
    that make one: a bad field raises InputError naming it."""

    SYS = scalar_tracker(1.0, 0.3)
    GRID = TimeGrid(0.0, 1e-2, 50)
    WIDE = InputSignal.constant([0.0, 0.0])  # two components for a one-input system
    OU = OUParams(c=1.0, sigma=0.1, dim=1)

    @pytest.mark.parametrize("name, make", [
        ("u", lambda s: euler_maruyama(s.SYS, [0.0], s.WIDE, s.GRID, RngLineage(0))),
        ("u_y", lambda s: integrate_pair(s.SYS, s.SYS, [0.0], [0.0], ZERO, s.WIDE,
                                         CouplingMode.INDEPENDENT, s.GRID, RngLineage(0))),
        ("theta", lambda s: integrate_cascade(s.OU, s.WIDE, s.SYS, [0.0], [0.0], s.GRID,
                                              RngLineage(0))),
        ("u_x", lambda s: PairScenario(s.SYS, s.SYS, [0.0], [0.0], s.WIDE, ZERO,
                                       CouplingMode.INDEPENDENT, s.GRID)),
        ("theta", lambda s: CascadeScenario(s.OU, s.WIDE, s.SYS, [0.0], [0.0], s.GRID)),
        ("u_y", lambda s: WassersteinScenario(s.SYS, s.SYS, np.zeros((8, 1)), np.ones((8, 1)),
                                              ZERO, s.WIDE, s.GRID)),
    ], ids=["euler_maruyama", "integrate_pair", "integrate_cascade", "pair_error_moment",
            "tracking_error_moment", "wasserstein_series"])
    def test_a_signal_of_the_wrong_dimension_is_named(self, name, make):
        # the scenarios of the three estimators refuse it when made
        with pytest.raises(InputError, match=f"^{name} has 2 components; its system has 1 inputs$"):
            make(self)

    def test_a_mode_given_as_its_value_is_that_mode(self):
        # one system from one start on common noise: x and y never part
        u = InputSignal.sinusoid([1.0])
        series = [pair_error_moment(PairScenario(self.SYS, self.SYS, [1.0], [1.0], u, u, mode,
                                                 self.GRID), 100, 3)
                  for mode in (CouplingMode.COMMON, "common")]
        assert np.array_equal(series[0].mean_sq, series[1].mean_sq)
        assert np.array_equal(series[0].std_err, series[1].std_err)
        assert not series[1].mean_sq.any()
        tx, ty = integrate_pair(self.SYS, self.SYS, [1.0], [1.0], u, u, "common", self.GRID,
                                RngLineage(3, 7))
        assert np.array_equal(tx.states, ty.states)
        sc = PairScenario(self.SYS, self.SYS, [1], 2, u, u, "independent", self.GRID)
        assert sc.mode is CouplingMode.INDEPENDENT
        assert sc.x0.dtype == sc.y0.dtype == float and sc.x0.shape == sc.y0.shape == (1,)

    def test_an_unknown_mode_is_refused(self):
        with pytest.raises(InputError, match="unknown coupling mode 'bogus'"):
            PairScenario(self.SYS, self.SYS, [0.0], [0.0], ZERO, ZERO, "bogus", self.GRID)
        with pytest.raises(InputError, match="unknown coupling mode 'bogus'"):
            integrate_pair(self.SYS, self.SYS, [0.0], [0.0], ZERO, ZERO, "bogus", self.GRID,
                           RngLineage(0))

    def test_the_step_size_warning_fires_when_made(self):
        # and not at a run: tier-1 turns a RuntimeWarning into an error
        big = TimeGrid(0.0, 0.5, 2)
        with pytest.warns(RuntimeWarning, match="dt"):
            pair = PairScenario(self.SYS, self.SYS, [0.0], [0.0], ZERO, ZERO,
                                CouplingMode.INDEPENDENT, big)
        with pytest.warns(RuntimeWarning, match="dt"):
            cascade = CascadeScenario(self.OU, ZERO, self.SYS, [0.0], [0.0], big)
        pair_error_moment(pair, 100, 0)
        tracking_error_moment(cascade, EquilibriumMap.affine([[1.0]]), "deterministic_curve",
                              100, 0)


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
        # the lineages RngLineage(6, i), i < n, as one block: in 1-D each
        # slot is bit-identical to euler_maruyama on that lineage
        from contracting_sde.integrate import _block, _blocks, _collect
        (xs,) = _collect(_blocks([sys], [_block([1.0], 1, n)], [ZERO.values(grid.times())],
                                 grid, 6, 0), grid.steps)
        for path in xs[:, :, 0].T:
            acc += path**2
        mean_sq = acc / n
        envelope = (1.0 + 1.0) * np.exp((1.0 + L) * grid.times())
        assert np.all(mean_sq <= envelope)


class TestSharedKernel:
    """Ensembles step paths in blocks through the same generators that the
    single-path integrators run on a block of one."""

    SEED, START, COUNT = 11, 3, 6

    def _pair_block(self, sys, x0, y0, ux, uy, mode, grid):
        from contracting_sde.integrate import _block, _blocks, _collect

        n = sys.state_dim
        xs, ys = _collect(_blocks(
            [sys, sys], [_block(x0, n, self.COUNT), _block(y0, n, self.COUNT)],
            [ux.values(grid.times()), uy.values(grid.times())], grid, self.SEED, self.START,
            common=mode is CouplingMode.COMMON), grid.steps)
        return xs.transpose(1, 0, 2), ys.transpose(1, 0, 2)

    # a budget at which the COUNT-row block of a 200-step horizon spans
    # 4 or more draw blocks, the last one partial (a single path spans fewer)
    SMALL_BUDGET = 8 * COUNT * 47

    def _assert_spans_blocks(self, steps, width):
        from contracting_sde.integrate import _draws

        spans = [b.shape[1] for b in _draws(self.SEED, self.START, self.COUNT, steps, width)]
        assert len(spans) >= 3 and spans[-1] < spans[0]

    def _assert_pair_slots_bit_identical(self, mode):
        sys = scalar_tracker(1.5, 0.4)
        grid = TimeGrid(0.0, 1e-2, 200)
        ux, uy = InputSignal.sinusoid([1.0]), ZERO
        xs, ys = self._pair_block(sys, [1.0], [-0.5], ux, uy, mode, grid)
        for i in range(self.COUNT):
            tx, ty = integrate_pair(sys, sys, [1.0], [-0.5], ux, uy, mode, grid,
                                    RngLineage(self.SEED, self.START + i))
            assert np.array_equal(xs[i], tx.states)
            assert np.array_equal(ys[i], ty.states)

    @pytest.mark.parametrize("mode", list(CouplingMode))
    def test_pair_slot_bit_identical_to_single_path_1d(self, mode):
        self._assert_pair_slots_bit_identical(mode)

    @pytest.mark.parametrize("mode", list(CouplingMode))
    def test_pair_slot_bit_identical_across_draw_blocks(self, mode, monkeypatch):
        from contracting_sde import integrate

        monkeypatch.setattr(integrate, "DRAW_BLOCK_BYTES", self.SMALL_BUDGET)
        self._assert_spans_blocks(200, 1 if mode is CouplingMode.COMMON else 2)
        self._assert_pair_slots_bit_identical(mode)

    @pytest.mark.parametrize("kind", ["ou", "jd"])
    def test_cascade_slot_bit_identical_to_single_path_1d(self, kind):
        self._assert_cascade_slots_bit_identical(kind)

    @pytest.mark.parametrize("kind", ["ou", "jd"])
    def test_cascade_slot_bit_identical_across_draw_blocks(self, kind, monkeypatch):
        from contracting_sde import integrate

        monkeypatch.setattr(integrate, "DRAW_BLOCK_BYTES", self.SMALL_BUDGET)
        self._assert_spans_blocks(200, 2)
        self._assert_cascade_slots_bit_identical(kind)

    # 23-step draw blocks for COUNT rows of 4 normals, the last one of 1 step
    @pytest.mark.parametrize("budget", [None, 8 * COUNT * 4 * 24], ids=["one_draw_block", "small"])
    def test_jd_cascade_rows_match_a_reference_step(self, budget, monkeypatch):
        # the kernel's Jacobi input of each path, against the full-truncation
        # Euler step written out here on that path's own Philox draws; 300
        # steps span three sub-blocks, and the small budget several draw
        # blocks besides. sigma_u^2 > c, so the run is unsafe and clamps.
        from contracting_sde import integrate
        from contracting_sde.integrate import _collect

        if budget is not None:
            monkeypatch.setattr(integrate, "DRAW_BLOCK_BYTES", budget)
            self._assert_spans_blocks(300, 4)
        sys = affine_system(-np.eye(2), np.eye(2), 0.2 * np.eye(2), identity_metric(2))
        theta = InputSignal.sinusoid([0.2, 0.5], offset=[0.5, 1.0])
        a, c, sigma_u = np.array([1.0, 2.0]), 1.0, 3.0
        noise = JDParams(c=c, theta=theta, sigma_u=sigma_u, a=a, unsafe=True)
        grid = TimeGrid(0.0, 2e-2, 300)
        th = theta.values(grid.times())
        xs, us = _collect(CascadeScenario(noise, theta, sys, [0.0, 0.0], [0.4, 1.2], grid)._blocks(
            self.SEED, self.START, self.COUNT), grid.steps)
        lo, hi = 1e-12 * a, a - 1e-12 * a
        clamps = 0
        for i in range(self.COUNT):
            z = RngLineage(self.SEED, self.START + i).stream().standard_normal((300, 4))[:, :2]
            u = np.array([0.4, 1.2])
            for k in range(grid.steps):
                assert np.array_equal(us[k, i], u), (i, k)
                prop = (u - (c * (u - th[k])) * grid.dt) + (
                    (sigma_u * np.sqrt(np.maximum(u * (a - u), 0.0))) * z[k]) * math.sqrt(grid.dt)
                clamps += np.count_nonzero((prop < lo) | (prop > hi))
                u = np.where(prop < lo, lo, np.where(prop > hi, hi, prop))
            assert np.array_equal(us[-1, i], u)
        assert clamps > 10

    def _assert_cascade_slots_bit_identical(self, kind):
        from contracting_sde.integrate import _collect

        sys = scalar_tracker(1.0, 0.2)
        theta = InputSignal.sinusoid([0.2], offset=[0.5])
        if kind == "ou":
            noise, xi0 = OUParams(c=1.0, sigma=0.3, dim=1), [0.1]
        else:
            noise, xi0 = JDParams(c=1.0, theta=theta, sigma_u=0.5, a=[1.0]), [0.4]
        grid = TimeGrid(0.0, 1e-2, 200)
        xs, us = _collect(CascadeScenario(noise, theta, sys, [0.3], xi0, grid)._blocks(
            self.SEED, self.START, self.COUNT), grid.steps)
        xs, us = xs.transpose(1, 0, 2), us.transpose(1, 0, 2)
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

    @pytest.mark.parametrize("seed, start, count, width", [
        (-5, 2**64 - 3, 6, 2),  # negative seed; keys wrap past 2^64
        (7, 0, 1, 3),
        (123, 40, 5, 1),
    ])
    def test_blocked_draws_equal_one_call_per_path(self, seed, start, count, width, monkeypatch):
        from contracting_sde import integrate

        steps = 150
        monkeypatch.setattr(integrate, "DRAW_BLOCK_BYTES", 8 * count * width * 41)
        blocks = [b.copy() for b in integrate._draws(seed, start, count, steps, width)]
        assert [b.shape[1] for b in blocks] == [40, 40, 40, 30]
        drawn = np.concatenate(blocks, axis=1)
        for i in range(count):
            ref = RngLineage(seed, start + i).stream().standard_normal((steps, width))
            assert np.array_equal(drawn[i], ref)

    def test_system_without_noise_columns_draws_nothing(self):
        sys = affine_system([[-1.0]], [[1.0]], np.zeros((1, 0)), identity_metric(1))
        grid = TimeGrid(0.0, 1e-2, 100)
        traj = euler_maruyama(sys, [1.0], ZERO, grid, RngLineage(0))
        assert np.allclose(traj.states[:, 0], (1.0 - grid.dt) ** np.arange(grid.steps + 1),
                           rtol=1e-12, atol=0.0)

    def test_draw_buffer_is_bounded_whatever_the_horizon(self):
        from contracting_sde import integrate

        for steps in (10, 10_000, 1_000_000):
            block = next(integrate._draws(0, 0, 512, steps, 2))
            assert block.base.nbytes <= integrate.DRAW_BLOCK_BYTES

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
            certificate=Certificate(1.0, 0.0, 0.0, "exact-affine"),
        )
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as exc:
            euler_maruyama(exploding, [1.0], ZERO, TimeGrid(0.0, 1.0, 200), RngLineage(0, 42))
        assert exc.value.path_index == 42


def _closure_twin(sys):
    """The same (A, B, Sigma) as ``sys``, given only through drift and dispersion closures."""
    A, B = sys.affine
    Sigma = sys.dispersion_matrix
    return SystemSpec(
        state_dim=sys.state_dim, input_dim=sys.input_dim,
        drift=lambda x, u: x @ A.T + u @ B.T, dispersion=lambda x, u: Sigma,
        metric=sys.metric, certificate=sys.certificate, noise_dim=sys.noise_dim,
        lipschitz_budget=sys.lipschitz_budget,
    )


class TestAffineData:
    """A system given as data, SystemSpec.affine = (A, B) with its dispersion
    matrix, steps through the fused sub-block path; the closures of the same
    system step one call at a time. Both must give the same numbers."""

    SEED = 17
    GRID = TimeGrid(0.0, 1e-2, 300)  # two full sub-blocks and a partial one

    def _systems(self, dim):
        from contracting_sde import validate_metric

        if dim == 1:
            sys = affine_system([[-1.5]], [[1.2]], [[0.4]], validate_metric([[1.3]]))
        else:
            metric = validate_metric([[2.0, 0.3], [0.3, 1.0]])
            sys = affine_system([[-1.0, 0.4], [-0.3, -1.5]], [[1.0, 0.2], [0.0, 0.8]],
                                [[0.3, 0.1], [0.05, 0.2]], metric)
        twin = _closure_twin(sys)
        assert sys.affine is not None and twin.affine is None
        return sys, twin

    def _assert_same(self, a, b, dim):
        a, b = np.asarray(a), np.asarray(b)
        if dim == 1:
            assert np.array_equal(a, b)
        else:
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))

    def _pair_outputs(self, sys, mode, dim):
        from contracting_sde import PairScenario, pair_error_moment

        ux = InputSignal.sinusoid([1.0] * dim, omega=2.0)
        uy = InputSignal.constant([0.3] * dim)
        x0, y0 = [0.5] * dim, [-0.2] * dim
        sc = PairScenario(sys_x=sys, sys_y=sys, x0=x0, y0=y0, u_x=ux, u_y=uy,
                          mode=mode, grid=self.GRID)
        series = pair_error_moment(sc, n_paths=600, master_seed=self.SEED)
        tx, ty = integrate_pair(sys, sys, x0, y0, ux, uy, mode, self.GRID, RngLineage(self.SEED, 7))
        return [series.mean_sq, series.std_err, tx.states, ty.states]

    def _cascade_outputs(self, sys, kind, dim, eq):
        from contracting_sde import CascadeScenario, tracking_error_moment

        theta = InputSignal.sinusoid([0.2] * dim, offset=[0.5] * dim)
        if kind == "ou":
            noise, xi0 = OUParams(c=1.0, sigma=0.3, dim=dim), [0.1] * dim
        else:
            noise, xi0 = JDParams(c=1.0, theta=theta, sigma_u=0.5, a=[1.0] * dim), [0.4] * dim
        sc = CascadeScenario(noise=noise, theta=theta, sys=sys, x0=[0.3] * dim, xi0=xi0,
                             grid=self.GRID)
        out = []
        for target in ("deterministic_curve", "stochastic_curve"):
            series = tracking_error_moment(sc, eq, target, n_paths=600, master_seed=self.SEED)
            out += [series.mean_sq, series.std_err]
        tu, tx = integrate_cascade(noise, theta, sys, [0.3] * dim, xi0, self.GRID,
                                   RngLineage(self.SEED, 7))
        return out + [tu.states, tx.states]

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("mode", list(CouplingMode))
    def test_pair_affine_matches_closures(self, mode, dim):
        sys, twin = self._systems(dim)
        for a, b in zip(self._pair_outputs(sys, mode, dim), self._pair_outputs(twin, mode, dim)):
            self._assert_same(a, b, dim)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["ou", "jd"])
    def test_cascade_affine_matches_closures(self, kind, dim):
        from contracting_sde import EquilibriumMap

        sys, twin = self._systems(dim)
        eq = EquilibriumMap.affine(-np.linalg.solve(*sys.affine))
        for a, b in zip(self._cascade_outputs(sys, kind, dim, eq),
                        self._cascade_outputs(twin, kind, dim, eq)):
            self._assert_same(a, b, dim)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_single_path_affine_matches_closures(self, dim):
        sys, twin = self._systems(dim)
        u = InputSignal.sinusoid([1.0] * dim)
        a = euler_maruyama(sys, [0.5] * dim, u, self.GRID, RngLineage(self.SEED, 3))
        b = euler_maruyama(twin, [0.5] * dim, u, self.GRID, RngLineage(self.SEED, 3))
        self._assert_same(a.states, b.states, dim)

    def test_noiseless_ou_input_is_the_deterministic_input_run(self):
        # sigma = 0 makes the OU input theta(t) itself: no input normals are
        # drawn, so the state steps on the same stream as a plain run on theta
        sys = scalar_tracker(1.0, 0.3)
        theta = InputSignal.sinusoid([1.0])
        _, x_traj = integrate_cascade(OUParams(c=1.0, sigma=0.0), theta, sys, [0.2], [0.0],
                                      self.GRID, RngLineage(self.SEED, 5))
        plain = euler_maruyama(sys, [0.2], theta, self.GRID, RngLineage(self.SEED, 5))
        assert np.array_equal(x_traj.states, plain.states)

    def test_affine_system_requires_its_dispersion_matrix(self):
        from contracting_sde import InputError

        sys = scalar_tracker(1.0, 0.3)
        with pytest.raises(InputError, match="dispersion_matrix"):
            SystemSpec(state_dim=1, input_dim=1, drift=sys.drift, dispersion=sys.dispersion,
                       metric=sys.metric, certificate=sys.certificate, affine=sys.affine)


def _stepped_one_at_a_time(mats, x0s, rows, common, grid, seed, start, count):
    """The states (steps+1, count, n) of each system of a pair, given by its
    (A, B, Sigma) and its initial vector or (count, n) block, stepped one
    step at a time as x + (A x + B u) dt + Sigma dB, in that order, on path
    i's normals from RngLineage(seed, start + i): x's r columns first, then
    y's (in common mode one r-block for both). A path's noise terms
    Sigma dB are one matrix product over its steps, as a 1-row product may
    round differently for n >= 2. Also returns the (step, path) of the
    first non-finite state, x before y, or None; the states after it are
    not stepped."""
    steps, sq = grid.steps, math.sqrt(grid.dt)
    widths = [S.shape[1] for _, _, S in mats]
    Z = np.stack([RngLineage(seed, start + i).stream().standard_normal(
        (steps, widths[0] if common else sum(widths))) for i in range(count)])
    out = [np.empty((steps + 1, count, np.shape(x0)[-1])) for x0 in x0s]
    noise, c = [], 0
    for o, x0, (_, _, S) in zip(out, x0s, mats):
        o[0] = x0
        noise.append(np.stack([(z[:, c:c + S.shape[1]] * sq) @ S.T for z in Z], axis=1))
        c += 0 if common else S.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            for o, (A, B, _), u, D in zip(out, mats, rows, noise):
                x = o[k]
                o[k + 1] = x + (x @ A.T + u[k] @ B.T) * grid.dt + D[k]
                bad = np.flatnonzero(~np.all(np.isfinite(o[k + 1]), axis=1))
                if bad.size:
                    return out, (k + 1, start + int(bad[0]))
    return out, None


class TestDivergence:
    """A non-finite state raises at the step and path of the one-step-at-a-
    time recursion, wherever it falls among sub-blocks and draw blocks, and
    stepping past it within a sub-block emits no floating-point warning."""

    START = 40

    def _exploding(self):
        # x' = x - 10 x dt = -9 x at dt = 1: |x| grows ninefold per step;
        # the zero Lipschitz budget keeps the step-size warning quiet
        return affine_system([[-10.0]], [[0.0]], [[0.5]], identity_metric(1), lipschitz_budget=0.0)

    def _x0(self, steps_to_overflow):
        # |x_k| ~ |x0| 9^k first exceeds the largest double near k = steps_to_overflow
        return np.array([[1.5 * (1.7976931348623157e308 / 9.0 ** k)] for k in steps_to_overflow])

    def _raise(self, systems, x0s, steps, common=False):
        from contracting_sde.integrate import _blocks, _collect

        grid = TimeGrid(0.0, 1.0, steps)
        rows = [np.zeros((steps + 1, 1))] * len(systems)
        mats = [(*s.affine, s.dispersion_matrix) for s in systems]
        _, expected = _stepped_one_at_a_time(mats, x0s, rows, common, grid, 3, self.START,
                                             len(x0s[0]))
        assert expected is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as exc:
                _collect(_blocks(systems, x0s, rows, grid, 3, self.START, common=common), steps)
        assert (exc.value.step, exc.value.path_index) == expected
        return expected

    @pytest.mark.parametrize("first, where", [
        (60, "mid-sub-block"),
        (128, "last step of the first sub-block"),
        (129, "first step of the second sub-block"),
    ])
    def test_divergence_step_and_path(self, first, where):
        sys = self._exploding()
        # rows 0 and 2 overflow later than row 1
        step, path = self._raise([sys], [self._x0([first + 5, first, first + 20])], 300)
        assert (step, path) == (first, self.START + 1), where

    def test_divergence_across_a_draw_block_boundary(self, monkeypatch):
        from contracting_sde import integrate

        # draw blocks of 100 steps for 3 rows of width 1
        monkeypatch.setattr(integrate, "DRAW_BLOCK_BYTES", 8 * 3 * 101)
        spans = [b.shape[1] for b in integrate._draws(3, self.START, 3, 300, 1)]
        assert spans == [100, 100, 100]
        sys = self._exploding()
        for first in (100, 101):
            assert self._raise([sys], [self._x0([first + 3, first + 3, first])], 300) == (
                first, self.START + 2)

    @pytest.mark.parametrize("mode", list(CouplingMode))
    def test_pair_names_x_before_y(self, mode):
        sys = self._exploding()
        x0, y0 = self._x0([90, 70, 90]), self._x0([70, 90, 70])
        # both overflow at step 70: x's row 1 is named before y's row 0
        assert self._raise([sys, sys], [x0, y0], 200, common=mode is CouplingMode.COMMON) == (
            70, self.START + 1)
        # y alone overflows first
        assert self._raise([sys, sys], [x0, self._x0([90, 90, 65])], 200,
                           common=mode is CouplingMode.COMMON) == (65, self.START + 2)


def _wrong_size_calls():
    """Entry points each given one initial vector or cloud of 2 components
    for a 1-D system or input."""
    sys, grid, lin = scalar_tracker(1.0, 0.2), TimeGrid(0.0, 1e-2, 5), RngLineage(0)
    jd = JDParams(c=1.0, theta=InputSignal.constant([0.5]), sigma_u=0.5, a=[1.0])
    ou = OUParams(c=1.0, sigma=0.3)
    pair = lambda y0: PairScenario(sys, sys, [0.0], y0, ZERO, ZERO,
                                   CouplingMode.INDEPENDENT, grid)
    cascade = lambda x0, xi0: CascadeScenario(ou, ZERO, sys, x0, xi0, grid)
    eq = EquilibriumMap.affine([[1.0]])
    return {
        "euler_maruyama": lambda: euler_maruyama(sys, [0.0, 1.0], ZERO, grid, lin),
        "integrate_pair": lambda: integrate_pair(sys, sys, [0.0], [0.0, 1.0], ZERO, ZERO,
                                                 CouplingMode.COMMON, grid, lin),
        "integrate_cascade x0": lambda: integrate_cascade(ou, ZERO, sys, [0.0, 1.0], [0.0],
                                                          grid, lin),
        "integrate_cascade xi0": lambda: integrate_cascade(ou, ZERO, sys, [0.0], [0.0, 1.0],
                                                           grid, lin),
        "integrate_cascade JD u0": lambda: integrate_cascade(jd, jd.theta, sys, [0.0],
                                                             [0.5, 0.5], grid, lin),
        "pair_error_moment": lambda: pair_error_moment(pair([0.0, 1.0]), 100, 0),
        "tracking_error_moment x0": lambda: tracking_error_moment(
            cascade([0.0, 1.0], [0.0]), eq, "deterministic_curve", 100, 0),
        "tracking_error_moment xi0": lambda: tracking_error_moment(
            cascade([0.0], [0.0, 1.0]), eq, "stochastic_curve", 100, 0),
        "ou_moment": lambda: ou_moment(ou, [0.0, 1.0], grid, 100, 0),
        "WassersteinScenario": lambda: WassersteinScenario(
            sys, sys, np.zeros((4, 2)), np.ones((4, 2)), ZERO, ZERO, grid),
    }


@pytest.mark.parametrize("entry", list(_wrong_size_calls()))
def test_wrong_initial_size_is_an_input_error(entry):
    with pytest.raises(InputError, match=r"(2 components; expected 1|2 columns; the systems)"):
        _wrong_size_calls()[entry]()


class TestStackedKernel:
    """A pair steps as one stacked block, bit for bit as the two systems
    stepped one step at a time, one path or an ensemble, whatever the
    sub-block and draw-block boundaries."""

    SEED, PATH = 29, 7

    @staticmethod
    def _case(name):
        """(x's and y's (A, B, Sigma), x0, y0, u_x, u_y, metric, closures?)."""
        if name in ("1d", "closure"):  # scalar products round alike in any grouping
            sx, sy = ([[-1.5]], [[1.5]], [[0.4]]), ([[-0.8]], [[0.5]], [[0.3]])
            x0, y0, ux, uy, P = [1.0], [-0.5], InputSignal.sinusoid([1.0]), ZERO, [[1.0]]
        else:
            sx = ([[-1.0, 0.4], [-0.3, -1.5]], [[1.0, 0.2], [0.0, 0.8]],
                  [[0.3, 0.1], [0.05, 0.2]])
            sy = (sx[0], sx[1], [[0.0, 0.0], [0.0, 0.0]]) if name == "sigma0" else sx
            x0, y0, P = [1.0, -1.0], [0.0, 0.5], [[2.0, 0.3], [0.3, 1.0]]
            ux, uy = InputSignal.sinusoid([1.0, 0.5]), InputSignal.constant([0.2, -0.1])
        mats = [tuple(np.array(M, dtype=float) for M in s) for s in (sx, sy)]
        return mats, x0, y0, ux, uy, P, name == "closure"

    def _systems(self, mats, P, closures):
        from contracting_sde import validate_metric

        systems = [affine_system(*M, validate_metric(P)) for M in mats]
        return [_closure_twin(s) for s in systems] if closures else systems

    @pytest.mark.parametrize("steps, budget", [
        (60, None),  # shorter than one sub-block
        (300, 70),  # several sub-blocks and draw blocks: a budget of 70 steps a path
    ])
    @pytest.mark.parametrize("name, mode", [
        ("1d", CouplingMode.INDEPENDENT),
        ("1d", CouplingMode.COMMON),
        ("2d", CouplingMode.INDEPENDENT),
        ("2d", CouplingMode.COMMON),
        ("sigma0", CouplingMode.INDEPENDENT),  # as niss_vs_ode
        ("closure", CouplingMode.INDEPENDENT),
    ])
    def test_pair_equals_one_step_at_a_time(self, name, mode, steps, budget, monkeypatch):
        from contracting_sde import integrate

        mats, x0, y0, ux, uy, P, closures = self._case(name)
        sys_x, sys_y = self._systems(mats, P, closures)
        common = mode is CouplingMode.COMMON
        width = 2 if common else 4
        grid = TimeGrid(0.0, 1e-2, steps)
        rows = [ux.values(grid.times()), uy.values(grid.times())]
        if budget:
            monkeypatch.setattr(integrate, "DRAW_BLOCK_BYTES", 8 * width * (budget + 1))
            assert len(list(integrate._draws(self.SEED, self.PATH, 1, steps, width))) >= 3
        (xs, ys), div = _stepped_one_at_a_time(mats, [x0, y0], rows, common, grid,
                                                self.SEED, self.PATH, 1)
        assert div is None
        tx, ty = integrate_pair(sys_x, sys_y, x0, y0, ux, uy, mode, grid,
                                RngLineage(self.SEED, self.PATH))
        assert np.array_equal(tx.states, xs[:, 0]) and np.array_equal(ty.states, ys[:, 0])

        n_paths = 100
        if budget:
            monkeypatch.setattr(integrate, "DRAW_BLOCK_BYTES", 8 * n_paths * width * (budget + 1))
        (xs, ys), _ = _stepped_one_at_a_time(mats, [x0, y0], rows, common, grid,
                                             self.SEED, 0, n_paths)
        sq = np.stack([sys_x.metric.batch_norm_sq(e) for e in xs - ys])  # (steps+1, paths)
        mean = sq.sum(axis=1) / n_paths
        var = np.clip((sq * sq).sum(axis=1) - n_paths * mean**2, 0.0, None) / (n_paths - 1)
        series = pair_error_moment(PairScenario(sys_x, sys_y, x0, y0, ux, uy, mode, grid),
                                   n_paths, self.SEED)
        assert np.array_equal(series.mean_sq, mean)
        assert np.array_equal(series.std_err, np.sqrt(var / n_paths))

    def test_divergence_of_y_alone_names_its_step_and_path(self):
        # y' = y - 10 y dt = -9 y at dt = 1 overflows near step 200, in the
        # second sub-block; x stays finite; the zero Lipschitz budgets keep
        # the step-size warning quiet
        mats = [(np.array([[-0.5]]), np.array([[0.5]]), np.array([[0.5]])),
                (np.array([[-10.0]]), np.array([[0.0]]), np.array([[0.5]]))]
        sys_x, sys_y = (affine_system(*M, identity_metric(1), lipschitz_budget=0.0)
                        for M in mats)
        x0, y0 = [1.0], [1.5 * (1.7976931348623157e308 / 9.0**200)]
        grid = TimeGrid(0.0, 1.0, 300)
        rows = [np.zeros((grid.steps + 1, 1))] * 2
        for mode in CouplingMode:
            common = mode is CouplingMode.COMMON
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, expected = _stepped_one_at_a_time(mats, [x0, y0], rows, common, grid,
                                                     self.SEED, self.PATH, 1)
                assert expected is not None and 128 < expected[0] < 256
                with pytest.raises(DivergenceError) as exc:
                    integrate_pair(sys_x, sys_y, x0, y0, ZERO, ZERO, mode, grid,
                                   RngLineage(self.SEED, self.PATH))
                assert (exc.value.step, exc.value.path_index) == expected
                _, expected = _stepped_one_at_a_time(mats, [x0, y0], rows, common, grid,
                                                     self.SEED, 0, 100)
                with pytest.raises(DivergenceError) as exc:
                    pair_error_moment(PairScenario(sys_x, sys_y, x0, y0, ZERO, ZERO, mode, grid),
                                      100, self.SEED)
                assert (exc.value.step, exc.value.path_index) == expected


def test_pair_of_unequal_state_dimensions_is_an_input_error():
    from contracting_sde import validate_metric

    one = scalar_tracker(1.0, 0.2)
    two = affine_system(-np.eye(2), np.ones((2, 1)), 0.2 * np.eye(2), validate_metric(np.eye(2)))
    grid = TimeGrid(0.0, 1e-2, 5)
    for sys_x, sys_y in ((one, two), (two, one)):
        for mode in CouplingMode:
            with pytest.raises(InputError, match="one state space"):
                integrate_pair(sys_x, sys_y, [0.0] * sys_x.state_dim, [0.0] * sys_y.state_dim,
                               ZERO, ZERO, mode, grid, RngLineage(0))
            with pytest.raises(InputError, match="one state space"):
                pair_error_moment(PairScenario(sys_x, sys_y, [0.0] * sys_x.state_dim,
                                               [0.0] * sys_y.state_dim, ZERO, ZERO, mode, grid),
                                  100, 0)


@pytest.fixture
def started(monkeypatch):
    """The names of the threads started during the test."""
    names = []

    class Counted(threading.Thread):
        def start(self):
            names.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return names


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def no_hang():
    # a hang in a join would stop the suite: end the process with the stacks instead
    faulthandler.dump_traceback_later(120, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


class TestThreadedDraws:
    """A chunk's normals filled on two threads, one block ahead of the
    stepper, are each path's one stream, whichever thread fills a row; the
    buffers stay within DRAW_BLOCK_BYTES and no thread outlives a run."""

    @staticmethod
    def _budget(count, width, span):
        """A DRAW_BLOCK_BYTES whose halves hold blocks of ``span`` steps."""
        return 2 * 8 * count * width * (span + 1)

    @staticmethod
    def _reference(seed, start, count, steps, width):
        return np.stack([RngLineage(seed, start + i).stream().standard_normal((steps, width))
                         for i in range(count)])

    def _drawn(self, seed, start, count, steps, width):
        from contracting_sde import integrate

        blocks, bases = [], {}
        for b in integrate._draws(seed, start, count, steps, width):
            bases[id(b.base)] = b.base
            blocks.append(b.copy())
        assert sum(b.nbytes for b in bases.values()) <= integrate.DRAW_BLOCK_BYTES
        return np.concatenate(blocks, axis=1), [b.shape[1] for b in blocks], len(bases)

    @pytest.mark.parametrize("seed, start, count, width, span", [
        (3, 0, 2, 1, 1024),
        (-5, 2**64 - 4, 7, 2, 512),  # negative seed; keys wrap past 2^64
        (11, 40, 512, 3, 342),
        (8, 2**64 - 300, 512, 4, 256),
    ])
    def test_split_fill_equals_one_call_per_path(self, seed, start, count, width, span,
                                                 monkeypatch, started, two_cpus):
        from contracting_sde import integrate

        monkeypatch.setattr(integrate, "DRAW_BLOCK_BYTES", self._budget(count, width, span))
        steps = 3 * span + span // 3
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the threads interleave between rows
        try:
            drawn, spans, buffers = self._drawn(seed, start, count, steps, width)
        finally:
            sys.setswitchinterval(old)
        assert spans == [span] * 3 + [span // 3] and buffers == 2
        assert len(started) == 4  # block 0 and the prefetch of each later block
        assert np.array_equal(drawn, self._reference(seed, start, count, steps, width))

    def test_one_block_is_split_without_a_second_buffer(self, started, two_cpus):
        drawn, spans, buffers = self._drawn(7, 1, 512, 1000, 2)
        assert spans == [1000] and buffers == 1 and len(started) == 1
        assert np.array_equal(drawn, self._reference(7, 1, 512, 1000, 2))

    def test_a_split_run_of_two_blocks_holds_no_more_rows_than_it_draws(self, two_cpus):
        from contracting_sde import integrate

        # 1000 steps of 4 normals: blocks of 511 and 489 steps, one buffer each
        bases = {id(b.base): b.base for b in integrate._draws(3, 0, 512, 1000, 4)}
        assert sorted(b.shape[1] for b in bases.values()) == [489, 511]

    @pytest.mark.parametrize("count, steps, width", [
        (1, 5000, 2),  # a single path
        (512, 250, 2),  # 500 normals per path
        (512, 1023, 1),
    ])
    def test_short_fills_and_single_paths_stay_on_one_thread(self, count, steps, width,
                                                             started, two_cpus):
        drawn, spans, buffers = self._drawn(5, 9, count, steps, width)
        assert spans == [steps] and buffers == 1 and started == []
        assert np.array_equal(drawn, self._reference(5, 9, count, steps, width))

    def test_one_cpu_fills_on_the_calling_thread(self, monkeypatch, started):
        from contracting_sde import integrate

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        # with two CPUs this budget would be split into blocks of 999 steps
        monkeypatch.setattr(integrate, "DRAW_BLOCK_BYTES", 8 * 6 * 2 * 2001)
        drawn, spans, buffers = self._drawn(2, 3, 6, 5000, 2)
        assert spans == [2000, 2000, 1000] and buffers == 1 and started == []
        assert np.array_equal(drawn, self._reference(2, 3, 6, 5000, 2))

    def test_draw_buffers_are_bounded_at_the_default_budget(self, two_cpus):
        from contracting_sde import integrate

        rows, bases = (0, 255, 511), {}
        kept = {i: [] for i in rows}
        for b in integrate._draws(1, 0, 512, 10_000, 2):
            bases[id(b.base)] = b.base
            for i in rows:
                kept[i].append(b[i].copy())
        assert len(bases) == 2
        assert sum(b.nbytes for b in bases.values()) <= integrate.DRAW_BLOCK_BYTES
        for i in rows:
            assert np.array_equal(np.concatenate(kept[i]),
                                  RngLineage(1, i).stream().standard_normal((10_000, 2)))

    def test_no_thread_outlives_a_run(self, monkeypatch, started, two_cpus, no_hang):
        from contracting_sde import integrate

        monkeypatch.setattr(integrate, "DRAW_BLOCK_BYTES", self._budget(512, 1, 1024))
        baseline = threading.active_count()
        for _ in integrate._draws(0, 0, 512, 5000, 1):
            pass
        assert threading.active_count() == baseline
        assert len(started) == 5  # block 0 and the prefetch of blocks 1 to 4
        gen = integrate._draws(0, 0, 512, 5000, 1)
        next(gen)
        gen.close()  # while the helper fills block 1
        assert threading.active_count() == baseline
        assert len(started) == 5 + 2

    @pytest.mark.parametrize("mode", list(CouplingMode))
    def test_divergence_mid_run_joins_the_helper(self, mode, monkeypatch, started, two_cpus,
                                                 no_hang):
        from contracting_sde import integrate
        from contracting_sde.integrate import _blocks, _collect

        # x' = x - 3 x dt = -2 x at dt = 1: the noise grows past the largest
        # double near step 1025, in the second of four draw blocks
        sys_ = affine_system([[-3.0]], [[0.0]], [[0.5]], identity_metric(1), lipschitz_budget=0.0)
        width = 1 if mode is CouplingMode.COMMON else 2
        monkeypatch.setattr(integrate, "DRAW_BLOCK_BYTES", self._budget(3, width, 1024))
        grid, x0 = TimeGrid(0.0, 1.0, 4000), np.zeros((3, 1))
        rows = [np.zeros((grid.steps + 1, 1))] * 2
        baseline = threading.active_count()
        with pytest.raises(DivergenceError) as exc:
            _collect(_blocks([sys_, sys_], [x0, x0], rows, grid, 4, 0,
                             common=mode is CouplingMode.COMMON), grid.steps)
        assert 1024 < exc.value.step < 2048
        assert threading.active_count() == baseline
        assert len(started) == 3  # block 0, and blocks 1 and 2 fetched ahead

    @pytest.mark.parametrize("failing_block", [0, 1])
    def test_an_error_on_the_helper_reaches_the_caller(self, failing_block, monkeypatch,
                                                       started, two_cpus, no_hang):
        from contracting_sde import integrate

        first = []  # the buffer of block 0

        class Failing:
            """A generator that fails on the helper thread from ``failing_block`` on."""

            def __init__(self, gen):
                self._gen = gen

            def standard_normal(self, out):
                first[:] = first or [out.base]
                in_block_0 = out.base is first[0]
                if threading.current_thread() is threading.main_thread():
                    if in_block_0 and failing_block == 0:
                        time.sleep(0.005)  # the helper claims rows of block 0
                elif failing_block == 0 or not in_block_0:
                    raise FloatingPointError("helper failed")
                return self._gen.standard_normal(out=out)

            def __getattr__(self, attr):
                return getattr(self._gen, attr)

        stream = RngLineage.stream
        monkeypatch.setattr(RngLineage, "stream", lambda self: Failing(stream(self)))
        monkeypatch.setattr(integrate, "DRAW_BLOCK_BYTES", self._budget(8, 1, 1024))
        baseline = threading.active_count()
        blocks = 0
        with pytest.raises(FloatingPointError, match="helper failed"):
            for _ in integrate._draws(0, 0, 8, 5000, 1):
                blocks += 1
                time.sleep(0.02)  # the helper claims rows of the next block alone
        assert blocks == failing_block
        assert threading.active_count() == baseline


def test_cpus_without_affinity_counts_the_cpus(monkeypatch):
    from contracting_sde import integrate

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert integrate._cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert integrate._cpus() == 1


class TestClosureDispersion:
    """A closure system's noise term: its constant ``dispersion_matrix``
    when it has one, else its dispersion closure, which may return one
    (n, r) matrix or an (N, n, r) block, one matrix per path."""

    SEED, COUNT, GRID = 7, 5, TimeGrid(0.0, 1e-2, 300)

    @staticmethod
    def _drift(x, u):
        return -x - x * x * x + u

    @staticmethod
    def _state_dependent(x, u):
        # arithmetic only: bit for bit the same on a block as on one row
        return (0.3 + 0.1 * x * x / (1.0 + x * x))[:, :, None]

    def _system(self, dispersion, dispersion_matrix=None):
        return SystemSpec(state_dim=1, input_dim=1, drift=self._drift, dispersion=dispersion,
                          metric=identity_metric(1),
                          certificate=Certificate(1.0, 1.0, 0.16, "sampled"),
                          dispersion_matrix=dispersion_matrix)

    def _per_path(self, dispersion, x0, rows):
        """Each path stepped alone as x + F dt + S dB, on path i's normals."""
        grid, sq = self.GRID, math.sqrt(self.GRID.dt)
        out = np.empty((grid.steps + 1, self.COUNT))
        for i in range(self.COUNT):
            z = RngLineage(self.SEED, i).stream().standard_normal((grid.steps, 1))
            x = np.array([[x0]])
            out[0, i] = x0
            for k in range(grid.steps):
                S = np.asarray(dispersion(x, rows[k]))
                x = (self._drift(x, rows[k]) * grid.dt + x) + S.reshape(1, 1) * (z[k] * sq)
                out[k + 1, i] = x[0, 0]
        return out

    @pytest.mark.parametrize("case", ["dispersion_matrix", "state_dependent"])
    def test_block_equals_a_per_path_loop(self, case):
        from contracting_sde.integrate import _block, _blocks, _collect

        if case == "dispersion_matrix":
            Sigma = np.array([[0.3]])
            dispersion = lambda x, u: Sigma
            sys = self._system(dispersion, Sigma)
        else:
            dispersion = self._state_dependent
            sys = self._system(dispersion)
        assert sys.affine is None
        rows = InputSignal.sinusoid([0.5]).values(self.GRID.times())
        (xs,) = _collect(_blocks([sys], [_block([0.8], 1, self.COUNT)], [rows], self.GRID,
                                 self.SEED, 0), self.GRID.steps)
        assert np.array_equal(xs[:, :, 0], self._per_path(dispersion, 0.8, rows))
