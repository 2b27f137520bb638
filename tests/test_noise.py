"""Tests for noise generators: lineage streams, the exact OU transition and
its moment oracle, and the boundary-safe Jacobi-diffusion step."""

import math

import numpy as np
import pytest

from contracting_sde import (
    InputError,
    InputSignal,
    JDParams,
    OUParams,
    RngLineage,
    StateCorruptionError,
    feller_check,
    jd_step,
    jd_step_with_flag,
    ou_exact_step,
    ou_second_moment,
)


def _const_theta(value):
    return InputSignal.constant([value])


class TestRngLineage:
    def test_same_lineage_identical(self):
        a = RngLineage(42, 7).stream().standard_normal((100, 2))
        b = RngLineage(42, 7).stream().standard_normal((100, 2))
        assert np.array_equal(a, b)

    def test_distinct_paths_uncorrelated(self):
        for seed, i, j in ((0, 1, 2), (123, 0, 1)):
            a = RngLineage(seed, i).stream().standard_normal(10_000)
            b = RngLineage(seed, j).stream().standard_normal(10_000)
            assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


class TestOuExactStep:
    def test_noiseless_decay(self):
        p = OUParams(c=2.0, sigma=0.0, dim=1)
        out = ou_exact_step(np.array([3.0]), p, 0.5, np.array([1.0]))
        assert out[0] == pytest.approx(3.0 * math.exp(-1.0), rel=1e-14)

    def test_long_step_variance_limit(self):
        # dt -> infinity: the transition variance approaches sigma^2 / (2 c)
        p = OUParams(c=1.0, sigma=1.0, dim=1)
        out = ou_exact_step(np.array([0.0]), p, 1e6, np.array([1.0]))
        assert out[0] == pytest.approx(math.sqrt(0.5), rel=1e-9)

    def test_plug_in_coefficients(self):
        # c=1, sigma=sqrt(2), dt=ln 2: decay e^{-ln 2} = 0.5 and
        # noise std sqrt((2/2)(1 - 0.25)) = sqrt(0.75)
        p = OUParams(c=1.0, sigma=math.sqrt(2.0), dim=1)
        decay_only = ou_exact_step(np.array([1.0]), p, math.log(2.0), np.array([0.0]))
        assert decay_only[0] == pytest.approx(0.5, rel=1e-14)
        noise_only = ou_exact_step(np.array([0.0]), p, math.log(2.0), np.array([1.0]))
        assert noise_only[0] == pytest.approx(math.sqrt(0.75), rel=1e-14)

    def test_variance_against_euler_recursion(self):
        # oracle: the Euler-Maruyama variance recursion v' = (1 - c h)^2 v + sigma^2 h
        # approaches the exact transition variance as h -> 0 (O(h) bias)
        c, sigma, dt = 1.0, math.sqrt(2.0), math.log(2.0)
        h = 1e-4
        n = int(round(dt / h))
        v = 0.0
        for _ in range(n):
            v = (1.0 - c * h) ** 2 * v + sigma**2 * h
        exact = sigma**2 / (2.0 * c) * (1.0 - math.exp(-2.0 * c * dt))
        assert v == pytest.approx(exact, rel=1e-3)

    def test_c_zero_brownian_scaling(self):
        p = OUParams(c=0.0, sigma=2.0, dim=4)
        out = ou_exact_step(np.zeros(4), p, 0.25, np.ones(4))
        assert np.allclose(out, 2.0 * math.sqrt(0.25 / 4.0))

    def test_dt_validation(self):
        p = OUParams(c=1.0, sigma=1.0)
        with pytest.raises(InputError):
            ou_exact_step(np.array([0.0]), p, 0.0, np.array([0.0]))


class TestOuSecondMoment:
    def test_t_zero(self):
        assert ou_second_moment(4.0, 1.0, 1.0, 0.0) == 4.0

    def test_stationary_limit(self):
        assert ou_second_moment(0.0, 1.0, 1.0, 1e9) == pytest.approx(0.5, rel=1e-12)

    def test_closed_form_value(self):
        expect = 4.0 * math.exp(-1.0) + 0.5 * (1.0 - math.exp(-1.0))
        assert ou_second_moment(4.0, 1.0, 1.0, 0.5) == pytest.approx(expect, rel=1e-14)

    def test_monte_carlo_exact_transition(self):
        # one exact transition step of length t is an unbiased sample of x_t
        p = OUParams(c=1.0, sigma=1.0, dim=1)
        z = RngLineage(5, 0).stream().standard_normal(100_000)
        x = ou_exact_step(np.full(100_000, 2.0), p, 0.5, z)
        sq = x**2
        se = sq.std(ddof=1) / math.sqrt(sq.shape[0])
        assert abs(sq.mean() - ou_second_moment(4.0, 1.0, 1.0, 0.5)) <= 3.0 * se

    def test_validation(self):
        with pytest.raises(InputError):
            ou_second_moment(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(InputError):
            ou_second_moment(-1.0, 1.0, 1.0, 1.0)


class TestJdStep:
    def test_noiseless_geometric_convergence(self):
        p = JDParams(c=1.0, theta=_const_theta(0.5), sigma_u=0.0, a=[1.0])
        u = np.array([0.95])
        dt = 1e-3
        for k in range(10_000):  # t = 10 / c
            u = jd_step(u, p, k * dt, dt, np.zeros(1))
        assert abs(u[0] - 0.5) <= 1e-4 * 0.45

    def test_boundary_clamp_contract(self):
        p = JDParams(c=1.0, theta=_const_theta(0.5), sigma_u=0.5, a=[1.0])
        u = np.array([1.0 - 1e-12])
        out = jd_step(u, p, 0.0, 1e-3, np.array([100.0]))
        assert 0.0 < out[0] < 1.0

    def test_entry_outside_domain_raises(self):
        p = JDParams(c=1.0, theta=_const_theta(0.5), sigma_u=0.1, a=[1.0])
        with pytest.raises(StateCorruptionError):
            jd_step(np.array([1.5]), p, 0.0, 1e-3, np.zeros(1))

    def test_stationary_mean_matches_target(self):
        # stationary law is Beta(2 c theta / sigma_u^2, 2 c (a - theta) / sigma_u^2)
        # scaled to (0, a); for theta = a/2 its mean is theta
        p = JDParams(c=1.0, theta=_const_theta(0.5), sigma_u=math.sqrt(0.5), a=[1.0])
        n_paths, steps, dt = 512, 4000, 2e-3
        rng = RngLineage(9, 0).stream()
        u = np.full((n_paths, 1), 0.5)
        for k in range(steps):
            u = jd_step(u, p, k * dt, dt, rng.standard_normal((n_paths, 1)))
        terminal = u[:, 0]
        se = terminal.std(ddof=1) / math.sqrt(n_paths)
        assert abs(terminal.mean() - 0.5) <= 3.0 * se

    def test_stays_inside_with_rare_clamps(self):
        p = JDParams(c=1.0, theta=_const_theta(0.5), sigma_u=math.sqrt(0.5), a=[1.0])
        rng = RngLineage(2, 0).stream()
        u = np.array([0.5])
        dt = 1e-3
        clamps = 0
        for k in range(20_000):
            u, n = jd_step_with_flag(u, p, k * dt, dt, rng.standard_normal(1))
            assert 0.0 < u[0] < 1.0
            clamps += n
        assert clamps < 0.001 * 20_000

    def test_halving_dt_weak_convergence_sanity(self):
        # first and second moments at t = 1/c change by at most the MC 3-SE band
        p = JDParams(c=1.0, theta=_const_theta(0.5), sigma_u=math.sqrt(0.5), a=[1.0])
        n_paths = 1500

        def terminal(dt, steps, seed):
            rng = RngLineage(seed, 0).stream()
            u = np.full((n_paths, 1), 0.8)
            for k in range(steps):
                u = jd_step(u, p, k * dt, dt, rng.standard_normal((n_paths, 1)))
            return u[:, 0]

        coarse = terminal(2e-3, 500, 31)
        fine = terminal(1e-3, 1000, 32)
        for moment in (1, 2):
            a, b = coarse**moment, fine**moment
            se = math.sqrt(a.var(ddof=1) / n_paths + b.var(ddof=1) / n_paths)
            assert abs(a.mean() - b.mean()) <= 3.0 * se

    def test_ensemble_determinism(self):
        p = JDParams(c=1.0, theta=_const_theta(0.5), sigma_u=0.3, a=[1.0])

        def run():
            rng = RngLineage(77, 3).stream()
            u = np.full((16, 1), 0.4)
            for k in range(200):
                u = jd_step(u, p, k * 1e-3, 1e-3, rng.standard_normal((16, 1)))
            return u

        assert np.array_equal(run(), run())


class TestFellerCheck:
    def test_reference_parameters(self):
        p = JDParams(c=1.0, theta=_const_theta(0.5), sigma_u=math.sqrt(0.5), a=[1.0])
        res = feller_check(p, [0.0])
        assert res["holds"]
        assert res["margin"] == pytest.approx(0.25, rel=1e-12)
        assert feller_check(p, [0.0])["margin"] == pytest.approx(0.25, rel=1e-12)

    def test_zero_dispersion_margin(self):
        p = JDParams(c=1.0, theta=_const_theta(0.3), sigma_u=0.0, a=[1.0])
        res = feller_check(p, [0.0])
        assert res["holds"]
        assert res["margin"] == pytest.approx(min(0.3, 0.7), rel=1e-12)

    def test_dispersion_exceeds_rate_fails(self):
        p = JDParams(c=1.0, theta=_const_theta(0.5), sigma_u=math.sqrt(1.2), a=[1.0])
        res = feller_check(p, [0.0])
        assert not res["holds"]
        assert res["margin"] < 0.0
        assert not feller_check(p, [0.0])["holds"]

    def test_empty_samples_rejected(self):
        p = JDParams(c=1.0, theta=_const_theta(0.5), sigma_u=0.1, a=[1.0])
        with pytest.raises(InputError):
            feller_check(p, [])

    def test_many_samples_equal_the_scalar_checks(self):
        theta = InputSignal.sinusoid([0.2], omega=3.0, offset=[0.5])
        p = JDParams(c=2.0, theta=theta, sigma_u=0.9, a=[1.0])
        ts = np.linspace(0.0, 10.0, 1001)
        margins = [feller_check(p, [t])["margin"] for t in ts]
        assert feller_check(p, ts)["margin"] == min(margins)
        assert min(margins) < max(margins)  # the samples do not all tie

    def test_theta_outside_band_fails(self):
        p = JDParams(c=1.0, theta=_const_theta(0.9), sigma_u=math.sqrt(0.5), a=[1.0])
        assert not feller_check(p, [0.0])["holds"]


class TestParamValidation:
    def test_ou_params(self):
        with pytest.raises(InputError):
            OUParams(c=-1.0, sigma=1.0)
        with pytest.raises(InputError):
            OUParams(c=1.0, sigma=-1.0)

    def test_jd_params(self):
        with pytest.raises(InputError):
            JDParams(c=0.0, theta=_const_theta(0.5), sigma_u=0.1, a=[1.0])
        with pytest.raises(InputError):
            JDParams(c=1.0, theta=_const_theta(0.5), sigma_u=0.1, a=[-1.0])

    def test_ou_dim_at_least_one(self):
        with pytest.raises(InputError, match="OU dim must be >= 1"):
            OUParams(c=1.0, sigma=1.0, dim=0)

    def test_jd_sigma_u_nonnegative(self):
        with pytest.raises(InputError, match="JD sigma_u must be nonnegative"):
            JDParams(c=1.0, theta=_const_theta(0.5), sigma_u=-0.1, a=[1.0])
