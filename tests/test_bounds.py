"""Tests for the closed-form mean-square error envelopes.

The independent oracles re-derive each envelope term with scipy.integrate
quadrature and explicit exponentials, so agreement checks exercise both the
term algebra and the package's own convolution quadrature.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from contracting_sde import (
    BoundParams,
    InputError,
    Envelope,
    decay_convolution,
    double_decay_convolution,
    make_envelope,
    optimize_alpha,
)

ALL_KINDS = (
    "niss_two_traj",
    "niss_vs_ode",
    "track_didc",
    "track_ou_sidc",
    "track_ou_sisc",
    "track_jd_sidc",
    "track_jd_sisc",
)


def _rich_params(**overrides):
    base = dict(
        c=1.3, ell=0.8, sigma_x_sq=0.21, sigma_xi_sq=0.35, sigma_u_sq=0.4,
        a_norm_sq=1.7, h_ou=0.6, h_jd=0.5, E0=2.0, Exi0=0.9,
        theta_dot_sq=0.7, input_gap_sq=0.9,
    )
    base.update(overrides)
    return BoundParams(**base)


class TestConvolutionPrimitives:
    def test_decay_convolution_exponential_data(self):
        # integral_0^t e^{-r (t - tau)} e^{-2 tau} d tau = (e^{-2t} - e^{-rt}) / (r - 2)
        r, t = 1.4, 2.5
        got = decay_convolution(lambda ts: np.exp(-2.0 * ts), r, t)
        expect = (math.exp(-2.0 * t) - math.exp(-r * t)) / (r - 2.0)
        assert got == pytest.approx(expect, rel=1e-8)

    def test_decay_convolution_constant_data(self):
        r, g, t = 0.9, 1.7, 3.0
        expect = g / r * (1.0 - math.exp(-r * t))
        assert decay_convolution(g, r, t) == pytest.approx(expect, rel=1e-10)
        assert decay_convolution(lambda ts: np.full_like(ts, g), r, t) == pytest.approx(
            expect, rel=1e-8)

    def test_decay_convolution_zero_time(self):
        assert decay_convolution(lambda ts: np.ones_like(ts), 1.0, 0.0) == 0.0

    def test_double_decay_convolution_constant_data(self):
        # inner integral is (g / ri)(1 - e^{-ri tau}); outer integrates the
        # resulting constant-plus-exponential in closed form
        ro, ri, g, t = 1.1, 0.6, 2.0, 2.0
        inner_const = g / ri
        expect = (
            inner_const / ro * (1.0 - math.exp(-ro * t))
            - inner_const * (math.exp(-ri * t) - math.exp(-ro * t)) / (ro - ri)
        )
        got = double_decay_convolution(lambda ts: np.full_like(ts, g), ro, ri, t)
        assert got == pytest.approx(expect, rel=1e-7)

    def test_double_decay_convolution_against_dblquad(self):
        ro, ri, t = 1.3, 0.8, 1.5
        g = lambda ts: np.sin(ts) ** 2
        got = double_decay_convolution(g, ro, ri, t)
        expect, _ = integrate.dblquad(
            lambda r_, tau: math.exp(-ro * (t - tau)) * math.exp(-ri * (tau - r_))
            * math.sin(r_) ** 2,
            0.0, t, 0.0, lambda tau: tau,
        )
        assert got == pytest.approx(expect, rel=1e-5)


class TestPureDecayReductions:
    def test_niss_two_traj_noiseless_identical_inputs(self):
        p = BoundParams(c=2.0, E0=3.0)
        for t in (0.0, 0.5, 2.0):
            for alpha in (0.3, 0.5, 0.9):
                assert make_envelope("niss_two_traj", p).eval(t, alpha) == pytest.approx(
                    3.0 * math.exp(-2.0 * 2.0 * alpha * t), rel=1e-12)

    def test_niss_vs_ode_initial_value_and_alpha_to_one(self):
        p = BoundParams(c=1.0, E0=4.0)
        assert make_envelope("niss_vs_ode", p).eval(0.0, 0.5) == pytest.approx(4.0, rel=1e-12)
        near_one = make_envelope("niss_vs_ode", p).eval(1.0, 1.0 - 1e-9)
        assert near_one == pytest.approx(4.0 * math.exp(-2.0), rel=1e-6)

    def test_track_didc_pure_decay(self):
        p = BoundParams(c=1.5, ell=1.5, E0=1.0)
        assert make_envelope("track_didc", p).eval(2.0, 0.5) == pytest.approx(
            math.exp(-2.0 * 1.5 * 0.5 * 2.0), rel=1e-12)

    def test_sidc_kinds_start_at_augmented_initial_error(self):
        p = _rich_params()
        expect = p.E0 + p.ell**2 / p.c**2 * p.Exi0
        for kind in ("track_ou_sidc", "track_jd_sidc"):
            assert make_envelope(kind, p).eval(0.0, 0.4) == pytest.approx(expect, rel=1e-12)

    def test_sisc_kinds_start_at_initial_error(self):
        p = _rich_params()
        for kind in ("track_ou_sisc", "track_jd_sisc"):
            assert make_envelope(kind, p).eval(0.0, 0.4) == pytest.approx(p.E0, rel=1e-12)


class TestTailFormulas:
    def test_niss_two_traj_tail_formula(self):
        p = _rich_params()
        for alpha in (0.2, 0.5, 0.8):
            expect = (
                p.sigma_x_sq / (p.c * alpha)
                + p.ell**2 * p.input_gap_sq / (4 * p.c**2 * alpha * (1 - alpha))
            )
            assert make_envelope("niss_two_traj", p).limsup(alpha) == pytest.approx(
                expect, rel=1e-12)

    def test_niss_vs_ode_tail_halves_noise_floor(self):
        p = _rich_params(input_gap_sq=0.0)
        for alpha in (0.3, 0.6):
            assert make_envelope("niss_vs_ode", p).limsup(alpha) == pytest.approx(
                0.5 * make_envelope("niss_two_traj", p).limsup(alpha), rel=1e-12)

    def test_track_didc_tail_formula(self):
        p = _rich_params()
        alpha = 0.45
        expect = (
            p.sigma_x_sq / (2 * p.c * alpha)
            + p.ell**2 * p.theta_dot_sq / (4 * p.c**4 * alpha * (1 - alpha))
        )
        assert make_envelope("track_didc", p).limsup(alpha) == pytest.approx(
            expect, rel=1e-12)

    def test_track_ou_sidc_tail_formula(self):
        p = _rich_params()
        alpha = 0.55
        expect = (
            p.sigma_x_sq / (p.c * alpha)
            + p.ell**2 * p.theta_dot_sq / (p.c**4 * alpha * (1 - alpha))
            + p.ell**2 / p.c**2 * p.sigma_xi_sq / (p.c * alpha)
        )
        assert make_envelope("track_ou_sidc", p).limsup(alpha) == pytest.approx(
            expect, rel=1e-12)

    def test_jd_sidc_tail_uses_box_variance_cap(self):
        # replacing the OU variance sigma_xi^2 with (|a|^2 / 4) sigma_u^2
        p_ou = _rich_params(sigma_xi_sq=_rich_params().a_norm_sq / 4 * _rich_params().sigma_u_sq)
        p_jd = _rich_params()
        for alpha in (0.3, 0.7):
            assert make_envelope("track_jd_sidc", p_jd).limsup(alpha) == pytest.approx(
                make_envelope("track_ou_sidc", p_ou).limsup(alpha), rel=1e-12)

    def test_track_ou_sisc_tail_formula(self):
        p = _rich_params()
        c = p.c
        for alpha in (0.2, 0.5, 0.8):
            expect = (
                p.sigma_x_sq / (2 * c * alpha)
                + p.ell**2 / (c**4 * alpha * (1 - alpha)) * p.theta_dot_sq
                + (1.0 / (alpha * (1 - alpha))) * (
                    (2 - alpha) * p.ell**2 / c**2 * p.sigma_xi_sq / (2 * c)
                    + p.h_ou**2 / 2 * p.sigma_xi_sq**2 / (4 * c**2))
            )
            assert make_envelope("track_ou_sisc", p).limsup(alpha) == pytest.approx(
                expect, rel=1e-12)

    def test_track_jd_sisc_tail_formula(self):
        p = _rich_params()
        c = p.c
        for alpha in (0.5, 0.65, 0.9):
            expect = (
                p.sigma_x_sq / (2 * c * alpha)
                + p.ell**2 / (2 * c**4 * alpha * (1 - alpha)) * p.theta_dot_sq
                + (1.0 / (alpha * (1 - alpha))) * (
                    (4 - 3 * alpha) * p.ell**2 / c**2 * (p.a_norm_sq / 4)
                    * p.sigma_u_sq / (2 * c)
                    + p.h_jd**2 / 2 * p.sigma_u_sq**2 / (4 * c**2))
            )
            assert make_envelope("track_jd_sisc", p).limsup(alpha) == pytest.approx(
                expect, rel=1e-12)

    def test_callable_datum_tail_uses_its_limsup(self):
        # the tail of a callable datum is the tail of the constant datum
        # equal to its supplied limsup, for every kind
        q_theta, q_gap = 0.45, 1.3
        p_callable = _rich_params(
            theta_dot_sq=lambda ts: np.sin(np.asarray(ts, float)) ** 2,
            input_gap_sq=lambda ts: np.cos(np.asarray(ts, float)) ** 2,
            theta_dot_sq_limsup=q_theta, input_gap_sq_limsup=q_gap,
        )
        p_const = _rich_params(theta_dot_sq=q_theta, input_gap_sq=q_gap)
        for kind in ALL_KINDS:
            env = make_envelope(kind, p_callable)
            for alpha in (0.55, 0.8):
                assert env.limsup(alpha) == pytest.approx(
                    make_envelope(kind, p_const).limsup(alpha), rel=1e-15), kind

    def test_jd_sisc_optimized_alpha_respects_tail_guard(self):
        # the tail raises below alpha = 1/2, so the scan must start there; a
        # dominant theta_dot term puts the minimum at the guard itself
        for theta_dot_sq in (0.0, 0.7, 50.0, 5e3):
            p = _rich_params(theta_dot_sq=theta_dot_sq, sigma_x_sq=1e-3)
            a_star, v_star = optimize_alpha(make_envelope("track_jd_sisc", p))
            assert a_star >= 0.5
            assert v_star == make_envelope("track_jd_sisc", p).limsup(a_star)

    def test_limsup_matches_long_horizon_eval_constant_data(self):
        # for constant driving data the finite-time formula converges to the
        # tail form; at t = 100 / (c alpha) the gap is below double precision
        p = _rich_params()
        for kind in ALL_KINDS:
            alpha = 0.7
            t_long = 100.0 / (p.c * alpha)
            env = make_envelope(kind, p)
            tail = env.limsup(alpha)
            finite = env.eval(t_long, alpha)
            assert finite == pytest.approx(tail, rel=1e-9), kind


class TestDeterministicInputReductions:
    def test_sidc_reduces_to_halved_rate_formula_without_input_noise(self):
        # sigma_xi = 0, Exi0 = 0: decay at rate c alpha, doubled noise floor,
        # and the convolution coefficient ell^2 / (c^3 (1 - alpha))
        p = _rich_params(sigma_xi_sq=0.0, Exi0=0.0)
        alpha = 0.6
        ra = p.c * alpha
        for t in (0.3, 1.0, 4.0):
            conv = p.ell**2 / (p.c**3 * (1 - alpha)) * p.theta_dot_sq / ra * (
                1.0 - math.exp(-ra * t))
            expect = (
                p.E0 * math.exp(-ra * t)
                + p.sigma_x_sq / ra * (1.0 - math.exp(-ra * t))
                + conv
            )
            assert make_envelope("track_ou_sidc", p).eval(t, alpha) == pytest.approx(
                expect, rel=1e-12)

    def test_sisc_collapses_structurally_to_didc(self):
        # with a frozen input curve (theta_dot = 0) and no input noise every
        # extra term vanishes and both stochastic-curve envelopes equal the
        # deterministic-input envelope exactly
        p = _rich_params(theta_dot_sq=0.0, sigma_xi_sq=0.0, sigma_u_sq=0.0, Exi0=0.0)
        for t in (0.0, 0.7, 3.0):
            for alpha in (0.3, 0.55, 0.8):
                ref = make_envelope("track_didc", p).eval(t, alpha)
                for kind in ("track_ou_sisc", "track_jd_sisc"):
                    assert make_envelope(kind, p).eval(t, alpha) == pytest.approx(
                        ref, rel=1e-12)


def _quad_conv(g, rate, t):
    val, _ = integrate.quad(lambda tau: math.exp(-rate * (t - tau)) * g(tau), 0.0, t,
                            limit=200)
    return val


def _oracle_track_ou_sisc(p, t, alpha, g):
    c = p.c
    ra = 2 * c * alpha
    coef_exi = p.ell**2 / (2 * c**2 * (1 - alpha) ** 2) * p.Exi0
    floor_coef = (1.0 / alpha) * (
        p.ell**2 / c**2 * p.sigma_xi_sq / (2 * c)
        + p.h_ou**2 / 2 * p.sigma_xi_sq**2 / (4 * c**2 * (1 - alpha))
    )
    bracket = p.ell**2 / (1 - alpha) * p.sigma_xi_sq / (2 * c**3)
    return (
        p.E0 * math.exp(-ra * t)
        + p.sigma_x_sq / (2 * c * alpha) * (1.0 - math.exp(-ra * t))
        + 2 * p.ell**2 / (c**3 * (1 - alpha)) * _quad_conv(g, ra, t)
        + coef_exi * (math.exp(-ra * t) - math.exp(-2 * c * t))
        + floor_coef * (1.0 - math.exp(-ra * t))
        + bracket * (1.0 / alpha
                     - math.exp(-ra * t) / (alpha * (1 - alpha))
                     + math.exp(-2 * c * t) / (1 - alpha))
    )


def _oracle_track_jd_sisc(p, t, alpha, g):
    c = p.c
    ra = 2 * c * alpha
    floor_coef = (1.0 / alpha) * (
        p.ell**2 / c**2 * (3 * p.a_norm_sq / 4) * p.sigma_u_sq / (2 * c)
        + p.h_jd**2 / 2 * p.sigma_u_sq**2 / (4 * c**2 * (1 - alpha))
    )
    relax = p.ell**2 / (c * (1 - alpha)) * (p.a_norm_sq / 4) * (p.sigma_u_sq / c)
    dbl, _ = integrate.dblquad(
        lambda r_, tau: math.exp(-ra * (t - tau)) * math.exp(-c * (tau - r_)) * g(r_),
        0.0, t, 0.0, lambda tau: tau,
    )
    expconv, _ = integrate.quad(
        lambda tau: math.exp(-ra * (t - tau)) * math.exp(-c * tau), 0.0, t)
    relax_int, _ = integrate.quad(
        lambda tau: math.exp(-ra * (t - tau)) * (1.0 - math.exp(-c * tau)), 0.0, t)
    return (
        p.E0 * math.exp(-ra * t)
        + p.sigma_x_sq / (2 * c * alpha) * (1.0 - math.exp(-ra * t))
        + p.ell**2 / (c**2 * (1 - alpha)) * dbl
        + p.ell**2 / (c * (1 - alpha)) * p.Exi0 * expconv
        + floor_coef * (1.0 - math.exp(-ra * t))
        + relax * relax_int
    )


class TestStochasticCurveOracles:
    def test_ou_sisc_matches_quadrature_oracle(self):
        rng = np.random.default_rng(21)
        g = lambda tau: 0.5 * (1.0 + 0.6 * np.sin(1.7 * np.asarray(tau))) ** 2
        for _ in range(10):
            p = _rich_params(
                c=float(rng.uniform(0.5, 2.5)), ell=float(rng.uniform(0.1, 1.5)),
                sigma_x_sq=float(rng.uniform(0.0, 0.5)),
                sigma_xi_sq=float(rng.uniform(0.0, 0.5)),
                h_ou=float(rng.uniform(0.0, 1.0)), E0=float(rng.uniform(0.0, 3.0)),
                Exi0=float(rng.uniform(0.0, 1.0)), theta_dot_sq=g,
            )
            t = float(rng.uniform(0.2, 4.0))
            alpha = float(rng.uniform(0.15, 0.85))
            assert make_envelope("track_ou_sisc", p).eval(t, alpha) == pytest.approx(
                _oracle_track_ou_sisc(p, t, alpha, lambda tau: float(g(tau))),
                rel=1e-6)

    def test_jd_sisc_matches_quadrature_oracle(self):
        rng = np.random.default_rng(22)
        g = lambda tau: 0.3 * (1.0 + np.cos(2.1 * np.asarray(tau))) ** 2
        for _ in range(10):
            p = _rich_params(
                c=float(rng.uniform(0.5, 2.5)), ell=float(rng.uniform(0.1, 1.5)),
                sigma_x_sq=float(rng.uniform(0.0, 0.5)),
                sigma_u_sq=float(rng.uniform(0.0, 0.6)),
                a_norm_sq=float(rng.uniform(0.5, 2.0)),
                h_jd=float(rng.uniform(0.0, 1.0)), E0=float(rng.uniform(0.0, 3.0)),
                Exi0=float(rng.uniform(0.0, 1.0)), theta_dot_sq=g,
            )
            t = float(rng.uniform(0.2, 3.0))
            alpha = float(rng.uniform(0.15, 0.85))
            assert make_envelope("track_jd_sisc", p).eval(t, alpha) == pytest.approx(
                _oracle_track_jd_sisc(p, t, alpha, lambda tau: float(g(tau))),
                rel=1e-6)

    def test_jd_sidc_box_scaling(self):
        # the input-noise floor scales with |a|^2: doubling a (quadrupling
        # a_norm_sq) adds exactly three extra copies of the original floor
        p1 = _rich_params()
        p2 = _rich_params(a_norm_sq=4.0 * p1.a_norm_sq)
        alpha, t = 0.6, 2.0
        ra = p1.c * alpha
        floor = (p1.ell**2 / p1.c**2 * (p1.a_norm_sq / 4) * p1.sigma_u_sq / ra
                 * (1.0 - math.exp(-ra * t)))
        env1, env2 = make_envelope("track_jd_sidc", p1), make_envelope("track_jd_sidc", p2)
        assert env2.eval(t, alpha) - env1.eval(t, alpha) == pytest.approx(
            3.0 * floor, rel=1e-10)


class TestConstantSignalClosedForms:
    def test_callable_and_scalar_driving_data_agree(self):
        # a constant passed as a callable forces the quadrature path; a raw
        # scalar takes the closed form. Both must agree to quadrature accuracy.
        q = 0.7
        p_scalar = _rich_params(theta_dot_sq=q, input_gap_sq=q)
        p_callable = _rich_params(
            theta_dot_sq=lambda ts: np.full_like(np.asarray(ts, float), q),
            input_gap_sq=lambda ts: np.full_like(np.asarray(ts, float), q),
            theta_dot_sq_limsup=q, input_gap_sq_limsup=q,
        )
        for kind in ("niss_two_traj", "track_didc", "track_ou_sidc", "track_ou_sisc",
                     "track_jd_sisc"):
            for t in (0.5, 2.0):
                a = make_envelope(kind, p_scalar).eval(t, 0.6)
                b = make_envelope(kind, p_callable).eval(t, 0.6)
                assert b == pytest.approx(a, rel=1e-7), kind


class TestEnvelopeObject:
    def test_make_envelope_binds_tail_and_kind(self):
        p = _rich_params()
        env = make_envelope("track_didc", p)
        assert env.kind == "track_didc"
        # constant theta_dot: the convolution term is a second floor at rate 2 c alpha
        c, alpha, t = p.c, 0.5, 1.0
        decay = math.exp(-2 * c * alpha * t)
        floor = (p.sigma_x_sq / (2 * c * alpha)
                 + p.ell**2 * p.theta_dot_sq / (4 * c**4 * alpha * (1 - alpha)))
        assert env.eval(t, alpha) == pytest.approx(
            p.E0 * decay + floor * (1.0 - decay), rel=1e-14)
        assert env.limsup(alpha) == pytest.approx(floor, rel=1e-14)

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            make_envelope("no_such_envelope", _rich_params())

    def test_grid_eval_matches_pointwise(self):
        p = _rich_params(theta_dot_sq=lambda ts: np.sin(np.asarray(ts)) ** 2,
                         theta_dot_sq_limsup=1.0,
                         input_gap_sq=lambda ts: np.cos(np.asarray(ts)) ** 2,
                         input_gap_sq_limsup=1.0)
        times = np.arange(0, 801) * 0.005
        for kind in ALL_KINDS:
            env = make_envelope(kind, p)
            grid_vals = env.eval_grid(times, 0.6)
            for idx in (0, 1, 100, 400, 800):
                ref = env.eval(float(times[idx]), 0.6)
                assert abs(grid_vals[idx] - ref) <= 2e-4 * max(1.0, abs(ref)), kind

    def test_grid_eval_requires_uniform_grid_from_zero(self):
        env = make_envelope("track_didc", _rich_params())
        with pytest.raises(InputError):
            env.eval_grid(np.array([0.5, 1.0, 1.5]), 0.5)
        with pytest.raises(InputError):
            env.eval_grid(np.array([0.0, 0.1, 0.3]), 0.5)

    def test_one_point_grid_must_start_at_zero(self):
        for kind in ALL_KINDS:
            env = make_envelope(kind, _rich_params())
            assert env.eval_grid(np.array([0.0]), 0.5).tolist() == [env.eval(0.0, 0.5)]
            for bad in ([3.0], []):
                with pytest.raises(InputError, match="uniform grid starting at 0"):
                    env.eval_grid(np.array(bad), 0.5)

    @pytest.mark.parametrize("t", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_times_outside_zero_to_infinity(self, t):
        # e.g. track_didc's decay term run backwards read e at t = -1
        for kind in ALL_KINDS:
            env = make_envelope(kind, _rich_params())
            with pytest.raises(InputError, match="finite and >= 0"):
                env.eval(t, 0.5)
            with pytest.raises(InputError, match="finite and >= 0"):
                env.eval_grid(np.array([0.0, 0.1, t]), 0.5)
            with pytest.raises(InputError, match="finite and >= 0"):
                env.eval_grid(np.array([t]), 0.5)

    def test_callable_data_without_limsup_has_no_tail(self):
        p = _rich_params(theta_dot_sq=lambda ts: np.ones_like(np.asarray(ts, float)))
        env = make_envelope("track_didc", p)
        assert env.limsup is None
        with pytest.raises(InputError):
            optimize_alpha(env, "limsup")
        with pytest.raises(InputError):
            p.theta_dot_sq_tail()

    def test_alpha_domain_enforced(self):
        p = _rich_params()
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InputError):
                make_envelope("niss_two_traj", p).eval(1.0, bad)
            with pytest.raises(InputError):
                make_envelope("track_didc", p).limsup(bad)

    def test_jd_sisc_tail_guard(self):
        p = _rich_params()
        with pytest.raises(InputError):
            make_envelope("track_jd_sisc", p).limsup(0.4)
        assert make_envelope("track_jd_sisc", p).limsup(0.5) > 0.0


class TestOptimizeAlpha:
    def test_symmetric_synthetic_envelope(self):
        # 1/alpha + 1/(1-alpha) is minimized at alpha = 1/2 with value 4
        env = Envelope(eval=lambda t, a: 0.0,
                       limsup=lambda a: 1.0 / a + 1.0 / (1.0 - a), kind="track_didc")
        a_star, v_star = optimize_alpha(env)
        assert a_star == pytest.approx(0.5, abs=1e-6)
        assert v_star == pytest.approx(4.0, rel=1e-10)

    def test_never_above_grid_scan(self):
        p = _rich_params()
        for kind in ALL_KINDS:
            env = make_envelope(kind, p)
            a_star, v_star = optimize_alpha(env)
            lo = 0.5 if kind == "track_jd_sisc" else 1e-4
            grid = np.linspace(lo + 1e-6, 1.0 - 1e-4, 501)
            scan = min(env.limsup(a) for a in grid)
            assert v_star <= scan * (1.0 + 1e-3) + 1e-12, kind

    def test_pure_noise_pushes_alpha_to_one(self):
        # tail = sigma_x^2 / (c alpha) is decreasing in alpha
        p = BoundParams(c=2.0, sigma_x_sq=0.5)
        env = make_envelope("niss_two_traj", p)
        a_star, v_star = optimize_alpha(env)
        assert a_star >= 0.999
        assert v_star == pytest.approx(0.5 / (2.0 * a_star), rel=1e-10)

    def test_finite_time_optimization(self):
        p = _rich_params()
        env = make_envelope("track_didc", p)
        a_star, v_star = optimize_alpha(env, 1.5)
        grid = np.linspace(1e-3, 1.0 - 1e-3, 301)
        assert v_star <= min(env.eval(1.5, a) for a in grid) + 1e-10
        assert env.eval(1.5, a_star) == pytest.approx(v_star, rel=1e-12)

    @pytest.mark.parametrize("target", ["lim", "", None, -1.0, math.inf, math.nan])
    def test_target_is_limsup_or_finite_time(self, target):
        env = make_envelope("track_didc", _rich_params())
        with pytest.raises(InputError):
            optimize_alpha(env, target)


    @pytest.mark.parametrize("target", ["limsup", 1.5])
    def test_envelope_not_finite_on_the_alpha_grid(self, target):
        env = Envelope(eval=lambda t, a: math.inf, limsup=lambda a: math.nan, kind="track_didc")
        with pytest.raises(InputError, match="not finite anywhere on the alpha grid"):
            optimize_alpha(env, target)


class TestMonotonicity:
    def test_envelopes_increase_with_noise_parameters(self):
        base = _rich_params()
        more_x = _rich_params(sigma_x_sq=base.sigma_x_sq * 2)
        more_xi = _rich_params(sigma_xi_sq=base.sigma_xi_sq * 2)
        more_u = _rich_params(sigma_u_sq=base.sigma_u_sq * 2)
        t, alpha = 2.0, 0.6
        for kind, more in (("niss_two_traj", more_x), ("track_ou_sisc", more_xi),
                           ("track_jd_sisc", more_u)):
            assert (make_envelope(kind, more).eval(t, alpha)
                    > make_envelope(kind, base).eval(t, alpha)), kind
        assert (make_envelope("track_ou_sidc", more_xi).limsup(alpha)
                > make_envelope("track_ou_sidc", base).limsup(alpha))


class TestParamValidation:
    def test_rate_must_be_positive(self):
        with pytest.raises(InputError):
            BoundParams(c=0.0)
        with pytest.raises(InputError):
            BoundParams(c=-1.0)

    def test_nonnegative_fields(self):
        for name in ("ell", "sigma_x_sq", "sigma_xi_sq", "sigma_u_sq", "E0", "Exi0"):
            with pytest.raises(InputError):
                BoundParams(c=1.0, **{name: -0.1})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [
        "c", "ell", "sigma_x_sq", "sigma_xi_sq", "sigma_u_sq", "a_norm_sq", "h_ou",
        "h_jd", "E0", "Exi0", "theta_dot_sq", "input_gap_sq", "theta_dot_sq_limsup",
        "input_gap_sq_limsup"])
    def test_nonfinite_fields(self, name, bad):
        # a NaN constant made every envelope NaN, a silent failing verdict,
        # and c = inf made it 0
        with pytest.raises(InputError, match=name):
            BoundParams(**{"c": 1.0, name: bad})
