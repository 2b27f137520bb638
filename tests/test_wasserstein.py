"""Tests for empirical Wasserstein distances, the distributional contraction
envelope, and the Gibbs stationarity checks."""

import itertools
import json
import math

import numpy as np
import pytest

from contracting_sde import (
    CapabilityError,
    CapacityError,
    Certificate,
    DomainError,
    EmpiricalMeasure,
    InputError,
    InputSignal,
    SystemSpec,
    TimeGrid,
    WassersteinScenario,
    affine_system,
    gibbs_check,
    gibbs_density,
    identity_metric,
    parse_config,
    run_scenario,
    stationarity_residual,
    validate_metric,
    verify_wasserstein_contraction,
    wasserstein_1d,
    wasserstein_assignment,
    wasserstein_envelope,
    wasserstein_series,
)


class TestWasserstein1d:
    def test_identical_clouds(self):
        xs = np.array([0.0, 1.0, 5.0])
        for p in (1, 2, math.inf):
            assert wasserstein_1d(xs, xs, p) == 0.0

    def test_translation(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal(64)
        for p in (1, 2, 3, math.inf):
            assert wasserstein_1d(xs, xs + 2.5, p) == pytest.approx(2.5, rel=1e-12)

    def test_matches_assignment_solver(self):
        rng = np.random.default_rng(1)
        xs = rng.standard_normal(40)
        ys = rng.standard_normal(40) + 0.3
        for p in (1, 2, math.inf):
            direct = wasserstein_1d(xs, ys, p)
            assigned = wasserstein_assignment(
                EmpiricalMeasure(xs[:, None]), EmpiricalMeasure(ys[:, None]), p)
            assert direct == pytest.approx(assigned, abs=1e-12)

    def test_validation(self):
        with pytest.raises(InputError):
            wasserstein_1d([], [], 2)
        with pytest.raises(InputError):
            wasserstein_1d([1.0], [1.0, 2.0], 2)
        with pytest.raises(InputError):
            wasserstein_1d([1.0, 2.0], [1.0, 2.0], 0.5)


class TestWassersteinAssignment:
    def test_two_point_crossing(self):
        # matching straight across costs 2 per point; crossing costs 1
        mx = EmpiricalMeasure([[0.0], [1.0]])
        my = EmpiricalMeasure([[2.0], [-1.0]])
        assert wasserstein_assignment(mx, my, 1) == pytest.approx(1.0)

    def test_matches_brute_force_permutations(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            k = int(rng.integers(2, 4))
            X = rng.standard_normal((k, 2))
            Y = rng.standard_normal((k, 2))
            for p in (1, 2):
                got = wasserstein_assignment(EmpiricalMeasure(X), EmpiricalMeasure(Y), p)
                best = min(
                    np.mean([np.linalg.norm(X[i] - Y[perm[i]]) ** p for i in range(k)])
                    for perm in itertools.permutations(range(k))
                ) ** (1.0 / p)
                assert got == pytest.approx(best, abs=1e-12)

    def test_bottleneck_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            k = 4
            X = rng.standard_normal((k, 2))
            Y = rng.standard_normal((k, 2))
            got = wasserstein_assignment(EmpiricalMeasure(X), EmpiricalMeasure(Y), math.inf)
            best = min(
                max(np.linalg.norm(X[i] - Y[perm[i]]) for i in range(k))
                for perm in itertools.permutations(range(k))
            )
            assert got == pytest.approx(best, abs=1e-12)

    def test_metric_weighted_cost(self):
        # the metric rescales coordinates through its Cholesky factor
        m = validate_metric(np.diag([4.0, 1.0]))
        mx = EmpiricalMeasure([[0.0, 0.0], [1.0, 0.0]])
        my = EmpiricalMeasure([[0.5, 0.0], [1.5, 0.0]])
        got = wasserstein_assignment(mx, my, 2, norm=m)
        assert got == pytest.approx(1.0, rel=1e-12)  # 0.5 gap scaled by sqrt(4)

    def test_capacity_and_validation(self):
        big = np.zeros((2049, 1))
        big[0, 0] = 1.0  # avoid the all-equal degenerate cloud being the issue
        with pytest.raises(CapacityError):
            wasserstein_assignment(EmpiricalMeasure(big), EmpiricalMeasure(big), 2)
        with pytest.raises(InputError):
            wasserstein_assignment(
                EmpiricalMeasure([[0.0], [1.0]]),
                EmpiricalMeasure([[0.0], [1.0], [2.0]]), 2)
        with pytest.raises(InputError):
            wasserstein_assignment(
                EmpiricalMeasure([[0.0], [1.0]]), EmpiricalMeasure([[0.0], [1.0]]), 0.3)

    def test_empirical_measure_validation(self):
        with pytest.raises(InputError):
            EmpiricalMeasure([[1.0]])
        with pytest.raises(InputError):
            EmpiricalMeasure([[1.0], [math.nan]])


class TestMetricProperties:
    def test_triangle_inequality_and_symmetry(self):
        rng = np.random.default_rng(4)
        A = EmpiricalMeasure(rng.standard_normal((16, 2)))
        B = EmpiricalMeasure(rng.standard_normal((16, 2)))
        C = EmpiricalMeasure(rng.standard_normal((16, 2)))
        for p in (1, 2, math.inf):
            dab = wasserstein_assignment(A, B, p)
            dba = wasserstein_assignment(B, A, p)
            dac = wasserstein_assignment(A, C, p)
            dcb = wasserstein_assignment(C, B, p)
            assert dab == pytest.approx(dba, abs=1e-10)
            assert dab <= dac + dcb + 1e-10

    def test_monotone_in_p(self):
        rng = np.random.default_rng(5)
        A = EmpiricalMeasure(rng.standard_normal((32, 2)))
        B = EmpiricalMeasure(rng.standard_normal((32, 2)) + 0.5)
        w1 = wasserstein_assignment(A, B, 1)
        w2 = wasserstein_assignment(A, B, 2)
        winf = wasserstein_assignment(A, B, math.inf)
        assert w1 <= w2 + 1e-12 <= winf + 2e-12


class TestWassersteinEnvelope:
    def test_zero_gap_pure_decay(self):
        assert wasserstein_envelope(2.0, 1.5, 1.0, 0.0, 2.0) == pytest.approx(
            2.0 * math.exp(-3.0), rel=1e-12)

    def test_constant_gap_closed_form(self):
        W0, c, ell, g, t = 1.0, 1.2, 0.7, 0.4, 3.0
        expect = math.exp(-c * t) * W0 + ell * g / c * (1.0 - math.exp(-c * t))
        assert wasserstein_envelope(W0, c, ell, g, t) == pytest.approx(expect, rel=1e-7)

    def test_long_time_limit(self):
        val = wasserstein_envelope(5.0, 1.0, 0.8, 0.5, 80.0)
        assert val == pytest.approx(0.8 * 0.5 / 1.0, rel=1e-9)

    def test_validation(self):
        with pytest.raises(InputError):
            wasserstein_envelope(-1.0, 1.0, 1.0, 0.0, 1.0)


def _scalar_ou_system(c=1.0, sigma=0.5):
    return affine_system([[-c]], [[c]], [[sigma]], identity_metric(1))


class TestWassersteinSeries:
    def test_common_noise_translated_clouds_decay_deterministically(self):
        # clouds offset by a constant stay exact translates under common noise
        # and a linear drift, so W_2 equals the deterministic Euler decay of
        # the offset and is independent of the noise seed
        sys = _scalar_ou_system()
        rng = np.random.default_rng(6)
        x0 = rng.standard_normal((64, 1))
        offset = 3.0
        dt, steps = 1e-2, 100
        sc = WassersteinScenario(
            sys_x=sys, sys_y=sys, x0_samples=x0 + offset, y0_samples=x0,
            u_x=InputSignal.constant([0.0]), u_y=InputSignal.constant([0.0]),
            grid=TimeGrid(0.0, dt, steps),
        )
        times, w_a, env_a = wasserstein_series(sc, 2, master_seed=0)
        _, w_b, env_b = wasserstein_series(sc, 2, master_seed=999)
        assert np.allclose(w_a, w_b, rtol=1e-10)
        assert np.array_equal(env_a, env_b)
        for t, w in zip(times, w_a):
            k = int(round(t / dt))
            assert w == pytest.approx(offset * (1.0 - dt) ** k, rel=1e-10)

    def test_identical_clouds_stay_identical(self):
        sys = _scalar_ou_system()
        x0 = np.linspace(-1.0, 1.0, 32)[:, None]
        sc = WassersteinScenario(
            sys_x=sys, sys_y=sys, x0_samples=x0, y0_samples=x0.copy(),
            u_x=InputSignal.constant([0.0]), u_y=InputSignal.constant([0.0]),
            grid=TimeGrid(0.0, 1e-2, 50),
        )
        _, w, _ = wasserstein_series(sc, 2, master_seed=1)
        assert np.all(w <= 1e-12)
        assert verify_wasserstein_contraction(sc, 2, master_seed=1).holds

    def test_offset_clouds_contract_within_envelope(self):
        sys = _scalar_ou_system()
        rng = np.random.default_rng(7)
        sc = WassersteinScenario(
            sys_x=sys, sys_y=sys,
            x0_samples=rng.standard_normal((128, 1)) + 5.0,
            y0_samples=rng.standard_normal((128, 1)),
            u_x=InputSignal.constant([1.0]), u_y=InputSignal.constant([0.0]),
            grid=TimeGrid(0.0, 2e-3, 1500),
        )
        verdict = verify_wasserstein_contraction(sc, 2, master_seed=2)
        assert verdict.holds, verdict

    def test_checkpoints_resolved_on_grid(self):
        sys = _scalar_ou_system()
        x0 = np.linspace(-1.0, 1.0, 16)[:, None]
        sc = WassersteinScenario(
            sys_x=sys, sys_y=sys, x0_samples=x0, y0_samples=x0 + 1.0,
            u_x=InputSignal.constant([0.0]), u_y=InputSignal.constant([0.0]),
            grid=TimeGrid(0.0, 1e-2, 100),
        )
        times, w, env = wasserstein_series(sc, 2, master_seed=3,
                                           checkpoints=[0.0, 0.5, 1.0])
        assert np.allclose(times, [0.0, 0.5, 1.0])
        assert w.shape == env.shape == (3,)
        with pytest.raises(InputError):
            wasserstein_series(sc, 2, master_seed=3, checkpoints=[2.0])

    def test_state_dependent_dispersion_rejected(self):
        sys = SystemSpec(
            state_dim=1, input_dim=1,
            drift=lambda x, u: -x,
            dispersion=lambda x, u: np.atleast_2d(0.1 * x),
            metric=identity_metric(1),
            certificate=Certificate(1.0, 0.0, 0.01, "exact-affine"),
            noise_dim=1,
        )
        x0 = np.linspace(0.5, 1.5, 8)[:, None]
        sc = WassersteinScenario(
            sys_x=sys, sys_y=sys, x0_samples=x0, y0_samples=x0,
            u_x=InputSignal.constant([0.0]), u_y=InputSignal.constant([0.0]),
            grid=TimeGrid(0.0, 1e-2, 10),
        )
        with pytest.raises(CapabilityError):
            wasserstein_series(sc, 2, master_seed=0)

    def test_scenario_run_simulates_once(self, tmp_path, monkeypatch):
        import contracting_sde.scenarios as scenarios_mod
        import contracting_sde.wasserstein as wasserstein_mod

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return wasserstein_series(*args, **kwargs)

        monkeypatch.setattr(scenarios_mod, "wasserstein_series", counted)
        monkeypatch.setattr(wasserstein_mod, "wasserstein_series", counted)
        cfg = parse_config(json.dumps({
            "scenario_kind": "wasserstein",
            "system": {"name": "scalar_tracker", "c": 1.0, "sigma": 0.3},
            "input_x": {"kind": "constant", "value": [0.0]},
            "input_y": {"kind": "constant", "value": [0.0]},
            "cloud": {"k": 64, "mean_x": [1.0], "mean_y": [0.0]},
            "grid": {"dt": 0.01, "steps": 100},
        }))
        assert run_scenario(cfg, tmp_path / "bundle").holds
        assert len(calls) == 1

    def test_cloud_shape_mismatch(self):
        sys = _scalar_ou_system()
        with pytest.raises(InputError):
            WassersteinScenario(
                sys_x=sys, sys_y=sys,
                x0_samples=np.zeros((8, 1)), y0_samples=np.zeros((9, 1)),
                u_x=InputSignal.constant([0.0]), u_y=InputSignal.constant([0.0]),
                grid=TimeGrid(0.0, 1e-2, 10),
            )


class TestGibbs:
    def test_quadratic_density_is_gaussian(self):
        # f = c x^2 / 2 gives the N(0, sigma^2 / (2c)) density
        c, sigma = 1.0, 1.0
        xs = np.linspace(-6.0, 6.0, 2001)
        mu = gibbs_density(lambda x: 0.5 * c * x**2, sigma, xs)
        var = sigma**2 / (2.0 * c)
        ref = np.exp(-xs**2 / (2 * var)) / math.sqrt(2 * math.pi * var)
        assert np.abs(mu - ref).max() <= 1e-6

    def test_sigma_doubling_quadruples_variance(self):
        xs = np.linspace(-12.0, 12.0, 4001)
        f = lambda x: 0.5 * x**2
        trapezoid = lambda y: (np.diff(xs) * (y[1:] + y[:-1]) / 2.0).sum()
        v1 = trapezoid(xs**2 * gibbs_density(f, 1.0, xs))
        v2 = trapezoid(xs**2 * gibbs_density(f, 2.0, xs))
        assert v2 / v1 == pytest.approx(4.0, rel=0.1)

    def test_ks_small_for_exact_gaussian_samples(self):
        c, sigma, k = 1.0, 1.0, 4000
        rng = np.random.default_rng(8)
        samples = rng.normal(0.0, math.sqrt(sigma**2 / (2 * c)), size=k)
        xs = np.linspace(-6.0, 6.0, 2001)
        out = gibbs_check(lambda x: 0.5 * x**2, lambda x: x, sigma, samples, xs)
        assert out["ks_stat"] <= 1.63 / math.sqrt(k)

    def test_quartic_residual_shrinks_quadratically(self):
        f = lambda x: 0.25 * x**4
        gf = lambda x: x**3
        coarse = stationarity_residual(f, gf, 1.0, np.linspace(-3.0, 3.0, 1001))
        fine = stationarity_residual(f, gf, 1.0, np.linspace(-3.0, 3.0, 2001))
        assert 3.0 <= coarse / fine <= 5.0  # O(h^2): halving h -> factor ~4

    def test_non_normalizable_potential_rejected(self):
        xs = np.linspace(-3.0, 3.0, 101)
        with pytest.raises(DomainError):
            gibbs_density(lambda x: math.nan, 1.0, xs)

    def test_sample_count_validation(self):
        xs = np.linspace(-3.0, 3.0, 101)
        with pytest.raises(InputError):
            gibbs_check(lambda x: 0.5 * x**2, lambda x: x, 1.0, [0.0], xs)
        with pytest.raises(InputError):
            gibbs_check(lambda x: 0.5 * x**2, lambda x: x, 0.0, [0.0, 1.0], xs)
