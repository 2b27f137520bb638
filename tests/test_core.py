"""Tests for metrics, weighted norms, time grids, input signals and
equilibrium maps."""

import math

import numpy as np
import pytest

from contracting_sde import (
    CapabilityError,
    Certificate,
    CertificationError,
    EquilibriumMap,
    InputError,
    InputSignal,
    Metric,
    SystemSpec,
    TimeGrid,
    affine_system,
    identity_metric,
    scalar_tracker,
    validate_metric,
    weighted_norm_sq,
)


class TestWeightedNormSq:
    def test_identity_metric(self):
        m = identity_metric(2)
        assert weighted_norm_sq(np.array([1.0, 0.0]), m) == 1.0

    def test_diagonal_metric(self):
        m = validate_metric(np.diag([2.0, 3.0]))
        assert weighted_norm_sq(np.array([1.0, 1.0]), m) == pytest.approx(5.0, rel=1e-14)

    def test_against_extended_precision_quadratic_form(self):
        # oracle: x^T P x accumulated with math.fsum over the individual products
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            G = rng.standard_normal((n, n))
            P = G @ G.T + n * np.eye(n)
            x = rng.standard_normal(n)
            m = validate_metric(P)
            oracle = math.fsum(
                x[i] * P[i, j] * x[j] for i in range(n) for j in range(n)
            )
            assert weighted_norm_sq(x, m) == pytest.approx(oracle, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            weighted_norm_sq(np.array([1.0, 2.0, 3.0]), identity_metric(2))

    def test_batch_dimension_mismatch(self):
        with pytest.raises(InputError, match="state dimension 3 != metric dimension 2"):
            identity_metric(2).batch_norm_sq(np.ones((4, 3)))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        P = np.array([[2.0, 0.5], [0.5, 1.0]])
        m = validate_metric(P)
        X = rng.standard_normal((50, 2))
        batch = m.batch_norm_sq(X)
        for i in range(50):
            assert batch[i] == pytest.approx(weighted_norm_sq(X[i], m), rel=1e-13)


class TestValidateMetric:
    def test_identity(self):
        m = validate_metric(np.eye(3))
        assert np.array_equal(m.chol, np.eye(3))
        assert m.spectral_norm == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_spectral_norm_and_normalization(self):
        m = validate_metric(np.diag([4.0, 1.0]))
        assert m.spectral_norm == pytest.approx(4.0, rel=1e-14)
        normed = validate_metric(np.diag([4.0, 1.0]), normalize=True)
        assert np.allclose(normed.P, np.diag([1.0, 0.25]), atol=1e-15)

    def test_two_by_two_eigenvalues(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 - 1 = 0 -> {1, 3}
        m = validate_metric(np.array([[2.0, 1.0], [1.0, 2.0]]))
        eig = np.linalg.eigvalsh(m.P)
        assert eig == pytest.approx([1.0, 3.0], rel=1e-13)
        assert m.spectral_norm == pytest.approx(3.0, rel=1e-13)

    def test_non_spd_names_eigenvalue(self):
        with pytest.raises(CertificationError, match="eigenvalue"):
            validate_metric(np.diag([1.0, -2.0]))

    def test_large_asymmetry_rejected(self):
        with pytest.raises(InputError, match="asymmetry"):
            validate_metric(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            validate_metric(np.ones((2, 3)))

    def test_cholesky_reconstructs(self):
        P = np.array([[2.0, 1.0], [1.0, 2.0]])
        m = validate_metric(P)
        assert np.allclose(m.chol @ m.chol.T, m.P, atol=1e-14)


class TestNormAxioms:
    def test_triangle_and_homogeneity(self):
        rng = np.random.default_rng(11)
        G = rng.standard_normal((3, 3))
        m = validate_metric(G @ G.T + 3 * np.eye(3))
        for _ in range(100):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            s = float(rng.uniform(-3, 3))
            nx, ny = m.norm(x), m.norm(y)
            assert m.norm(x + y) <= nx + ny + 1e-10
            assert m.norm(s * x) == pytest.approx(abs(s) * nx, abs=1e-10)

    def test_normalization_idempotent_bitwise(self):
        m = validate_metric(np.array([[5.0, 1.0], [1.0, 3.0]]))
        once = m.normalized()
        twice = once.normalized()
        assert np.array_equal(once.P, twice.P)
        assert np.array_equal(once.chol, twice.chol)


class TestTimeGrid:
    def test_accumulation_free_times(self):
        g = TimeGrid(t0=0.0, dt=0.1, steps=10_000)
        ts = g.times()
        assert ts.shape == (10_001,)
        # k * dt, not repeated addition: last node is exactly 10000 * 0.1
        assert ts[-1] == 10_000 * 0.1
        assert ts[5_000] == 5_000 * 0.1

    def test_horizon(self):
        assert TimeGrid(1.0, 0.5, 4).horizon == 2.0

    def test_invalid_parameters(self):
        with pytest.raises(InputError):
            TimeGrid(0.0, 0.0, 10)
        with pytest.raises(InputError):
            TimeGrid(0.0, 0.1, -1)

    @pytest.mark.parametrize("steps", [2.5, True, np.bool_(True), "4", None])
    def test_steps_must_be_an_integer(self, steps):
        # 2.5 steps would give 4 times and a horizon of 0.25
        with pytest.raises(InputError, match="steps must be an integer"):
            TimeGrid(0.0, 0.1, steps)

    def test_integral_steps_are_stored_as_an_int(self):
        for steps in (4.0, np.int64(4), 4):
            g = TimeGrid(0.0, 0.1, steps)
            assert type(g.steps) is int and g.steps == 4 and g.times().shape == (5,)

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
    def test_t0_must_be_finite(self, t0):
        with pytest.raises(InputError, match="t0 must be finite"):
            TimeGrid(t0, 0.1, 10)


class TestInputSignal:
    def test_constant(self):
        u = InputSignal.constant([2.0, -1.0])
        assert np.array_equal(u.value(3.7), [2.0, -1.0])
        assert np.array_equal(u.derivative(3.7), [0.0, 0.0])

    def test_sinusoid_derivative_matches_finite_differences(self):
        u = InputSignal.sinusoid([1.5], omega=2.0, phase=0.3)
        h = 1e-6
        for t in np.linspace(0.0, 5.0, 25):
            fd = (u.value(t + h) - u.value(t - h)) / (2.0 * h)
            d = u.derivative(t)
            assert np.abs(fd - d).max() <= 1e-6 * max(1.0, np.abs(d).max())

    def test_piecewise_linear_values_and_slopes(self):
        u = InputSignal.piecewise_linear([0.0, 1.0, 3.0], [[0.0], [2.0], [0.0]])
        assert u.value(0.5)[0] == pytest.approx(1.0)
        assert u.derivative(0.5)[0] == pytest.approx(2.0)
        assert u.value(2.0)[0] == pytest.approx(1.0)
        assert u.derivative(2.0)[0] == pytest.approx(-1.0)
        # extrapolation continues the end segments
        assert u.derivative(10.0)[0] == pytest.approx(-1.0)

    def test_piecewise_linear_validation(self):
        with pytest.raises(InputError):
            InputSignal.piecewise_linear([0.0, 0.0], [[1.0], [2.0]])
        with pytest.raises(InputError):
            InputSignal.piecewise_linear([0.0], [[1.0]])

    def test_piecewise_linear_needs_one_value_row_per_knot(self):
        with pytest.raises(InputError, match="one value row per knot"):
            InputSignal.piecewise_linear([0.0, 1.0, 2.0], [[1.0], [2.0]])

    def test_times_must_be_a_scalar_or_a_1d_array(self):
        with pytest.raises(InputError, match=r"1-D array, got shape \(2, 2\)"):
            InputSignal.constant([1.0]).value(np.zeros((2, 2)))

    def test_callable_without_derivative(self):
        u = InputSignal.from_callable(lambda t: t, dim=1)
        with pytest.raises(CapabilityError):
            u.derivative(0.0)

    @pytest.mark.parametrize("u", [
        InputSignal.constant([2.0, -1.0]),
        InputSignal.sinusoid([1.5, 0.4], omega=2.3, phase=0.3, offset=[0.1, -0.2]),
        # knots, points between them, and both extrapolated end segments
        InputSignal.piecewise_linear([0.0, 1.0, 3.0], [[0.0, 1.0], [2.0, -1.0], [0.0, 0.5]]),
    ], ids=["constant", "sinusoid", "piecewise_linear"])
    def test_array_evaluation_equals_scalar_evaluations(self, u):
        ts = np.array([-1.0, 0.0, 0.3, 1.0, 1.7, 3.0, 4.5] + list(np.linspace(0.0, 3.0, 31)))
        for method in (u.value, u.derivative):
            rows = method(ts)
            assert rows.shape == (ts.shape[0], 2)
            assert np.array_equal(rows, np.stack([method(t) for t in ts]))
            assert method(float(ts[2])).shape == (2,)
        assert np.array_equal(u.values(ts), u.value(ts))

    def test_non_broadcasting_callable_names_the_shape(self):
        # written for one time: a column of N times gives 2N values in one row
        u = InputSignal.from_callable(lambda t: np.array([np.sin(t), np.cos(t)]).ravel(), dim=2)
        assert np.array_equal(u.value(0.5), [np.sin(0.5), np.cos(0.5)])
        with pytest.raises(InputError, match=r"expected \(5, 2\)"):
            u.values(np.linspace(0.0, 1.0, 5))


class TestSystemSpec:
    def test_affine_constants_exact(self):
        sys = affine_system([[-2.0]], [[2.0]], [[0.3]], identity_metric(1))
        assert sys.certificate.c_hat == pytest.approx(2.0, rel=1e-13)
        assert sys.certificate.ell_hat == pytest.approx(2.0, rel=1e-13)
        assert sys.certificate.sigma_x_sq_hat == pytest.approx(0.09, rel=1e-13)

    def test_non_contracting_rejected(self):
        with pytest.raises(CertificationError):
            affine_system([[1.0]], [[1.0]], [[0.0]], identity_metric(1))

    def test_drift_broadcasts_over_batch(self):
        sys = scalar_tracker(1.0, 0.1)
        X = np.array([[1.0], [2.0], [3.0]])
        out = sys.drift(X, np.array([0.5]))
        assert out.shape == (3, 1)
        assert np.allclose(out[:, 0], -(X[:, 0] - 0.5))


    @pytest.mark.parametrize("field, value, message", [
        ("c_hat", 0.0, "c_hat must be a positive contraction rate"),
        ("sigma_x_sq_hat", -1e-3, "sigma_x_sq_hat must be nonnegative"),
        ("ell_hat", -1e-3, "ell_hat must be nonnegative"),
    ])
    def test_certificate_checks(self, field, value, message):
        sys = scalar_tracker(1.0, 0.1)
        cert = Certificate(**{"c_hat": 1.0, "ell_hat": 1.0, "sigma_x_sq_hat": 0.01,
                              "method": "sampled", field: value})
        with pytest.raises(InputError, match=message):
            SystemSpec(state_dim=1, input_dim=1, drift=sys.drift, dispersion=sys.dispersion,
                       metric=sys.metric, certificate=cert)

    @pytest.mark.parametrize("B, Sigma, dim, message", [
        ([1.0], [[0.3]], 1, "B must have one row per state"),
        ([[1.0], [1.0]], [[0.3]], 1, "B must have one row per state"),
        ([[1.0]], [0.3], 1, "Sigma must have one row per state"),
        ([[1.0]], [[0.3], [0.1]], 1, "Sigma must have one row per state"),
        ([[1.0]], [[0.3]], 2, "metric dimension does not match A"),
    ])
    def test_affine_shape_checks(self, B, Sigma, dim, message):
        with pytest.raises(InputError, match=message):
            affine_system([[-1.0]], B, Sigma, identity_metric(dim))

    def test_affine_dispersion_closure_is_the_constant_sigma(self):
        Sigma = np.array([[0.3, 0.0], [0.1, 0.2]])
        sys = affine_system(-np.eye(2), np.eye(2), Sigma, identity_metric(2))
        assert np.array_equal(sys.dispersion(np.ones((5, 2)), np.zeros((5, 2))), Sigma)
        assert np.array_equal(sys.dispersion_matrix, Sigma)


class TestEquilibriumMap:
    def test_affine_jacobian_and_hessians(self):
        M = np.array([[1.0, 2.0], [0.0, 1.0]])
        eq = EquilibriumMap.affine(M, [1.0, -1.0])
        assert eq.has_hessians
        for H in eq.hessians([0.0, 0.0]):
            assert np.array_equal(H, np.zeros((2, 2)))
        assert np.allclose(eq.x_star([1.0, 1.0]), [4.0, 0.0])

    def test_missing_hessians(self):
        eq = EquilibriumMap(x_star=lambda u: u)
        with pytest.raises(CapabilityError):
            eq.hessians([0.0])
