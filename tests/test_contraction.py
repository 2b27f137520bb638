"""Tests for certification and estimation of the envelope constants."""

import json
import math

import numpy as np
import pytest

from contracting_sde import (
    EquilibriumMap,
    EstimationError,
    InputError,
    Metric,
    box_sampler,
    cascade_metric,
    certify_affine,
    dispersion_bound,
    identity_metric,
    input_lipschitz,
    ito_correction_jd,
    ito_correction_ou,
    oslip_affine,
    oslip_sampled,
    validate_metric,
)


class TestOslipAffine:
    def test_scaled_identity(self):
        assert oslip_affine(-2.0 * np.eye(3), identity_metric(3)) == pytest.approx(-2.0, rel=1e-13)

    def test_shear_identity_metric_not_contracting(self):
        # symmetric part of [[-1,2],[0,-1]] is [[-1,1],[1,-1]], eigenvalues {0,-2}
        A = np.array([[-1.0, 2.0], [0.0, -1.0]])
        assert oslip_affine(A, identity_metric(2)) == pytest.approx(0.0, abs=1e-13)

    def test_weighted_metric_agrees_with_sampled(self):
        A = np.array([[-1.0, 2.0], [0.0, -1.0]])
        m = validate_metric(np.diag([1.0, 4.0]))
        exact = oslip_affine(A, m)
        assert exact < 0.0  # the reweighting certifies contraction
        sampled = oslip_sampled(
            lambda x, u: x @ A.T, None, box_sampler([-1, -1], [1, 1]), m,
            n_pairs=100_000, seed=0,
        )
        assert abs(sampled - exact) <= 1e-6


class TestOslipAffineAgainstScipy:
    """scipy's generalized symmetric eigensolver as the independent oracle."""

    @staticmethod
    def _oracle(A, metric):
        import scipy.linalg

        S = 0.5 * (metric.P @ A + A.T @ metric.P)
        return float(scipy.linalg.eigh(S, metric.P, eigvals_only=True)[-1])

    def test_bit_identical_for_every_1d_metric(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            A = rng.normal(size=(1, 1)) * rng.uniform(0.1, 10.0)
            m = validate_metric(rng.uniform(1e-3, 1e3, size=(1, 1)))
            assert oslip_affine(A, m) == self._oracle(A, m)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bit_identical_for_the_identity_metric(self, n):
        rng = np.random.default_rng(n)
        m = identity_metric(n)
        for _ in range(200):
            A = rng.normal(size=(n, n))
            assert oslip_affine(A, m) == self._oracle(A, m)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_spd_metric_within_1e_12(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(200):
            A = rng.normal(size=(n, n))
            M = rng.normal(size=(n, n))
            m = validate_metric(M @ M.T + 0.1 * np.eye(n))
            assert oslip_affine(A, m) == pytest.approx(self._oracle(A, m), rel=1e-12, abs=0.0)


class TestOslipSampled:
    def test_affine_drift_matches_exact(self):
        A = np.array([[-1.5, 0.3], [-0.2, -0.7]])
        m = identity_metric(2)
        exact = oslip_affine(A, m)
        sampled = oslip_sampled(
            lambda x, u: x @ A.T, None, box_sampler([-2, -2], [2, 2]), m,
            n_pairs=100_000, seed=1,
        )
        assert abs(sampled - exact) <= 1e-3
        # sampled maxima never exceed the true supremum
        assert sampled <= exact + 1e-9

    def test_cubic_drift_nonpositive(self):
        est = oslip_sampled(
            lambda x, u: -x**3, None, box_sampler([-1.0], [1.0]),
            identity_metric(1), n_pairs=50_000, seed=2,
        )
        assert est <= 0.0
        assert est > -0.01  # approached from below by near-origin pairs

    def test_double_well_positive(self):
        # gradient drift of the non-convex double well f = (x^2 - 1)^2 / 4
        est = oslip_sampled(
            lambda x, u: x - x**3, None, box_sampler([-2.0], [2.0]),
            identity_metric(1), n_pairs=50_000, seed=3,
        )
        assert est > 0.5  # true osLip on [-2, 2] is 1 at the origin

    def test_monotone_in_nested_samples(self):
        # nested sample sets (prefixes of fixed pools) give monotone maxima
        rng = np.random.default_rng(12)
        pool_a = rng.uniform(-1, 1, size=(100_000, 1))
        pool_b = rng.uniform(-1, 1, size=(100_000, 1))

        def make_sampler():
            calls = {"n": 0}

            def sample(_rng, n):
                pool = pool_a if calls["n"] == 0 else pool_b
                calls["n"] += 1
                return pool[:n]

            return sample

        F = lambda x, u: np.sin(3 * x)
        vals = [
            oslip_sampled(F, None, make_sampler(), identity_metric(1), n_pairs=n)
            for n in (100, 1000, 10_000, 100_000)
        ]
        assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))

    def test_at_least_one_pair(self):
        with pytest.raises(InputError, match="n_pairs must be >= 1"):
            oslip_sampled(lambda x, u: -x, None, box_sampler([-1.0], [1.0]),
                          identity_metric(1), n_pairs=0)

    def test_degenerate_pairs_raise(self):
        sampler = lambda rng, n: np.zeros((n, 1))
        with pytest.raises(EstimationError):
            oslip_sampled(lambda x, u: -x, None, sampler, identity_metric(1), n_pairs=100)

    def test_non_broadcasting_drift_names_expected_shape(self):
        # a drift written for one state indexes components by position and
        # returns a (2, 2) array on a batch of 100 states
        F = lambda x, u: np.array([-x[0] + u[0], -0.5 * x[1] + u[1]])
        with pytest.raises(InputError, match=r"shape \(2, 2\).*expected \(100, 2\)"):
            oslip_sampled(F, ([-1, -1], [1, 1]), box_sampler([-1, -1], [1, 1]),
                          identity_metric(2), n_pairs=100)
        with pytest.raises(InputError, match=r"shape \(2, 2\).*expected \(100, 2\)"):
            input_lipschitz(F, identity_metric(2), u_box=([-1, -1], [1, 1]),
                            x_sampler=box_sampler([-1, -1], [1, 1]), n_pairs=100)


class TestInputLipschitz:
    def test_tracker_gain(self):
        # F = -c(x - u): input matrix B = cI, so ell = c in the l2 norm
        assert input_lipschitz(np.array([[2.0]]), identity_metric(1)) == pytest.approx(2.0)

    def test_column_vector(self):
        B = np.array([[1.0], [1.0]])
        assert input_lipschitz(B, identity_metric(2)) == pytest.approx(math.sqrt(2.0), rel=1e-13)

    def test_sampled_matches_exact_on_random_affine(self):
        rng = np.random.default_rng(4)
        for seed in range(3):
            B = rng.standard_normal((2, 2))
            m = identity_metric(2)
            exact = input_lipschitz(B, m)
            sampled = input_lipschitz(
                lambda x, u: u @ B.T, m, u_box=([-1, -1], [1, 1]),
                x_sampler=box_sampler([-1, -1], [1, 1]), n_pairs=100_000, seed=seed,
            )
            assert abs(sampled - exact) <= 1e-3 * max(1.0, exact)
            assert sampled <= exact + 1e-9

    def test_no_exact_linf_route(self):
        with pytest.raises(InputError):
            input_lipschitz(np.array([[1.0]]), identity_metric(1), norm_u="linf")

    def test_exact_l1_route_is_the_largest_column_norm(self):
        # ||B v||_P <= sum_j |v_j| ||b_j||_P, with equality at the unit vector of the largest
        B = np.array([[1.0, 2.0, -0.5], [3.0, 4.0, 0.5]])
        m = validate_metric(np.array([[4.0, 1.0], [1.0, 1.0]]))
        columns = [math.sqrt(m.norm_sq(b)) for b in B.T]
        assert input_lipschitz(B, m, norm_u="l1") == pytest.approx(max(columns), rel=1e-13)

    @pytest.mark.parametrize("u_box, x_sampler", [
        (None, box_sampler([-1.0], [1.0])), (([-1.0], [1.0]), None), (None, None)])
    def test_sampled_route_needs_a_box_and_a_sampler(self, u_box, x_sampler):
        with pytest.raises(InputError, match="sampled estimator needs u_box and x_sampler"):
            input_lipschitz(lambda x, u: u, identity_metric(1), u_box=u_box,
                            x_sampler=x_sampler, n_pairs=10)

    def test_degenerate_input_pairs_raise(self):
        with pytest.raises(EstimationError, match="all sampled input pairs degenerate"):
            input_lipschitz(lambda x, u: u, identity_metric(1), u_box=([0.5], [0.5]),
                            x_sampler=box_sampler([-1.0], [1.0]), n_pairs=10)

    @pytest.mark.parametrize("norm_u, exact", [("l1", 1.0), ("linf", 2.0)])
    def test_sampled_input_norms_approach_the_induced_norms(self, norm_u, exact):
        # F(x, u) = u1 + u2: the l1 -> l2 induced norm is 1, linf -> l2 is 2
        F = lambda x, u: u.sum(axis=1, keepdims=True)
        got = input_lipschitz(F, identity_metric(1), norm_u=norm_u, u_box=([-1, -1], [1, 1]),
                              x_sampler=box_sampler([-1.0], [1.0]), n_pairs=20_000, seed=3)
        assert exact - 0.02 <= got <= exact * (1.0 + 1e-12)

    def test_unknown_sampled_input_norm(self):
        with pytest.raises(InputError, match="unknown input norm 'l3'"):
            input_lipschitz(lambda x, u: u, identity_metric(1), norm_u="l3",
                            u_box=([-1.0], [1.0]), x_sampler=box_sampler([-1.0], [1.0]),
                            n_pairs=10)


class TestDispersionBound:
    def test_scaled_identity(self):
        n, sigma = 3, 0.7
        S = (sigma / math.sqrt(n)) * np.eye(n)
        assert dispersion_bound(S, identity_metric(n)) == pytest.approx(sigma**2, rel=1e-13)

    def test_zero(self):
        assert dispersion_bound(np.zeros((2, 2)), identity_metric(2)) == 0.0

    def test_state_dependent_sup_approached(self):
        # Sigma(x) = diag(sin x): trace = sin^2 x1 + sin^2 x2, sup = 2
        Sigma = lambda x, u: np.diag(np.sin(x))
        best = dispersion_bound(
            Sigma, identity_metric(2),
            x_sampler=box_sampler([0.0, 0.0], [math.pi, math.pi]),
            n_samples=20_000, seed=0,
        )
        assert 1.98 <= best <= 2.0 + 1e-12


    def test_sampled_route_needs_a_state_sampler(self):
        with pytest.raises(InputError, match="sampled estimator needs x_sampler"):
            dispersion_bound(lambda x, u: np.eye(1), identity_metric(1))

    def test_sampled_route_over_an_input_box(self):
        # Sigma(x, u) = [[u]] on u in [0, 2]: trace(Sigma^T Sigma) = u^2, sup 4
        best = dispersion_bound(lambda x, u: np.array([[u[0]]]), identity_metric(1),
                                x_sampler=box_sampler([0.0], [1.0]), u_box=([0.0], [2.0]),
                                n_samples=2000, seed=1)
        assert 3.95 <= best <= 4.0


class TestCascadeMetric:
    def test_unit_parameters_identity(self):
        m = cascade_metric(identity_metric(1), c=1.0, ell=1.0, m=1)
        assert np.array_equal(m.P, np.eye(2))

    def test_formula_substitution(self):
        m = cascade_metric(identity_metric(1), c=2.0, ell=1.0, m=1)
        assert np.allclose(m.P, np.diag([0.5, 2.0]))

    def test_output_is_valid_metric(self):
        m = cascade_metric(identity_metric(2), c=1.5, ell=0.4, m=3)
        assert isinstance(m, Metric)
        assert np.all(np.linalg.eigvalsh(m.P) > 0)

    def test_zero_ell_rejected(self):
        with pytest.raises(InputError):
            cascade_metric(identity_metric(1), c=1.0, ell=0.0, m=1)

    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_nonpositive_rate_rejected(self, c):
        with pytest.raises(InputError, match="c must be positive"):
            cascade_metric(identity_metric(1), c=c, ell=1.0, m=1)

    def test_unnormalized_metric_rejected(self):
        with pytest.raises(InputError):
            cascade_metric(validate_metric(np.diag([4.0, 1.0])), c=1.0, ell=1.0, m=1)

    def test_certifies_half_rate_for_cascade_field(self):
        # field [-c xi; F(x, theta + xi)] for the affine drift F = -x + 2u
        c, ell = 1.0, 2.0
        Pc = cascade_metric(identity_metric(1), c=c, ell=ell, m=1)

        def field(s, th):
            xi, x = s[..., :1], s[..., 1:]
            return np.concatenate([-c * xi, -x + ell * (th + xi)], axis=-1)

        est = oslip_sampled(
            field, ([0.0], [1.0]), box_sampler([-2, -2], [2, 2]), Pc,
            n_pairs=100_000, seed=5,
        )
        assert est <= -c / 2.0 + 1e-3


class TestItoCorrections:
    def test_ou_affine_map_zero(self):
        eq = EquilibriumMap.affine([[1.0, 0.5]])
        val = ito_correction_ou(eq, identity_metric(1), m=2,
                                u_sampler=box_sampler([-1, -1], [1, 1]))
        assert val == 0.0

    def test_ou_quadratic_map(self):
        # x*(u) = u^2 has constant Hessian [[2]]; sup |2| / m = 2
        eq = EquilibriumMap(
            x_star=lambda u: np.array([u[0] ** 2]),
            hessians=lambda u: [np.array([[2.0]])],
        )
        val = ito_correction_ou(eq, identity_metric(1), m=1,
                                u_sampler=box_sampler([-1.0], [1.0]))
        assert val == pytest.approx(2.0, rel=1e-12)

    def test_ou_finite_difference_matches_grid_oracle(self):
        # x*(u) = sin u without Hessians: 5-point differences vs a dense grid
        eq = EquilibriumMap(x_star=lambda u: np.array([math.sin(u[0])]))
        sampled = ito_correction_ou(eq, identity_metric(1), m=1,
                                    u_sampler=box_sampler([0.0], [math.pi]),
                                    n_samples=2000, seed=0)
        dense = max(abs(math.sin(u)) for u in np.linspace(0.0, math.pi, 5001))
        assert sampled == pytest.approx(dense, rel=0.01)

    def test_jd_affine_map_zero(self):
        eq = EquilibriumMap.affine([[2.0]])
        grid = np.linspace(0.1, 0.9, 9)[:, None]
        assert ito_correction_jd(eq, identity_metric(1), [1.0], grid) == 0.0

    def test_jd_quadratic_map_calculus_value(self):
        # sup over (0,1) of |u(1-u) * 2| = 0.5 at u = 1/2
        eq = EquilibriumMap(
            x_star=lambda u: np.array([u[0] ** 2]),
            hessians=lambda u: [np.array([[2.0]])],
        )
        grid = np.linspace(0.001, 0.999, 1999)[:, None]
        assert ito_correction_jd(eq, identity_metric(1), [1.0], grid) == pytest.approx(0.5, rel=1e-6)

    def test_jd_grid_outside_domain_rejected(self):
        eq = EquilibriumMap.affine([[1.0]])
        with pytest.raises(InputError):
            ito_correction_jd(eq, identity_metric(1), [1.0], np.array([[1.5]]))

    def test_jd_grid_refinement_stable(self):
        eq = EquilibriumMap(x_star=lambda u: np.array([math.sin(2.0 * u[0])]))
        coarse = ito_correction_jd(
            eq, identity_metric(1), [1.0], np.linspace(0.01, 0.99, 99)[:, None])
        dense = ito_correction_jd(
            eq, identity_metric(1), [1.0], np.linspace(0.01, 0.99, 9901)[:, None])
        assert abs(dense - coarse) <= 0.02 * max(dense, 1e-12)


class TestCertificate:
    def test_exact_for_scalar_tracker(self):
        cert = certify_affine([[-1.5]], [[0.7]], [[0.3]], identity_metric(1))
        assert cert.c_hat == pytest.approx(1.5, rel=1e-13)
        assert cert.ell_hat == pytest.approx(0.7, rel=1e-13)
        assert cert.sigma_x_sq_hat == pytest.approx(0.09, rel=1e-13)
        assert cert.method == "exact-affine"

    def test_json_round_trip(self):
        cert = certify_affine([[-1.0]], [[1.0]], [[0.5]], identity_metric(1))
        payload = json.loads(cert.to_json())
        assert payload["c_hat"] == pytest.approx(1.0)
        assert payload["method"] == "exact-affine"
