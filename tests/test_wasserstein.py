"""Tests for empirical Wasserstein distances, the distributional contraction
envelope, and the Gibbs stationarity checks."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse.csgraph

from contracting_sde import (
    CapabilityError,
    CapacityError,
    Certificate,
    CouplingMode,
    DomainError,
    EmpiricalMeasure,
    InputError,
    InputSignal,
    RngLineage,
    SystemSpec,
    TimeGrid,
    WassersteinScenario,
    affine_system,
    gibbs_check,
    gibbs_density,
    identity_metric,
    integrate_pair,
    parse_config,
    run_scenario,
    stationarity_residual,
    validate_metric,
    wasserstein_1d,
    wasserstein_assignment,
    wasserstein_envelope,
    wasserstein_series,
)
from contracting_sde import wasserstein
from contracting_sde.wasserstein import (
    _bottleneck_assignment, _pairwise_norms, _threshold_csr, _wasserstein_verdict,
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

    def test_column_samples_keep_working(self):
        xs, ys = np.array([0.0, 1.0, 5.0]), np.array([1.0, 3.0, 2.0])
        want = wasserstein_1d(xs, ys, 2)
        assert wasserstein_1d(xs[:, None], ys[:, None], 2) == want
        assert wasserstein_1d(xs[:, None], ys, 2) == want

    @pytest.mark.parametrize("shape", [(3, 2), (1, 3), (2, 3, 1), ()])
    def test_multidimensional_samples_rejected(self, shape):
        # a (3, 2) pair was flattened into 6 "samples" and gave 1.0
        with pytest.raises(InputError, match=r"shape \(k,\) or \(k, 1\)"):
            wasserstein_1d(np.zeros(shape), np.ones(shape), 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        # these gave NaN with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for xs, ys in (([0.0, bad], [1.0, 2.0]), ([0.0, 1.0], [[bad], [2.0]])):
                with pytest.raises(InputError, match="finite"):
                    wasserstein_1d(xs, ys, 2)

    @pytest.mark.parametrize("p", [math.nan, 0.5, 0.0, -math.inf])
    def test_order_checked_before_any_work(self, p, monkeypatch):
        # pow(1, nan) = 1: an unchecked NaN order gave W_p = 1.0 here
        with pytest.raises(InputError, match="p must be"):
            wasserstein_1d([1.0, 2.0], [0.0, 3.0], p)

        def no_distances(*args):
            raise AssertionError("distance matrix built before p was checked")

        monkeypatch.setattr(wasserstein, "_pairwise_norms", no_distances)
        cloud = EmpiricalMeasure([[0.0], [1.0]])
        with pytest.raises(InputError, match="p must be"):
            wasserstein_assignment(cloud, cloud, p)


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

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_unequal_dimensions_rejected_before_any_work(self, p, monkeypatch):
        # Y's third coordinate was ignored: W_2 came out as sqrt(2)
        def no_distances(*args):
            raise AssertionError("distances built before the dimensions were checked")

        monkeypatch.setattr(wasserstein, "_pairwise_norms", no_distances)
        monkeypatch.setattr(wasserstein, "_sq_l2", no_distances)
        with pytest.raises(InputError, match="dimensions must match"):
            wasserstein_assignment(EmpiricalMeasure(np.zeros((3, 2))),
                                   EmpiricalMeasure(np.ones((3, 3))), p)

    def test_empirical_measure_validation(self):
        with pytest.raises(InputError):
            EmpiricalMeasure([[1.0]])
        with pytest.raises(InputError):
            EmpiricalMeasure([[1.0], [math.nan]])

    def test_one_dimensional_array_is_k_scalar_samples(self):
        xs, ys = np.array([0.0, 1.0, 2.0]), np.array([0.5, 2.5, 1.0])
        mx, my = EmpiricalMeasure(xs), EmpiricalMeasure(ys)
        assert mx.samples.shape == (3, 1) and (mx.k, mx.dim) == (3, 1)
        assert np.array_equal(mx.samples, EmpiricalMeasure(xs[:, None]).samples)
        for p in (1, 2, math.inf):
            assert wasserstein_assignment(mx, my, p) == pytest.approx(
                wasserstein_1d(xs, ys, p), rel=1e-12)
        with pytest.raises(InputError, match="at least 2 samples"):
            EmpiricalMeasure(np.array([1.0]))

    @pytest.mark.parametrize("samples", [1.0, np.zeros((3, 2, 2)), np.zeros((2, 3, 1, 1))])
    def test_samples_of_another_rank_are_an_input_error(self, samples):
        with pytest.raises(InputError, match=r"\(k,\) or \(k, n\)"):
            EmpiricalMeasure(samples)


def _lsa_bottleneck(D):
    """Reference bottleneck value: bisect the sorted distinct entries of D,
    testing each threshold tau with a linear assignment on the 0/1 cost
    D > tau (a perfect matching inside {D <= tau} exists iff its cost is 0)."""
    vals = np.unique(D)
    lo, hi = 0, len(vals) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        cost = (D > vals[mid]).astype(float)
        rows, cols = scipy.optimize.linear_sum_assignment(cost)
        if cost[rows, cols].sum() == 0.0:
            hi = mid
        else:
            lo = mid + 1
    return float(vals[lo])


def _euclidean(X, Y):
    return np.sqrt(((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=2))


def _row_col_bound(D):
    return max(D.min(axis=1).max(), D.min(axis=0).max())


class TestBottleneckOracle:
    @pytest.mark.parametrize("k", [2, 3, 5, 6, 7])  # k = 4: TestWassersteinAssignment
    def test_matches_brute_force(self, k):
        rng = np.random.default_rng(10 + k)
        perms = np.array(list(itertools.permutations(range(k))))
        for _ in range(5):
            D = _euclidean(rng.standard_normal((k, 2)), rng.standard_normal((k, 2)) + 1.0)
            best = D[np.arange(k), perms].max(axis=1).min()
            assert _bottleneck_assignment(D) == best

    @pytest.mark.parametrize("k", [8, 64, 200])
    @pytest.mark.parametrize("offset", [0.0, 4.0])
    def test_matches_assignment_reference(self, k, offset):
        rng = np.random.default_rng(k)
        X = rng.standard_normal((k, 2))
        Y = rng.standard_normal((k, 2)) + [0.0, offset]
        D = _euclidean(X, Y)
        reference = _lsa_bottleneck(D)
        assert _bottleneck_assignment(D) == reference
        got = wasserstein_assignment(EmpiricalMeasure(X), EmpiricalMeasure(Y), math.inf)
        assert got == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("k", [8, 64, 200])
    def test_integer_grid_ties(self, k):
        # l1 distances between points of a small integer grid: few distinct
        # values, each shared by many pairs
        rng = np.random.default_rng(100 + k)
        X = rng.integers(0, 6, (k, 2)).astype(float)
        Y = rng.integers(0, 6, (k, 2)).astype(float) + [0.0, 2.0]
        D = np.abs(X[:, None, :] - Y[None, :, :]).sum(axis=2)
        assert len(np.unique(D)) < 20
        assert _bottleneck_assignment(D) == _lsa_bottleneck(D)

    @pytest.mark.parametrize("k", [8, 64, 200])
    def test_identical_clouds_give_zero(self, k):
        X = np.random.default_rng(200 + k).standard_normal((k, 2))
        assert _bottleneck_assignment(_euclidean(X, X[::-1].copy())) == 0.0

    @pytest.mark.parametrize("k", [8, 64, 200])
    def test_answer_at_the_row_column_bound(self, k):
        # one far outlier must take its nearest partner; everything else
        # matches closer, so the answer is that outlier's row minimum
        rng = np.random.default_rng(300 + k)
        X = rng.standard_normal((k, 2))
        X[0] = [60.0, 0.0]
        D = _euclidean(X, rng.standard_normal((k, 2)))
        assert _bottleneck_assignment(D) == _lsa_bottleneck(D) == _row_col_bound(D)

    @staticmethod
    def _count_matchings(monkeypatch):
        calls = []
        matching = scipy.sparse.csgraph.maximum_bipartite_matching

        def counted(*args, **kwargs):
            calls.append(1)
            return matching(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.csgraph, "maximum_bipartite_matching", counted)
        return calls

    @pytest.mark.parametrize("k", [8, 64, 200])
    def test_matching_calls_bounded_by_the_bracket(self, k, monkeypatch):
        calls = self._count_matchings(monkeypatch)
        rng = np.random.default_rng(400 + k)
        D = _euclidean(rng.standard_normal((k, 2)), rng.standard_normal((k, 2)) + 4.0)
        bracket = np.unique(D[D >= _row_col_bound(D)]).size
        assert _bottleneck_assignment(D) == _lsa_bottleneck(D)
        assert 0 < len(calls) <= math.ceil(math.log2(bracket)) + 1

    @pytest.mark.parametrize("k", [8, 64, 200])
    def test_translate_needs_no_probe(self, k, monkeypatch):
        # Y = X + d puts every diagonal distance at |d|, the upper bound;
        # W_inf >= W_1 >= |mean(Y) - mean(X)| = |d| makes it the answer.
        # The sample of X lowest along d has no point of Y nearer than |d|,
        # so the row-minimum bound meets it and no matching is probed
        calls = self._count_matchings(monkeypatch)
        X = np.random.default_rng(500 + k).integers(-10, 11, (k, 2)).astype(float)
        D = _euclidean(X, X + [3.0, 4.0])
        assert np.all(np.diagonal(D) == 5.0)
        assert _bottleneck_assignment(D) == 5.0
        assert calls == []

    @pytest.mark.parametrize("k", [8, 64, 200])
    def test_optimal_pairing_takes_one_probe(self, k, monkeypatch):
        # the monotone pairing of points on a line is optimal: x_i = i and
        # y_i = i + e_i with e_i in [0.2, 0.5], except e_m = 0.6 and
        # e_{m-1} = 0.5, so tau is D[m, m] = 0.6 while every row and column
        # has an entry at most 0.5; the one probe, just below 0.6, fails
        # and the solve ends
        calls = self._count_matchings(monkeypatch)
        m = k // 2
        xs = np.arange(k, dtype=float)
        ys = xs + np.random.default_rng(700 + k).uniform(0.2, 0.5, k)
        ys[m - 1], ys[m] = m - 0.5, m + 0.6
        D = _euclidean(np.c_[xs, np.zeros(k)], np.c_[ys, np.zeros(k)])
        bound = _row_col_bound(D)
        assert bound <= 0.5
        assert np.unique(D[(D >= bound) & (D <= D[m, m])]).size > 4  # bisection would probe more
        assert _bottleneck_assignment(D) == D[m, m] == _lsa_bottleneck(D)
        assert len(calls) == 1

    @pytest.mark.parametrize("k", [8, 200])  # at k = 64 the bound meets the diagonal
    def test_lower_bound_answer_takes_two_matchings(self, k, monkeypatch):
        # the cloud of test_answer_at_the_row_column_bound: the first probe,
        # below the diagonal bound, succeeds, so the next is at the lower
        # bound, which is tau
        calls = self._count_matchings(monkeypatch)
        rng = np.random.default_rng(300 + k)
        X = rng.standard_normal((k, 2))
        X[0] = [60.0, 0.0]
        D = _euclidean(X, rng.standard_normal((k, 2)))
        bound = _row_col_bound(D)
        assert np.unique(D[(D >= bound) & (D <= np.diagonal(D).max())]).size > 3
        assert _bottleneck_assignment(D) == bound
        assert len(calls) == 2

    @pytest.mark.parametrize("k", [64, 200])
    def test_matching_moves_the_bracket(self, k, monkeypatch):
        # a perturbed translate: a feasible probe's matching has its largest
        # distance below the probe's threshold, the bracket's upper end moves
        # there, and every later probe lies below it
        probes = []
        build, matching = _threshold_csr, scipy.sparse.csgraph.maximum_bipartite_matching

        def recorded_build(D, tau, indptr, col_ids):
            rows, cols, indices = build(D, tau, indptr, col_ids)
            probes.append([tau, rows, cols])
            return rows, cols, indices

        def recorded_matching(*args, **kwargs):
            match = matching(*args, **kwargs)
            probes[-1].append(match)
            return match

        monkeypatch.setattr(wasserstein, "_threshold_csr", recorded_build)
        monkeypatch.setattr(scipy.sparse.csgraph, "maximum_bipartite_matching",
                            recorded_matching)
        rng = np.random.default_rng(800 + k)
        X = rng.standard_normal((k, 2))
        D = _euclidean(X, X + [3.0, 4.0] + 0.1 * rng.standard_normal((k, 2)))
        assert _bottleneck_assignment(D) == _lsa_bottleneck(D)
        moved = False
        for i, (tau, rows, cols, match) in enumerate(probes):
            if np.all(match >= 0):
                top = D[rows, cols[match]].max()
                assert top <= tau
                assert all(later[0] < top for later in probes[i + 1:])
                moved |= top < tau
        assert moved

    @pytest.mark.parametrize("k", [1, 2, 128])
    def test_threshold_csr_equals_the_direct_build(self, k):
        # the degree-relabelled CSR arrays as built before the lean build:
        # fancy-index copies of the mask and flat positions modulo k
        def reference(D, tau):
            mask = D <= tau
            deg = np.count_nonzero(mask, axis=1)
            rows = np.argsort(deg, kind="stable")
            cols = np.argsort(np.count_nonzero(mask, axis=0), kind="stable")
            indptr = np.concatenate(([0], np.cumsum(deg[rows]))).astype(np.int32)
            indices = (np.flatnonzero(mask[rows][:, cols]) % k).astype(np.int32)
            return rows, cols, indptr, indices

        rng = np.random.default_rng(900 + k)
        D = _euclidean(rng.standard_normal((k, 2)), rng.standard_normal((k, 2)) + 0.5)
        indptr = np.zeros(k + 1, np.int32)  # one buffer for every probe, as in a solve
        col_ids = np.broadcast_to(np.arange(k, dtype=np.int32), (k, k))
        taus = [D.min() - 1.0, D.max(), *rng.choice(D.ravel(), 20), *rng.uniform(0, D.max(), 20)]
        for tau in taus:
            rows, cols, indices = _threshold_csr(D, tau, indptr, col_ids)
            ref_rows, ref_cols, ref_indptr, ref_indices = reference(D, tau)
            assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)
            assert indptr.dtype == ref_indptr.dtype and np.array_equal(indptr, ref_indptr)
            assert indices.dtype == ref_indices.dtype and np.array_equal(indices, ref_indices)

    @pytest.mark.parametrize("k", [1, 2, 128])
    @pytest.mark.parametrize("cloud", ["random", "integer_grid"])
    def test_every_probe_matches_a_fresh_csr_matrix(self, k, cloud, monkeypatch):
        # each probe of a solve swaps its arrays into one container; at every
        # probe the matching on that container equals the matching on a
        # csr_matrix newly built, and validated, from the same arrays
        matching = scipy.sparse.csgraph.maximum_bipartite_matching
        graphs = []

        def compared(graph, perm_type):
            match = matching(graph, perm_type=perm_type)
            fresh = scipy.sparse.csr_matrix(
                (np.ones(graph.indices.shape[0], bool), graph.indices.copy(),
                 graph.indptr.copy()), graph.shape)
            fresh.check_format(full_check=True)
            assert np.array_equal(match, matching(fresh, perm_type=perm_type))
            graphs.append(graph)
            return match

        monkeypatch.setattr(scipy.sparse.csgraph, "maximum_bipartite_matching", compared)
        rng = np.random.default_rng(1000 + k)
        probes = 0
        for _ in range(4):
            if cloud == "random":
                D = _euclidean(rng.standard_normal((k, 2)), rng.standard_normal((k, 2)) + 0.5)
            else:  # l1 distances on a small integer grid: many ties
                X = rng.integers(0, 6, (k, 2)).astype(float)
                Y = rng.integers(0, 6, (k, 2)).astype(float) + [0.0, 1.0]
                D = np.abs(X[:, None, :] - Y[None, :, :]).sum(axis=2)
            graphs.clear()
            assert _bottleneck_assignment(D) == _lsa_bottleneck(D)
            assert len({id(g) for g in graphs}) <= 1  # one container per solve
            probes += len(graphs)
        assert probes > 0 or k == 1  # a 1 x 1 solve needs no probe

    @pytest.mark.parametrize("k", [8, 64, 200])
    def test_shuffled_pairing_is_bisected(self, k):
        # permuting Y's rows puts the identity pairing far from optimal
        rng = np.random.default_rng(600 + k)
        X = rng.standard_normal((k, 2))
        Y = (X + 0.1 * rng.standard_normal((k, 2)))[rng.permutation(k)]
        D = _euclidean(X, Y)
        assert _lsa_bottleneck(D) < np.diagonal(D).max()
        assert _bottleneck_assignment(D) == _lsa_bottleneck(D)


def _einsum_l2(X, Y):
    """l2 distances as computed before the coordinate loop."""
    diff = X[:, None, :] - Y[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


class TestPairwiseNorms:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_l2_equals_the_einsum_form(self, n):
        rng = np.random.default_rng(40 + n)
        for k in (2, 37, 128):
            X = 30.0 * rng.standard_normal((k, n))
            Y = rng.standard_normal((k, n)) + rng.uniform(-5.0, 5.0, n)
            assert np.array_equal(_pairwise_norms(X, Y, "l2"), _einsum_l2(X, Y))
            G = rng.standard_normal((n, n))
            m = validate_metric(G @ G.T + n * np.eye(n))
            assert not np.array_equal(m.chol, np.eye(n))
            assert np.array_equal(_pairwise_norms(X, Y, m), _einsum_l2(X @ m.chol, Y @ m.chol))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_l1_and_linf_are_the_difference_tensor_reductions(self, n):
        rng = np.random.default_rng(50 + n)
        X, Y = rng.standard_normal((37, n)), 4.0 * rng.standard_normal((37, n))
        diff = X[:, None, :] - Y[None, :, :]
        assert np.array_equal(_pairwise_norms(X, Y, "l1"), np.abs(diff).sum(axis=2))
        assert np.array_equal(_pairwise_norms(X, Y, "linf"), np.abs(diff).max(axis=2))


    def test_unknown_norm(self):
        X = np.zeros((3, 2))
        with pytest.raises(InputError, match="unknown norm 'l3'"):
            _pairwise_norms(X, X + 1.0, "l3")

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_metric_of_another_dimension_names_both(self, p):
        mx, my = EmpiricalMeasure(np.zeros((4, 2))), EmpiricalMeasure(np.ones((4, 2)))
        with pytest.raises(InputError, match="samples of dimension 2 measured in a metric "
                                             "of dimension 3"):
            wasserstein_assignment(mx, my, p, norm=identity_metric(3))


def _w2_lsa(X, Y):
    """Reference W_2: scipy's assignment on the uncentred squared distances."""
    D = _einsum_l2(X, Y)
    rows, cols = scipy.optimize.linear_sum_assignment(D**2)
    return float(np.mean(D[rows, cols] ** 2) ** 0.5)


def _offset_cases(rng, k, n):
    """(X, Y) pairs: offset clouds, near-translates, and both far from 0."""
    X = rng.standard_normal((k, n))
    shift = rng.uniform(-20.0, 20.0, n)
    yield X, rng.standard_normal((k, n)) + shift
    yield X, X + shift + 1e-6 * rng.standard_normal((k, n))
    yield X + 1e3, X[rng.permutation(k)] + shift + 1e-3 * rng.standard_normal((k, n))


class TestCentredW2Solve:
    """W_2 is solved on centred clouds: the same value as the plain solve."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", [2, 3, 5, 7])
    def test_matches_brute_force_permutations(self, k, n):
        rng = np.random.default_rng(100 * n + k)
        perms = np.array(list(itertools.permutations(range(k))))
        G = rng.standard_normal((n, n))
        P = G @ G.T + n * np.eye(n)
        m = validate_metric(P)
        for X, Y in _offset_cases(rng, k, n):
            diff = X[:, None, :] - Y[None, :, :]
            for norm, cost in (("l2", np.sum(diff**2, axis=2)),
                               (m, np.einsum("ijk,kl,ijl->ij", diff, P, diff))):
                best = math.sqrt(cost[np.arange(k), perms].mean(axis=1).min())
                got = wasserstein_assignment(EmpiricalMeasure(X), EmpiricalMeasure(Y), 2, norm)
                assert got == pytest.approx(best, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_the_uncentred_solve_at_k_128(self, n):
        rng = np.random.default_rng(60 + n)
        for X, Y in _offset_cases(rng, 128, n):
            got = wasserstein_assignment(EmpiricalMeasure(X), EmpiricalMeasure(Y), 2)
            assert got == _w2_lsa(X, Y)

    def test_equals_the_uncentred_solve_on_coupled_clouds(self, monkeypatch):
        clouds = []
        distance = wasserstein._cloud_distance

        def recorded(X, Y, p, norm):
            clouds.append((X, Y, norm))
            return distance(X, Y, p, norm)

        monkeypatch.setattr(wasserstein, "_cloud_distance", recorded)
        rng = np.random.default_rng(7)
        G = rng.standard_normal((2, 2))
        metric = validate_metric(G @ G.T + 2.0 * np.eye(2))
        sys = affine_system([[-1.5, 0.45], [-0.45, -1.5]], np.eye(2), 0.3 * np.eye(2), metric)
        X0 = rng.standard_normal((128, 2)) + [0.0, 4.0]
        u_x, u_y = InputSignal.constant([1.0, 0.0]), InputSignal.constant([0.0, 0.0])
        sc = WassersteinScenario(sys, sys, X0, rng.standard_normal((128, 2)), u_x, u_y,
                                 TimeGrid(0.0, 0.025, 300))
        _, w_emp, _ = wasserstein_series(sc, 2, 2602)
        assert len(clouds) == len(w_emp) == 21
        for (X, Y, norm), w in zip(clouds, w_emp):
            assert w == _w2_lsa(X @ norm.chol, Y @ norm.chol)

    def test_translation_keeps_the_pairing(self, monkeypatch):
        rng = np.random.default_rng(8)
        k = 128
        X, Y = rng.standard_normal((k, 2)), rng.standard_normal((k, 2)) + [0.0, 4.0]
        pairings = []
        solve = scipy.optimize.linear_sum_assignment

        def recorded(cost):
            rows, cols = solve(cost)
            pairings.append(cols)
            return rows, cols

        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", recorded)
        w = wasserstein_assignment(EmpiricalMeasure(X), EmpiricalMeasure(Y), 2)
        gap = X.mean(axis=0) - Y.mean(axis=0)
        for a in ([30.0, -7.0], [-1e3, 2e3]):
            a = np.array(a)
            # mean_i |x_i + a - y_s(i)|^2 = mean_i |x_i - y_s(i)|^2 + 2 a.gap + |a|^2,
            # whatever the pairing s
            for Xa, Ya, shift in ((X + a, Y, a), (X, Y + a, -a)):
                wa = wasserstein_assignment(EmpiricalMeasure(Xa), EmpiricalMeasure(Ya), 2)
                assert np.array_equal(pairings[-1], pairings[0])
                want = w**2 + 2.0 * shift @ gap + shift @ shift
                assert wa**2 == pytest.approx(want, rel=1e-12)


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

    def test_times_in_one_array_equal_each_time_alone(self):
        ts = np.linspace(0.0, 4.0, 9)
        for gap in (0.4, lambda t: 0.4 + 0.1 * np.sin(t)):
            env = wasserstein_envelope(1.0, 1.2, 0.7, gap, ts)
            assert env.shape == ts.shape
            assert env.tolist() == [wasserstein_envelope(1.0, 1.2, 0.7, gap, t) for t in ts]

    def test_no_contraction_grows_linearly(self):
        # c = 0 has no closed form of the term list; the gap is integrated
        assert wasserstein_envelope(2.0, 0.0, 0.5, 0.4, 3.0) == pytest.approx(
            2.0 + 0.5 * 0.4 * 3.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InputError):
            wasserstein_envelope(-1.0, 1.0, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("t", [-1.0, -1e-300, math.nan, math.inf])
    def test_time_outside_zero_to_infinity(self, t):
        with pytest.raises(InputError, match="finite and >= 0"):
            wasserstein_envelope(1.0, 1.0, 1.0, 0.0, t)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("slot", range(3))
    def test_nonfinite_constants(self, slot, bad):
        args = [1.0, 1.0, 1.0]
        args[slot] = bad
        with pytest.raises(InputError):
            wasserstein_envelope(*args, 0.0, 1.0)


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
        assert _wasserstein_verdict(*wasserstein_series(sc, 2, master_seed=1), sc.k).holds

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
        verdict = _wasserstein_verdict(*wasserstein_series(sc, 2, master_seed=2), sc.k)
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
        with pytest.raises(CapabilityError):
            sc = WassersteinScenario(
                sys_x=sys, sys_y=sys, x0_samples=x0, y0_samples=x0,
                u_x=InputSignal.constant([0.0]), u_y=InputSignal.constant([0.0]),
                grid=TimeGrid(0.0, 1e-2, 10),
            )
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

    @pytest.mark.parametrize("p", [2, "inf"])
    def test_scenario_measures_in_the_certified_metric(self, tmp_path, monkeypatch, p):
        # A is not contracting in l2 (mu_2(A) = 1) but is in P, where c and
        # ell are certified; each checkpoint of the bundle is the assignment
        # distance in P between the clouds that the path pairs reach
        import contracting_sde.scenarios as scenarios_mod

        A = [[-1.0, 4.0], [0.0, -1.0]]
        P = [[1.0, 0.5], [0.5, 16.0]]
        scenarios_seen = []

        def spied(sc, *args, **kwargs):
            scenarios_seen.append(sc)
            return wasserstein_series(sc, *args, **kwargs)

        monkeypatch.setattr(scenarios_mod, "wasserstein_series", spied)
        cfg = parse_config(json.dumps({
            "scenario_kind": "wasserstein",
            "system": {"A": A, "B": [[1.0, 0.0], [0.0, 1.0]],
                       "Sigma": [[0.3, 0.0], [0.1, 0.3]], "P": P},
            "input_x": {"kind": "constant", "value": [0.5, -0.5]},
            "input_y": {"kind": "constant", "value": [0.0, 0.0]},
            "cloud": {"k": 12, "mean_x": [1.0, 1.0], "mean_y": [0.0, 0.0]},
            "p": p, "grid": {"dt": 0.01, "steps": 60}, "master_seed": 5,
        }))
        run_scenario(cfg, tmp_path / "bundle")
        (sc,) = scenarios_seen
        metric = sc.sys_x.metric
        assert np.array_equal(metric.P, P)
        pairs = [integrate_pair(sc.sys_x, sc.sys_y, sc.x0_samples[i], sc.y0_samples[i],
                                sc.u_x, sc.u_y, CouplingMode.COMMON, sc.grid, RngLineage(5, i))
                 for i in range(sc.k)]
        rows = np.loadtxt(tmp_path / "bundle" / "wasserstein.csv", delimiter=",", skiprows=1)
        order = math.inf if p == "inf" else p
        l2_gaps = []
        for t, w in rows[:, :2]:
            j = int(round(t / sc.grid.dt))
            mx = EmpiricalMeasure(np.array([tx.states[j] for tx, _ in pairs]))
            my = EmpiricalMeasure(np.array([ty.states[j] for _, ty in pairs]))
            assert w == pytest.approx(wasserstein_assignment(mx, my, order, norm=metric),
                                      rel=1e-12)
            l2_gaps.append(abs(w - wasserstein_assignment(mx, my, order)))
        assert max(l2_gaps) > 0.1  # the l2 distance would read otherwise

    def test_metric_on_a_line_scales_the_sorted_distance(self, monkeypatch):
        # in 1-D the weighted norm is |L x| with L the Cholesky factor: the
        # sorted-order formula applies, and no assignment is solved
        def no_assignment(*args):
            raise AssertionError("1-D clouds need no assignment solve")

        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", no_assignment)
        rng = np.random.default_rng(8)
        metric = validate_metric(np.array([[4.0]]))
        sys = affine_system([[-1.0]], [[1.0]], [[0.5]], metric)
        sc = WassersteinScenario(
            sys_x=sys, sys_y=sys, x0_samples=rng.standard_normal((512, 1)) + 2.0,
            y0_samples=rng.standard_normal((512, 1)),
            u_x=InputSignal.constant([1.0]), u_y=InputSignal.constant([0.0]),
            grid=TimeGrid(0.0, 1e-2, 40),
        )
        for p in (2, math.inf):
            _, w_metric, _ = wasserstein_series(sc, p, master_seed=4, norm=metric)
            _, w_l2, _ = wasserstein_series(sc, p, master_seed=4, norm="l2")
            np.testing.assert_array_equal(w_metric, 2.0 * w_l2)
            # by default distances are measured in the system's metric
            _, w_default, _ = wasserstein_series(sc, p, master_seed=4)
            np.testing.assert_array_equal(w_default, w_metric)

    @pytest.mark.parametrize("n, du, shift", [
        (1, [0.8], 2.0),  # 1-D gap
        (2, [0.3, -0.4], 1.5),  # 2-D gap
        (1, [0.0], 2.0),  # g = 0
        (2, [0.6, 0.0], 0.0),  # W0 = 0: the same cloud twice
    ])
    def test_constant_input_envelope_against_quadrature(self, n, du, shift):
        # W0 e^{-ct} + ell * integral_0^t e^{-c(t-tau)} g dtau at every
        # checkpoint, the integral by scipy's quad
        import scipy.integrate

        sys = affine_system(-1.3 * np.eye(n), 0.9 * np.eye(n), 0.4 * np.eye(n),
                            identity_metric(n))
        x0 = np.random.default_rng(11).standard_normal((32, n))
        sc = WassersteinScenario(
            sys_x=sys, sys_y=sys, x0_samples=x0 + shift, y0_samples=x0.copy(),
            u_x=InputSignal.constant(du), u_y=InputSignal.constant([0.0] * n),
            grid=TimeGrid(0.5, 1e-2, 300),
        )
        times, w, env = wasserstein_series(sc, 2, master_seed=6)
        c, ell = sys.certificate.c_hat, sys.certificate.ell_hat
        g, W0 = math.hypot(*du), w[0]
        assert times[0] == 0.5 and (W0 == 0.0) == (shift == 0.0)
        for t, e in zip(times - 0.5, env):
            integral, _ = scipy.integrate.quad(lambda tau: math.exp(-c * (t - tau)) * g, 0.0, t,
                                               epsabs=0.0, epsrel=1e-13)
            expect = W0 * math.exp(-c * t) + ell * integral
            assert e == pytest.approx(expect, rel=1e-12, abs=1e-300)

    def test_constant_input_run_integrates_nothing(self, tmp_path, monkeypatch):
        from contracting_sde import bounds

        calls = []

        def counted(*args):
            calls.append(1)
            return bounds.decay_convolution(*args)

        monkeypatch.setattr(wasserstein, "decay_convolution", counted)
        cfg = parse_config(json.dumps({
            "scenario_kind": "wasserstein",
            "system": {"name": "scalar_tracker", "c": 1.0, "sigma": 0.3},
            "input_x": {"kind": "constant", "value": [0.5]},
            "input_y": {"kind": "constant", "value": [0.0]},
            "cloud": {"k": 64, "mean_x": [1.0], "mean_y": [0.0]},
            "grid": {"dt": 0.01, "steps": 100},
        }))
        assert run_scenario(cfg, tmp_path / "bundle").holds
        assert calls == []
        cfg.data["input_y"] = {"kind": "sinusoid", "amplitude": [0.1]}
        assert run_scenario(parse_config(json.dumps(cfg.data)), tmp_path / "b2").holds
        assert len(calls) == 21  # a quadrature at each checkpoint

    @pytest.mark.parametrize("u_x", [InputSignal.sinusoid([0.6], omega=2.0, offset=[0.3]),
                                     InputSignal.constant([0.3])])
    def test_varying_input_envelope_keeps_its_bits(self, u_x):
        # a non-constant gap keeps the quadrature at each checkpoint, bit for
        # bit as e^{-ct} W0 + ell * decay_convolution(gap, c, t)
        from contracting_sde import decay_convolution

        sys = _scalar_ou_system()
        u_y = InputSignal.sinusoid([0.2], omega=0.5)
        x0 = np.random.default_rng(12).standard_normal((32, 1))
        sc = WassersteinScenario(sys_x=sys, sys_y=sys, x0_samples=x0 + 1.0, y0_samples=x0,
                                 u_x=u_x, u_y=u_y, grid=TimeGrid(0.0, 1e-2, 200))
        times, w, env = wasserstein_series(sc, 2, master_seed=7)
        c, ell = sys.certificate.c_hat, sys.certificate.ell_hat
        gap = lambda ts: np.abs(u_x.value(ts) - u_y.value(ts))[:, 0]
        expect = [math.exp(-c * t) * w[0] + ell * decay_convolution(gap, c, t) for t in times]
        assert env.tolist() == expect

    def test_one_sample_clouds_are_rejected(self):
        sys = _scalar_ou_system()
        with pytest.raises(InputError, match="at least 2 samples, got 1"):
            WassersteinScenario(
                sys_x=sys, sys_y=sys, x0_samples=np.zeros((1, 1)), y0_samples=np.ones((1, 1)),
                u_x=InputSignal.constant([0.0]), u_y=InputSignal.constant([0.0]),
                grid=TimeGrid(0.0, 1e-2, 10),
            )

    def test_cloud_shape_mismatch(self):
        sys = _scalar_ou_system()
        with pytest.raises(InputError):
            WassersteinScenario(
                sys_x=sys, sys_y=sys,
                x0_samples=np.zeros((8, 1)), y0_samples=np.zeros((9, 1)),
                u_x=InputSignal.constant([0.0]), u_y=InputSignal.constant([0.0]),
                grid=TimeGrid(0.0, 1e-2, 10),
            )


    def test_series_in_a_metric_of_another_dimension_names_both(self):
        sys = _scalar_ou_system()
        sc = WassersteinScenario(
            sys_x=sys, sys_y=sys, x0_samples=np.zeros((8, 1)), y0_samples=np.ones((8, 1)),
            u_x=InputSignal.constant([0.0]), u_y=InputSignal.constant([0.0]),
            grid=TimeGrid(0.0, 1e-2, 10))
        with pytest.raises(InputError, match="samples of dimension 1 measured in a metric "
                                             "of dimension 2"):
            wasserstein_series(sc, 2, master_seed=0, norm=identity_metric(2))

    def test_clouds_above_the_cap_are_rejected(self):
        sys = _scalar_ou_system()
        k = wasserstein.MAX_SAMPLES + 1
        with pytest.raises(CapacityError, match=f"{k} samples exceed the cap of "
                                                f"{wasserstein.MAX_SAMPLES}"):
            WassersteinScenario(
                sys_x=sys, sys_y=sys, x0_samples=np.zeros((k, 1)), y0_samples=np.ones((k, 1)),
                u_x=InputSignal.constant([0.0]), u_y=InputSignal.constant([0.0]),
                grid=TimeGrid(0.0, 1e-2, 10))


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

    @pytest.mark.parametrize("xs", [np.linspace(-1.0, 1.0, 2), np.zeros((3, 3))])
    def test_density_grid_of_three_points_or_more(self, xs):
        with pytest.raises(InputError, match="grid must be one-dimensional with >= 3 points"):
            gibbs_density(lambda x: 0.5 * x**2, 1.0, xs)
