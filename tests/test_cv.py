import collections
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from enetstats.cv import CvError, FoldAssignment, cross_validate, make_folds
from enetstats.enet import EnetConfig, default_lambda_grid, fit_mgaussian_path

from oracles import cv_refit_loop


def standardized(rng, n, p):
    x = rng.normal(size=(n, p))
    return (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)


class TestMakeFolds:
    def test_leave_one_out(self):
        fa = make_folds(10, 10, 3)
        sizes = collections.Counter(fa.assignment.tolist())
        assert sorted(sizes.values()) == [1] * 10

    def test_86_by_10_multiset(self):
        fa = make_folds(86, 10, 123)
        sizes = sorted(collections.Counter(fa.assignment.tolist()).values())
        assert sizes == [8, 8, 8, 8, 9, 9, 9, 9, 9, 9]

    def test_every_observation_assigned_once(self):
        fa = make_folds(37, 5, 9)
        assert fa.assignment.shape == (37,)
        assert set(fa.assignment.tolist()) == set(range(5))

    def test_same_seed_identical(self):
        a = make_folds(50, 7, 42)
        b = make_folds(50, 7, 42)
        assert np.array_equal(a.assignment, b.assignment)

    def test_different_seed_differs(self):
        a = make_folds(50, 7, 42)
        b = make_folds(50, 7, 43)
        assert not np.array_equal(a.assignment, b.assignment)

    def test_pinned_assignment(self):
        # freezes the splitmix64 + Fisher-Yates + round-robin contract;
        # the expected value was recomputed from the documented algorithm
        # by an independent implementation
        fa = make_folds(12, 3, 2024)
        assert fa.assignment.tolist() == [0, 2, 1, 0, 1, 2, 0, 2, 1, 2, 1, 0]

    def test_errors(self):
        with pytest.raises(ValueError):
            make_folds(5, 1, 0)
        with pytest.raises(ValueError):
            make_folds(5, 6, 0)


class TestCrossValidate:
    def test_noiseless_prefers_smallest_lambda(self):
        rng = np.random.default_rng(0)
        n, p = 30, 4
        x = standardized(rng, n, p)
        y = x @ np.array([1.0, -2.0, 0.5, 1.5])
        cfg = EnetConfig(alpha=0.5, nlambda=30, lambda_min_ratio=1e-8, tol=1e-14)
        res = cross_validate(x, y, cfg, make_folds(n, 5, 1))
        assert res.lambda_min == float(res.lambdas[-1])
        assert res.mean_error[-1] <= 1e-10

    def test_pure_noise_prefers_regularization(self):
        rng = np.random.default_rng(7)
        n, p = 40, 6
        x = standardized(rng, n, p)
        y = rng.normal(size=n)  # independent of x
        res = cross_validate(
            x, y, EnetConfig(alpha=0.5, nlambda=40), make_folds(n, 5, 3)
        )
        assert res.mean_error[0] <= res.mean_error[-1]

    def test_matches_refit_oracle(self):
        rng = np.random.default_rng(5)
        n, p = 12, 2
        x = standardized(rng, n, p)
        y = x @ np.array([1.0, -0.5]) + 0.4 * rng.normal(size=n)
        cfg = EnetConfig(alpha=0.5, nlambda=20)
        folds = make_folds(n, 3, 17)
        res = cross_validate(x, y, cfg, folds)

        lambdas = default_lambda_grid(x, y.reshape(-1, 1), cfg)
        mean_e, se_e, lam_min, lam_1se = cv_refit_loop(
            x,
            y,
            folds.assignment,
            3,
            lambdas,
            lambda xt, yt, lams: fit_mgaussian_path(xt, yt, cfg, lambdas=lams),
        )
        assert_allclose(res.lambdas, lambdas, rtol=1e-15)
        assert_allclose(res.mean_error, mean_e, atol=1e-10)
        assert_allclose(res.se_error, se_e, atol=1e-10)
        assert res.lambda_min == lam_min
        assert res.lambda_1se == lam_1se

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        n = 24
        x = standardized(rng, n, 3)
        y = x @ np.array([0.5, 1.0, -1.0]) + 0.3 * rng.normal(size=n)
        cfg = EnetConfig(alpha=0.5, nlambda=25)
        folds = make_folds(n, 4, 5)
        a = cross_validate(x, y, cfg, folds)
        b = cross_validate(x, y, cfg, folds)
        assert np.array_equal(a.mean_error, b.mean_error)
        assert a.lambda_min == b.lambda_min

    def test_basic_invariants(self):
        rng = np.random.default_rng(13)
        n = 30
        x = standardized(rng, n, 5)
        y = np.column_stack(
            [x @ rng.normal(size=5) + 0.5 * rng.normal(size=n) for _ in range(2)]
        )
        res = cross_validate(x, y, EnetConfig(alpha=0.5, nlambda=30), make_folds(n, 6, 2))
        assert np.all(res.mean_error >= 0)
        assert np.all(res.se_error >= 0)
        assert res.lambda_1se >= res.lambda_min
        assert res.lambda_min in res.lambdas
        assert math.isclose(
            res.mean_error[np.flatnonzero(res.lambdas == res.lambda_min)[0]],
            res.mean_error.min(),
            rel_tol=1e-15,
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(21)
        n = 20
        x = standardized(rng, n, 3)
        y = x @ np.array([1.0, -1.0, 0.5]) + 0.4 * rng.normal(size=n)
        folds = make_folds(n, 4, 9)
        base = cross_validate(x, y, EnetConfig(alpha=0.5, nlambda=15), folds)

        perm = rng.permutation(n)
        from enetstats.cv import FoldAssignment

        permuted = FoldAssignment(
            assignment=folds.assignment[perm], k=folds.k, seed=folds.seed
        )
        shuffled = cross_validate(
            x[perm], y[perm], EnetConfig(alpha=0.5, nlambda=15), permuted
        )
        assert_allclose(shuffled.mean_error, base.mean_error, rtol=1e-9, atol=1e-12)
        assert math.isclose(shuffled.lambda_min, base.lambda_min, rel_tol=1e-12)

    def test_grid_matches_path_bitwise(self):
        # the CLI addresses the path by the CV-selected index, so both must
        # build exactly the same grid from the same data
        rng = np.random.default_rng(44)
        cfg = EnetConfig(alpha=0.5, nlambda=3, lambda_min_ratio=0.5)
        for _ in range(50):
            n = int(rng.integers(8, 60))
            p = int(rng.integers(1, 12))
            k = int(rng.integers(1, 4))
            x = standardized(rng, n, p)
            y = x @ rng.normal(size=(p, k)) + rng.normal(size=(n, k))
            path = fit_mgaussian_path(x, y, cfg)
            res = cross_validate(x, y, cfg, make_folds(n, 3, seed=2))
            assert np.array_equal(path.lambdas, res.lambdas), (n, p, k)
            assert res.lambda_min == path.lambdas[res.i_min]
            assert res.lambda_1se == path.lambdas[res.i_1se]

    def test_constant_training_column_reports_fold(self):
        rng = np.random.default_rng(31)
        n = 20
        folds = make_folds(n, 4, 1)
        x = rng.normal(size=(n, 2))
        # constant everywhere except inside fold 0, so fold 0's training
        # slice is the constant one
        x[:, 1] = 5.0
        x[folds.assignment == 0, 1] = rng.normal(size=int((folds.assignment == 0).sum()))
        y = rng.normal(size=n)
        message = "^fold 0: training slice: predictor column 1 is constant$"
        with pytest.raises(CvError, match=message) as info:
            cross_validate(x, y, EnetConfig(alpha=0.5, nlambda=10), folds)
        assert (info.value.fold, info.value.column) == (0, 1)

    def test_constant_training_response_reports_fold(self):
        rng = np.random.default_rng(32)
        n = 12
        assignment = np.repeat(np.arange(3), 4)
        folds = FoldAssignment(assignment=assignment, k=3, seed=0)
        x = rng.normal(size=(n, 2))
        # only fold 0's rows vary, so fold 0 trains on a constant response
        y = np.full(n, 2.0)
        y[assignment == 0] = rng.normal(size=4)
        with pytest.raises(CvError, match="fold 0") as info:
            cross_validate(x, y, EnetConfig(alpha=0.5, nlambda=10), folds)
        assert (info.value.fold, info.value.column) == (0, None)

    def test_fold_that_does_not_converge_is_named(self):
        rng = np.random.default_rng(36)
        x = standardized(rng, 40, 4)
        y = x @ [1.0, -1.0, 0.5, 0.0] + rng.normal(size=40)
        config = EnetConfig(nlambda=10, max_iter=1, tol=1e-14)
        message = "^fold 0: the path solver did not converge within 1 passes at lambda index 1$"
        with pytest.raises(CvError, match=message) as info:
            cross_validate(x, y, config, make_folds(40, 4, 1))
        assert info.value.fold == 0

    def test_empty_fold_is_named(self):
        rng = np.random.default_rng(35)
        x = standardized(rng, 12, 2)
        y = rng.normal(size=12)
        folds = FoldAssignment(assignment=np.repeat([0, 2], 6), k=3, seed=0)
        with pytest.raises(CvError, match="^fold 1 holds no observations$") as info:
            cross_validate(x, y, EnetConfig(alpha=0.5, nlambda=10), folds)
        assert info.value.fold == 1

    def test_requires_matching_fold_length(self):
        rng = np.random.default_rng(33)
        x = standardized(rng, 10, 2)
        y = rng.normal(size=10)
        with pytest.raises(ValueError):
            cross_validate(x, y, EnetConfig(), make_folds(8, 2, 1))

    @pytest.mark.parametrize("value", [3, -1], ids=["k", "negative"])
    def test_fold_index_outside_range_names_observation(self, value):
        rng = np.random.default_rng(34)
        x = standardized(rng, 12, 2)
        y = rng.normal(size=12)
        assignment = make_folds(12, 3, 1).assignment.copy()
        assignment[5:] = value
        folds = FoldAssignment(assignment=assignment, k=3, seed=1)
        message = rf"observation 5 is assigned to fold {value}; folds run 0\.\.2"
        with pytest.raises(ValueError, match=message):
            cross_validate(x, y, EnetConfig(alpha=0.5, nlambda=10), folds)
