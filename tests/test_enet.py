import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate

from enetstats import cv, enet
from enetstats.dataprep import SubsetConfig, load_csv, standardize
from enetstats.enet import (
    KKT_TOL,
    ConvergenceError,
    EnetConfig,
    _descend,
    default_lambda_grid,
    fit_mgaussian_path,
    kkt_check,
)

from design_sweep import design, wide_design
from oracles import enet_objective_direct, group_soft_threshold, prox_grad_reference, soft_threshold


DATA = Path(__file__).resolve().parent.parent / "data"


def standardized(rng, n, p):
    x = rng.normal(size=(n, p))
    return (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)


def demo_groups():
    """The demo's standardized demographic predictors and health responses."""
    table = load_csv(DATA / "demo_lifestyle.csv")
    subsets = SubsetConfig.load(DATA / "demo_subsets.cfg")
    x = standardize(table, subsets.groups["demographic"]).matrix
    y = standardize(table, subsets.groups["health"]).matrix
    return x, y


class TestSoftThreshold:
    def test_basic(self):
        assert soft_threshold(2.0, 1.0) == 1.0

    def test_dead_zone(self):
        assert soft_threshold(-0.5, 1.0) == 0.0

    def test_zero_threshold(self):
        assert soft_threshold(3.0, 0.0) == 3.0

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)


class TestGroupSoftThreshold:
    def test_boundary_is_exact_zero(self):
        out = group_soft_threshold([3.0, 4.0], 5.0)
        assert out.tolist() == [0.0, 0.0]

    def test_identity_at_zero(self):
        assert group_soft_threshold([3.0, 4.0], 0.0).tolist() == [3.0, 4.0]

    def test_half_shrink(self):
        assert_allclose(group_soft_threshold([6.0, 8.0], 5.0), [3.0, 4.0])

    def test_scalar_case_matches_soft_threshold(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = float(rng.normal(scale=2))
            g = float(rng.uniform(0, 2))
            assert math.isclose(
                float(group_soft_threshold([z], g)[0]),
                soft_threshold(z, g),
                abs_tol=1e-15,
            )


def row_norm_max(x, y):
    """max_j ||(1/N) x_j' y||_2 over the columns of centered x and y."""
    y = y.reshape(x.shape[0], -1)
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    best = 0.0
    for j in range(x.shape[1]):
        g = xc[:, j] @ yc / x.shape[0]
        best = max(best, math.sqrt(float(g @ g)))
    return best


class TestComputeLambdaMax:
    """lambda_max, the head of the default grid and of the path."""

    def test_orthogonal_response(self):
        # x'y = 0: the all-zero solution is stationary at every lambda
        x = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        y = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        path = fit_mgaussian_path(x, y, EnetConfig(alpha=1.0), lambdas=[1.0, 1e-3])
        assert np.all(path.coefs == 0.0)
        assert np.all(path.dev_ratio == 0.0)

    def test_alpha_scaling(self):
        rng = np.random.default_rng(4)
        x = standardized(rng, 12, 4)
        y = rng.normal(size=(12, 1))
        assert math.isclose(
            float(default_lambda_grid(x, y, EnetConfig(alpha=0.5))[0]),
            2.0 * float(default_lambda_grid(x, y, EnetConfig(alpha=1.0))[0]),
            rel_tol=1e-15,
        )

    def test_matches_row_norm_maximum(self):
        rng = np.random.default_rng(5)
        x = standardized(rng, 10, 3)
        y = rng.normal(size=(10, 2))
        path = fit_mgaussian_path(x, y, EnetConfig(alpha=0.5, nlambda=5))
        assert math.isclose(float(path.lambdas[0]), row_norm_max(x, y) / 0.5, rel_tol=1e-12)

    def test_alpha_zero_rejected(self):
        rng = np.random.default_rng(6)
        x = standardized(rng, 5, 2)
        with pytest.raises(ValueError, match="explicit"):
            default_lambda_grid(x, rng.normal(size=5), EnetConfig(alpha=0.0))


class TestMakeLambdaPath:
    """Spacing of the default grid between its endpoints."""

    @staticmethod
    def grid(nlambda, ratio, scale=1.0):
        rng = np.random.default_rng(35)
        x = standardized(rng, 12, 3)
        y = x @ rng.normal(size=3) + rng.normal(size=12)
        cfg = EnetConfig(alpha=0.5, nlambda=nlambda, lambda_min_ratio=ratio)
        return default_lambda_grid(x, scale * y, cfg), row_norm_max(x, scale * y) / 0.5

    def test_endpoints(self):
        grid, lam_max = self.grid(2, 0.01)
        assert_allclose(grid, [lam_max, 0.01 * lam_max], rtol=1e-12)

    def test_geometric_midpoint(self):
        grid, lam_max = self.grid(3, 0.01)
        assert_allclose(grid, [lam_max, 0.1 * lam_max, 0.01 * lam_max], rtol=1e-12)

    def test_homogeneity(self):
        base, _ = self.grid(7, 1e-3)
        scaled, _ = self.grid(7, 1e-3, scale=4.5)
        assert_allclose(scaled, 4.5 * base, rtol=1e-12)

    def test_strictly_decreasing(self):
        grid, _ = self.grid(100, 1e-4)
        assert np.all(np.diff(grid) < 0)

    def test_nonpositive_lambda_max(self):
        x = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        with pytest.raises(ValueError, match="uncorrelated"):
            default_lambda_grid(x, y, EnetConfig(alpha=0.5))
        with pytest.raises(ValueError, match="uncorrelated"):
            fit_mgaussian_path(x, y, EnetConfig(alpha=0.5))


class TestGaussianPath:
    def test_all_zero_at_lambda_max(self):
        rng = np.random.default_rng(6)
        x = standardized(rng, 20, 5)
        y = x @ rng.normal(size=5) + rng.normal(size=20)
        lam_max = float(default_lambda_grid(x, y, EnetConfig(alpha=0.5))[0])
        path = fit_mgaussian_path(x, y, EnetConfig(alpha=0.5), lambdas=[lam_max])
        assert np.all(path.coefs[0] == 0.0)
        assert path.nonzero[0] == 0
        assert math.isclose(float(path.intercepts[0, 0]), float(y.mean()), rel_tol=1e-12)

    def test_ridge_closed_form(self):
        rng = np.random.default_rng(7)
        n, p = 25, 4
        x = standardized(rng, n, p)
        y = x @ rng.normal(size=p) + 0.5 * rng.normal(size=n)
        lam = 0.4
        xc = x - x.mean(axis=0)
        yc = y - y.mean()
        want = np.linalg.solve(xc.T @ xc / n + lam * np.eye(p), xc.T @ yc / n)
        path = fit_mgaussian_path(x, y, EnetConfig(alpha=0.0, tol=1e-13), lambdas=[lam])
        assert_allclose(path.coefs[0][:, 0], want, atol=1e-6)

    def test_orthonormal_design_soft_threshold(self):
        # the columns of x are orthogonal to the ones column, so profiling
        # out the intercept leaves x'y as it is
        rng = np.random.default_rng(8)
        n, p = 32, 5
        z = rng.normal(size=(n, p))
        q, _ = np.linalg.qr(z - z.mean(axis=0))
        x = q * math.sqrt(n)
        y = rng.normal(size=n)
        lam = 0.15
        cfg = EnetConfig(alpha=1.0, tol=1e-12)
        path = fit_mgaussian_path(x, y, cfg, lambdas=[lam])
        want = [soft_threshold(float(x[:, j] @ y) / n, lam) for j in range(p)]
        assert_allclose(path.coefs[0][:, 0], want, atol=1e-8)

    def test_smallest_real_path(self):
        # p = 1, K = 1 must run end to end
        rng = np.random.default_rng(9)
        x = standardized(rng, 10, 1)
        y = 2.0 * x[:, 0] + 0.1 * rng.normal(size=10)
        path = fit_mgaussian_path(x, y, EnetConfig(alpha=0.5, nlambda=20))
        assert path.coefs.shape == (20, 1, 1)
        assert path.dev_ratio[-1] > 0.9

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^x has 8 rows but y has 7$"):
            fit_mgaussian_path(np.arange(16.0).reshape(8, 2), np.arange(7.0))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fit_mgaussian_path(np.array([[np.inf], [1.0]]), np.array([1.0, 2.0]))

    def test_constant_column_rejected(self):
        x = np.column_stack([np.ones(8), np.arange(8.0)])
        with pytest.raises(ValueError, match="constant"):
            fit_mgaussian_path(x, np.arange(8.0), EnetConfig(alpha=0.5), lambdas=[0.1])

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300, 1e-300])
    @pytest.mark.parametrize("role", ["predictor", "response"])
    def test_column_outside_scale_window_named(self, role, scale):
        # such a column overflowed the Gram or X'Y/N; it is now named
        # before either is formed
        rng = np.random.default_rng(53)
        x = standardized(rng, 20, 3)
        y = rng.normal(size=(20, 2))
        (x if role == "predictor" else y)[:, 1] *= scale
        message = rf"^{role} column 1 has largest \|value\| .* rescale it$"
        for fit in (fit_mgaussian_path, default_lambda_grid):
            with pytest.raises(ValueError, match=message):
                fit(x, y, EnetConfig())

    def test_constant_column_with_inexact_mean_rejected(self):
        # the mean of three 0.1s is not 0.1 in floating point, so the
        # centered column is not exactly zero; its spread still is
        x = np.array([[1.0, 0.1], [2.0, 0.1], [4.0, 0.1]])
        xc = x[:, 1] - x[:, 1].mean()
        assert float(xc @ xc) != 0.0
        y = np.array([1.0, 3.0, 2.0])
        with pytest.raises(ValueError, match="column 1 is constant"):
            fit_mgaussian_path(x, y, EnetConfig(alpha=0.5), lambdas=[0.1])

    def test_max_iter_reports_lambda_index(self):
        rng = np.random.default_rng(10)
        x = standardized(rng, 30, 6)
        # strongly correlated columns make two-pass convergence impossible
        x[:, 3] = 0.99 * x[:, 0] + 0.01 * x[:, 3]
        y = x @ rng.normal(size=6) + rng.normal(size=30)
        cfg = EnetConfig(alpha=0.5, tol=1e-14, max_iter=2)
        with pytest.raises(ConvergenceError) as info:
            fit_mgaussian_path(x, y, cfg, lambdas=[0.001])
        assert info.value.lambda_index == 0

    def test_tol_looser_than_certificate_rejected(self):
        # tol is the certificate the solver stops on, so it may not be
        # looser than the level every solution must pass, 1e-6
        EnetConfig(tol=1e-6)
        for tol in (np.nextafter(1e-6, 1.0), 1e-5):
            with pytest.raises(ValueError, match="^tol must lie in"):
                EnetConfig(tol=tol)

    def test_lambda_min_ratio_below_one(self):
        EnetConfig(lambda_min_ratio=np.nextafter(1.0, 0.0))
        with pytest.raises(ValueError, match=r"^lambda_min_ratio must lie in \(0, 1\), got 1.0$"):
            EnetConfig(lambda_min_ratio=1.0)

    def test_alpha_is_zero_or_inside_the_scale_window(self):
        # below 2^-200, lambda_max = max ||C_j|| / alpha leaves the window
        # check_scale keeps every column in, and once overflowed to inf
        # the grid went on in NaN lambdas that no pass could certify
        EnetConfig(alpha=0.0)
        EnetConfig(alpha=2.0**-200)
        for alpha in (2.0**-201, 5e-324, -1e-300, np.nextafter(1.0, 2.0), math.nan):
            with pytest.raises(ValueError, match=r"^alpha must be 0 or lie in \[2\^-200, 1\]"):
                EnetConfig(alpha=alpha)

    def test_max_iter_below_one_rejected(self):
        EnetConfig(max_iter=1)
        with pytest.raises(ValueError, match="^max_iter must be >= 1, got 0$"):
            EnetConfig(max_iter=0)

    @pytest.mark.parametrize(
        "lambdas, message",
        [
            ([], "a nonempty 1-D sequence"),
            ([0.5, -0.1], "finite and nonnegative"),
            ([0.5, 0.5], "strictly decreasing"),
            ([0.1, 0.5], "strictly decreasing"),
        ],
        ids=["empty", "negative", "repeated", "increasing"],
    )
    def test_explicit_grid_checked(self, lambdas, message):
        rng = np.random.default_rng(13)
        x = standardized(rng, 10, 2)
        with pytest.raises(ValueError, match=f"^lambdas must be {message}$"):
            fit_mgaussian_path(x, rng.normal(size=10), EnetConfig(alpha=0.5), lambdas=lambdas)

    def test_alpha_zero_needs_explicit_grid(self):
        rng = np.random.default_rng(11)
        x = standardized(rng, 10, 2)
        with pytest.raises(ValueError, match="explicit"):
            fit_mgaussian_path(x, x[:, 0], EnetConfig(alpha=0.0))


class TestMgaussianPath:
    def test_duplicated_response_reduction_lasso(self):
        # identical response columns: grouped lasso at lambda equals the
        # single-response lasso at lambda / sqrt(2)
        rng = np.random.default_rng(13)
        x = standardized(rng, 22, 5)
        y = x @ rng.normal(size=5) + 0.3 * rng.normal(size=22)
        lam = 0.25
        pm = fit_mgaussian_path(
            x, np.column_stack([y, y]), EnetConfig(alpha=1.0, tol=1e-12), lambdas=[lam]
        )
        pg = fit_mgaussian_path(
            x, y, EnetConfig(alpha=1.0, tol=1e-12), lambdas=[lam / math.sqrt(2.0)]
        )
        assert_allclose(pm.coefs[0][:, 0], pg.coefs[0][:, 0], atol=1e-6)
        assert_allclose(pm.coefs[0][:, 1], pg.coefs[0][:, 0], atol=1e-6)

    def test_duplicated_response_reduction_general_alpha(self):
        # for alpha < 1 the symmetry reduction rescales both penalty parts:
        # l1 -> lambda*alpha/sqrt(2), l2 -> lambda*(1-alpha), refolded below
        rng = np.random.default_rng(14)
        x = standardized(rng, 20, 4)
        y = x @ rng.normal(size=4) + 0.3 * rng.normal(size=20)
        lam, alpha = 0.3, 0.5
        l1 = lam * alpha / math.sqrt(2.0)
        l2 = lam * (1.0 - alpha)
        lam_eq, alpha_eq = l1 + l2, l1 / (l1 + l2)
        pm = fit_mgaussian_path(
            x, np.column_stack([y, y]), EnetConfig(alpha=alpha, tol=1e-12), lambdas=[lam]
        )
        pg = fit_mgaussian_path(
            x, y, EnetConfig(alpha=alpha_eq, tol=1e-12), lambdas=[lam_eq]
        )
        assert_allclose(pm.coefs[0][:, 0], pg.coefs[0][:, 0], atol=1e-6)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(15)
        n, p = 26, 5
        x = standardized(rng, n, p)
        y = np.column_stack(
            [
                x @ rng.normal(size=p) + 0.3 * rng.normal(size=n),
                x @ rng.normal(size=p) + 0.3 * rng.normal(size=n),
            ]
        )
        theta = 1.1
        q = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        cfg = EnetConfig(alpha=0.5, nlambda=15, tol=1e-11)
        p1 = fit_mgaussian_path(x, y, cfg)
        p2 = fit_mgaussian_path(x, y @ q, cfg)
        assert np.max(np.abs(p1.coefs @ q - p2.coefs)) <= 1e-6
        assert np.max(np.abs(p1.intercepts @ q - p2.intercepts)) <= 1e-6

    def test_drop_is_whole_row(self):
        rng = np.random.default_rng(16)
        n, p = 40, 5
        x = standardized(rng, n, p)
        b = np.zeros((p, 2))
        b[[0, 2]] = rng.normal(size=(2, 2)) * 2.0
        y = x @ b + 0.2 * rng.normal(size=(n, 2))
        path = fit_mgaussian_path(x, y, EnetConfig(alpha=0.5, nlambda=30))
        mid = path.coefs[12]
        for j in range(p):
            row = mid[j]
            assert row.all() or not row.any()  # never a half-zero row


class TestKktCheck:
    def test_all_zero_at_lambda_max(self):
        rng = np.random.default_rng(17)
        x = standardized(rng, 15, 4)
        y = rng.normal(size=(15, 2))
        lam_max = float(default_lambda_grid(x, y, EnetConfig(alpha=0.5))[0])
        residuals = kkt_check(x, y, np.zeros((4, 2)), y.mean(axis=0), lam_max, 0.5)
        assert residuals.max() <= 1e-6
        assert np.flatnonzero(residuals > KKT_TOL).tolist() == []

    def test_ols_at_lambda_zero(self):
        rng = np.random.default_rng(18)
        x = standardized(rng, 15, 3)
        y = rng.normal(size=15)
        design = np.column_stack([np.ones(15), x])
        coef, *_ = np.linalg.lstsq(design, y.reshape(-1, 1), rcond=None)
        residuals = kkt_check(x, y, coef[1:], coef[0], 0.0, 0.5)
        assert residuals.max() <= 1e-6

    def test_perturbation_is_flagged(self):
        rng = np.random.default_rng(19)
        x = standardized(rng, 20, 4)
        y = x @ np.array([1.5, -1.0, 0.8, 0.0]) + 0.2 * rng.normal(size=20)
        cfg = EnetConfig(alpha=0.5, tol=1e-11)
        path = fit_mgaussian_path(x, y, cfg, lambdas=[0.05])
        b = path.coefs[0].copy()
        j = int(np.argmax(np.abs(b[:, 0])))
        b[j, 0] += 0.1
        residuals = kkt_check(x, y, b, path.intercepts[0], 0.05, 0.5)
        assert j in np.flatnonzero(residuals > KKT_TOL)
        assert residuals.max() > 1e-3


class TestDevianceExplained:
    def test_zero_at_lambda_max(self):
        rng = np.random.default_rng(20)
        x = standardized(rng, 20, 3)
        y = x @ rng.normal(size=3) + rng.normal(size=20)
        path = fit_mgaussian_path(x, y, EnetConfig(alpha=0.5, nlambda=10))
        assert path.dev_ratio[0] == 0.0

    def test_perfect_fit_reaches_one(self):
        rng = np.random.default_rng(21)
        x = standardized(rng, 20, 3)
        y = x @ np.array([1.0, -2.0, 0.5])
        path = fit_mgaussian_path(
            x, y, EnetConfig(alpha=0.5, nlambda=30, lambda_min_ratio=1e-9, tol=1e-14)
        )
        assert path.dev_ratio[-1] >= 1.0 - 1e-8

    def test_matches_direct_ratio(self):
        rng = np.random.default_rng(22)
        x = standardized(rng, 15, 4)
        y = np.column_stack(
            [x @ rng.normal(size=4) + rng.normal(size=15) for _ in range(2)]
        )
        yc = y - y.mean(axis=0)
        tss = float((yc * yc).sum())
        path = fit_mgaussian_path(x, y, EnetConfig(alpha=0.5, nlambda=12))
        for i in range(path.n_lambdas):
            resid = y - (x @ path.coefs[i] + path.intercepts[i])
            want = 1.0 - float((resid * resid).sum()) / tss
            assert math.isclose(float(path.dev_ratio[i]), want, abs_tol=1e-12)

    def test_constant_response_rejected(self):
        x = standardized(np.random.default_rng(23), 10, 2)
        with pytest.raises(ValueError, match="constant"):
            fit_mgaussian_path(x, np.full(10, 0.1), EnetConfig(alpha=0.5), lambdas=[0.1])


class TestPathInvariants:
    @staticmethod
    def _objective_monotone(most):
        # the kernel updates b in place, so a cold start cut after s passes
        # leaves the iterate of pass s behind; returns the certificate after
        # ``most`` passes at each lambda
        rng = np.random.default_rng(24)
        x = standardized(rng, 25, 6)
        y = np.column_stack(
            [x @ rng.normal(size=6) + 0.4 * rng.normal(size=25) for _ in range(2)]
        )
        xc = x - x.mean(axis=0)
        yc = y - y.mean(axis=0)
        gram = xc.T @ xc / 25
        cov = xc.T @ yc / 25
        grid = default_lambda_grid(x, y, EnetConfig(alpha=0.5, nlambda=15))
        final = []
        for lam in grid[[3, 8, 14]]:
            lam = float(lam)
            values = [enet_objective_direct(x, y, np.zeros((6, 2)), y.mean(axis=0), lam, 0.5)]
            for passes in range(1, most + 1):
                b = np.zeros((6, 2))
                _, kkt, _ = _descend(gram, cov, b, lam, EnetConfig(alpha=0.5, max_iter=passes))
                b0 = y.mean(axis=0) - x.mean(axis=0) @ b
                values.append(enet_objective_direct(x, y, b, b0, lam, 0.5))
            assert values[-1] < values[0]
            for before, after in zip(values, values[1:]):
                assert after <= before + 1e-12 * max(1.0, abs(before))
            final.append(kkt)
        return final

    def test_objective_monotone_per_pass(self):
        self._objective_monotone(12)

    def test_objective_monotone_per_row_update(self, monkeypatch):
        # with every Newton step rejected each pass is one exact update of
        # the row with the largest stationarity residual, so the objective
        # never rises and the certificate still falls to the tolerance
        monkeypatch.setattr(enet, "_newton_step", lambda *args: None)
        assert max(self._objective_monotone(60)) <= KKT_TOL

    def test_kkt_along_path(self):
        rng = np.random.default_rng(25)
        for k in (1, 2):
            x = standardized(rng, 20, 5)
            y = x @ rng.normal(size=(5, k)) + 0.3 * rng.normal(size=(20, k))
            path = fit_mgaussian_path(x, y, EnetConfig(alpha=0.7, nlambda=20))
            for i, lam in enumerate(path.lambdas):
                residuals = kkt_check(
                    x, y, path.coefs[i], path.intercepts[i], float(lam), 0.7
                )
                assert residuals.max() <= 1e-6, (k, i)

    def test_cold_start_matches_warm_path(self):
        rng = np.random.default_rng(26)
        x = standardized(rng, 24, 5)
        y = x @ rng.normal(size=(5, 2)) + 0.3 * rng.normal(size=(24, 2))
        cfg = EnetConfig(alpha=0.5, nlambda=30)
        path = fit_mgaussian_path(x, y, cfg)
        for i in (7, 15, 29):
            cold = fit_mgaussian_path(x, y, cfg, lambdas=[float(path.lambdas[i])])
            assert np.max(np.abs(cold.coefs[0] - path.coefs[i])) <= 1e-6

    def test_dev_ratio_nondecreasing(self):
        rng = np.random.default_rng(27)
        x = standardized(rng, 30, 6)
        y = x @ rng.normal(size=(6, 2)) + rng.normal(size=(30, 2))
        path = fit_mgaussian_path(x, y, EnetConfig(alpha=0.5))
        assert np.all(np.diff(path.dev_ratio) >= -1e-8)

    def test_zero_row_skipping_matches_prox_grad(self):
        # passes skip zero rows that satisfy their condition; converged far
        # past the 1e-8 comparison level, the path must still land on the
        # minimizer a method that always moves every row finds
        rng = np.random.default_rng(28)
        for k in (1, 2):
            x = standardized(rng, 25, 6)
            y = x @ rng.normal(size=(6, k)) + 0.4 * rng.normal(size=(25, k))
            path = fit_mgaussian_path(x, y, EnetConfig(alpha=0.5, nlambda=20, tol=1e-10))
            b_ref = None
            for i, lam in enumerate(path.lambdas):
                b_ref, _ = prox_grad_reference(
                    x, y, float(lam), 0.5, tol=1e-13, b_init=b_ref
                )
                assert np.max(np.abs(path.coefs[i] - b_ref)) <= 1e-8, (k, i)

    def test_matches_proximal_gradient(self):
        rng = np.random.default_rng(29)
        x = standardized(rng, 6, 3)
        y = rng.normal(size=(6, 2))
        cfg = EnetConfig(alpha=0.5, nlambda=8, lambda_min_ratio=1e-2)
        path = fit_mgaussian_path(x, y, cfg)
        b_ref = None
        for i, lam in enumerate(path.lambdas):
            b_ref, b0_ref = prox_grad_reference(
                x, y, float(lam), 0.5, b_init=b_ref
            )
            lam = float(lam)
            ours = enet_objective_direct(x, y, path.coefs[i], path.intercepts[i], lam, 0.5)
            ref = enet_objective_direct(x, y, b_ref, b0_ref, lam, 0.5)
            assert abs(ours - ref) <= 1e-4

    def test_deterministic_refit(self):
        rng = np.random.default_rng(30)
        x = standardized(rng, 20, 4)
        y = x @ rng.normal(size=(4, 2)) + rng.normal(size=(20, 2))
        cfg = EnetConfig(alpha=0.5, nlambda=25)
        p1 = fit_mgaussian_path(x, y, cfg)
        p2 = fit_mgaussian_path(x, y, cfg)
        assert np.array_equal(p1.coefs, p2.coefs)
        assert np.array_equal(p1.dev_ratio, p2.dev_ratio)


class TestPathTelemetry:
    def test_kkt_max_meets_tol_on_every_lambda(self):
        rng = np.random.default_rng(33)
        for k in (1, 3):
            x = standardized(rng, 30, 7)
            y = x @ rng.normal(size=(7, k)) + 0.5 * rng.normal(size=(30, k))
            cfg = EnetConfig(alpha=0.6, nlambda=30)
            path = fit_mgaussian_path(x, y, cfg)
            assert path.n_passes.shape == path.kkt_max.shape == (30,)
            assert np.all(path.kkt_max <= cfg.tol)
            assert path.n_passes[0] == 0  # b = 0 is the solution at lambda_max
            for i, lam in enumerate(path.lambdas):
                residuals = kkt_check(x, y, path.coefs[i], path.intercepts[i], float(lam), 0.6)
                assert residuals.max() <= path.kkt_max[i] + 1e-12, (k, i)

    def test_predictor_median_one_pass(self):
        # the tangent of each lambda's last Newton step predicts the next
        # solution, so the typical lambda needs one corrector pass or none
        # (plain warm starts need two)
        x, y = demo_groups()
        rng = np.random.default_rng(35)
        x_tall = standardized(rng, 400, 40)
        y_tall = x_tall[:, :6] @ rng.normal(scale=0.3, size=(6, 3)) + rng.normal(size=(400, 3))
        for xs, ys in ((x, y), (x_tall, y_tall)):
            path = fit_mgaussian_path(xs, ys, EnetConfig())
            assert np.all(path.kkt_max <= EnetConfig().tol)
            assert np.median(path.n_passes) <= 1, np.bincount(path.n_passes)

    def test_entering_rows_take_two_passes(self):
        # where the support grows, one pass admits the entering rows at
        # their row updates inside a Newton step and one more finishes; a
        # cyclic sweep to admit them, then two Newton steps, made it three
        rng = np.random.default_rng([13, 1])
        x_tall = standardized(rng, 400, 40)
        y_tall = x_tall[:, :8] @ rng.normal(scale=0.3, size=(8, 3)) + rng.normal(size=(400, 3))
        for xs, ys in (demo_groups(), (x_tall, y_tall)):
            path = fit_mgaussian_path(xs, ys, EnetConfig())
            grows = np.flatnonzero(np.diff(path.nonzero) > 0) + 1
            assert grows.size >= 5
            assert np.median(path.n_passes[grows]) <= 2, path.n_passes[grows]

    def test_demo_path_and_folds_take_few_passes(self, monkeypatch):
        # the predictor extrapolates the last tangents, each scaled by its
        # lambda, so most demo lambdas certify at their predicted start: the
        # path and 10 folds (fold seed 1) took 1,285 passes for 1,100
        # lambdas with the last tangent alone, and take 748
        paths = []

        def recording(*args, **kwargs):
            paths.append(fit_mgaussian_path(*args, **kwargs))
            return paths[-1]

        monkeypatch.setattr(cv, "fit_mgaussian_path", recording)
        x, y = demo_groups()
        recording(x, y, EnetConfig())
        cv.cross_validate(x, y, EnetConfig(), cv.make_folds(x.shape[0], 10, 1))
        assert len(paths) == 11
        assert sum(int(path.n_passes.sum()) for path in paths) <= 900

    def test_node_weights_integrate_the_interpolant(self):
        # a cubic in log lambda is its own interpolant through 4 nodes, so
        # the weighted tangents must give its integral over lambda, up to
        # the Gauss-Legendre rule's error (2e-10 relative here)
        def cubic(t):
            return 0.3 - 1.2 * t + 0.5 * t**2 + 0.1 * t**3

        nodes = [(math.log(lam), cubic(math.log(lam))) for lam in (1.0, 0.9, 0.8, 0.7)]
        weights = enet._node_weights(nodes, 0.7, 0.63)
        want = integrate.quad(lambda lam: cubic(math.log(lam)), 0.63, 0.7, epsabs=0.0)[0]
        got = sum(w * d for w, (_, d) in zip(weights, nodes))
        assert math.isclose(got, want, rel_tol=1e-9)
        # one node: the step along the tangent, (1 - lambda / lambda_prev) d
        assert math.isclose(enet._node_weights(nodes[-1:], 0.7, 0.63)[0], 0.07, rel_tol=1e-15)

    def test_irregular_grid_certifies_every_lambda(self):
        # an explicit grid with uneven steps, down to lambda = 0 (least
        # squares), where a tangent is never taken
        x, y = demo_groups()
        top = float(default_lambda_grid(x, y, EnetConfig())[0])
        grid = top * np.array([1.0, 0.7, 0.65, 0.3, 0.1, 0.09, 0.02, 0.019, 3e-3, 1e-4, 0.0])
        path = fit_mgaussian_path(x, y, EnetConfig(), lambdas=grid)
        assert np.all(path.kkt_max <= EnetConfig().tol)
        for i, lam in enumerate(path.lambdas):
            residuals = kkt_check(x, y, path.coefs[i], path.intercepts[i], float(lam), 0.5)
            assert residuals.max() <= 1e-6, i
        assert path.nonzero[-1] == x.shape[1]

    def test_cold_start_passes_within_max_iter(self):
        rng = np.random.default_rng(34)
        x = standardized(rng, 25, 6)
        y = x @ rng.normal(size=(6, 2)) + 0.4 * rng.normal(size=(25, 2))
        lam = float(default_lambda_grid(x, y, EnetConfig(alpha=0.5))[40])
        used = int(fit_mgaussian_path(x, y, EnetConfig(alpha=0.5), lambdas=[lam]).n_passes[0])
        assert used >= 2
        for s in (used, used + 3):
            path = fit_mgaussian_path(x, y, EnetConfig(alpha=0.5, max_iter=s), lambdas=[lam])
            assert 1 <= path.n_passes[0] <= s
            assert path.kkt_max[0] <= EnetConfig().tol
        with pytest.raises(ConvergenceError):
            fit_mgaussian_path(x, y, EnetConfig(alpha=0.5, max_iter=used - 1), lambdas=[lam])


class TestNewtonStep:
    """The safeguarded Newton step on the nonzero rows: it must make
    ill-conditioned problems cheap and leave degenerate ones correct."""

    def test_ill_conditioned_design_takes_few_passes(self):
        # one shared factor: the smallest Gram eigenvalue is 0.022, where
        # cyclic passes alone need ~76 per lambda on average and 115 at most
        rng = np.random.default_rng(7)
        n, p = 11, 8
        z = rng.normal(size=(n, 1))
        x = 0.9 * z + 0.45 * rng.normal(size=(n, p))
        x = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
        y = x @ rng.normal(size=(p, 2)) + 0.5 * rng.normal(size=(n, 2))
        xc = x - x.mean(axis=0)
        assert 0.02 < np.linalg.eigvalsh(xc.T @ xc / n).min() < 0.025
        path = fit_mgaussian_path(x, y, EnetConfig(alpha=0.5))
        assert int(path.n_passes.max()) <= 15
        for i, lam in enumerate(path.lambdas):
            residuals = kkt_check(x, y, path.coefs[i], path.intercepts[i], float(lam), 0.5)
            assert residuals.max() <= 1e-6, i

    def test_damping_escalation_alone_certifies(self, monkeypatch):
        # a rejected step is retried with the damping raised tenfold at a
        # time; with every step below 1000 x mu rejected, the escalated
        # steps must certify the demo path on their own
        newton_step = enet._newton_step

        def escalated_only(*args):
            *_, mu, damping = args
            return newton_step(*args) if damping >= 1e3 * mu else None

        monkeypatch.setattr(enet, "_newton_step", escalated_only)
        x, y = demo_groups()
        path = self._certified(x, y, EnetConfig())
        assert path.n_passes.sum() > path.n_lambdas

    def test_row_updates_alone_certify(self, monkeypatch):
        # with every Newton step rejected each pass falls back to one exact
        # update of the worst row; that alone must certify the demo path
        monkeypatch.setattr(enet, "_newton_step", lambda *args: None)
        x, y = demo_groups()
        self._certified(x, y, EnetConfig())

    def test_smallest_alpha_certifies_the_demo_path(self):
        # at alpha = 2^-200 lambda_max is 2^200 times max ||C_j||, so the
        # ridge term dwarfs every other and each lambda must still certify
        x, y = demo_groups()
        path = self._certified(x, y, EnetConfig(alpha=2.0**-200))
        assert np.all(np.isfinite(path.lambdas)) and path.n_lambdas == 100

    @pytest.mark.parametrize("s", [251, 1007, 1203, 1587])
    def test_near_copy_lasso_designs_certify(self, s):
        # near copies at alpha = 1 from tools/design_sweep.py that spent
        # 3000 passes at one lambda when a rejected step fell back to a
        # cyclic sweep; raising the damping takes them in a few
        x, y = design(s)
        path = self._certified(x, y, EnetConfig(alpha=1.0, nlambda=20, max_iter=3000))
        assert int(path.n_passes.max()) <= 20

    @pytest.mark.parametrize(
        "s, alpha, most",
        [(390, 0.5, 10), (313, 1.0, 10), (1115, 1e-3, 10), (1251, 1.0, 60)],
        ids=["factor", "copy-lasso", "near-copy-near-ridge", "near-copy-lasso"],
    )
    def test_design_sweep_fallbacks(self, s, alpha, most):
        # designs from tools/design_sweep.py with a pass whose Newton step is
        # rejected at every damping, so the pass updates the row with the
        # largest stationarity residual exactly instead. 1251 (near copy,
        # K = 3) took 149 passes at one lambda when such passes zeroed the
        # smallest nonzero row, and 41 with the row update.
        x, y = design(s)
        path = self._certified(x, y, EnetConfig(alpha=alpha, nlambda=20, max_iter=3000))
        assert int(path.n_passes.max()) <= most

    def test_wide_near_copy_lasso_does_not_crawl(self):
        # N = 3, p = 11 plus a 1e-6 near copy of column 0, K = 3, alpha = 1:
        # at lambda index 2 five rows are active on rank-2 data and every
        # damped step is rejected. Zeroing the smallest nonzero row and
        # re-admitting a violator undid each other there for 748 passes
        x, y, cfg = wide_design(1115)
        assert (*x.shape, y.shape[1], cfg.alpha, cfg.nlambda) == (3, 12, 3, 1.0, 8)
        path = self._certified(x, y, cfg)
        assert int(path.n_passes.max()) <= 50

    @staticmethod
    def _certified(x, y, cfg, lambdas=None):
        path = fit_mgaussian_path(x, y, cfg, lambdas=lambdas)
        assert np.all(path.kkt_max <= cfg.tol)
        for i, lam in enumerate(path.lambdas):
            residuals = kkt_check(x, y, path.coefs[i], path.intercepts[i], float(lam), cfg.alpha)
            assert residuals.max() <= 1e-6, i
        return path

    @pytest.mark.parametrize(
        "alpha, lambdas",
        [(0.5, None), (0.0, np.geomspace(2.0, 2e-3, 12))],
        ids=["alpha=0.5", "alpha=0"],
    )
    def test_duplicated_columns(self, alpha, lambdas):
        # the ridge term keeps the minimizer unique although G_AA is
        # singular; with the certificate at 1e-12 the coefficients must
        # match the reference to 1e-8
        rng = np.random.default_rng(42)
        x = standardized(rng, 20, 5)
        x = np.column_stack([x, x[:, 1]])
        y = x @ rng.normal(size=(6, 2)) + 0.4 * rng.normal(size=(20, 2))
        self._certified(x, y, EnetConfig(alpha=alpha, nlambda=20), lambdas)
        path = self._certified(x, y, EnetConfig(alpha=alpha, nlambda=20, tol=1e-12), lambdas)
        b_ref = None
        for i, lam in enumerate(path.lambdas):
            b_ref, _ = prox_grad_reference(x, y, float(lam), alpha, tol=1e-10, b_init=b_ref)
            assert np.max(np.abs(path.coefs[i] - b_ref)) <= 1e-8, i

    def test_more_predictors_than_observations_lasso(self):
        # alpha = 1 with p > N: the Newton system is singular once more
        # than N - 1 rows are active and the minimizer need not be unique,
        # so compare objective values and fitted values
        rng = np.random.default_rng(43)
        x = standardized(rng, 10, 16)
        y = x[:, :3] @ rng.normal(size=(3, 2)) + 0.3 * rng.normal(size=(10, 2))
        self._certified(x, y, EnetConfig(alpha=1.0, nlambda=20))
        path = self._certified(x, y, EnetConfig(alpha=1.0, nlambda=20, tol=1e-10))
        assert path.nonzero.max() >= 10
        b_ref = None
        for i, lam in enumerate(path.lambdas):
            b_ref, b0_ref = prox_grad_reference(x, y, float(lam), 1.0, tol=1e-10, b_init=b_ref)
            lam = float(lam)
            ours = enet_objective_direct(x, y, path.coefs[i], path.intercepts[i], lam, 1.0)
            ref = enet_objective_direct(x, y, b_ref, b0_ref, lam, 1.0)
            assert abs(ours - ref) <= 1e-10, i
            fitted = x @ path.coefs[i] + path.intercepts[i]
            assert np.max(np.abs(fitted - (x @ b_ref + b0_ref))) <= 1e-6, i

    @pytest.mark.parametrize("seed", [4, 6])
    def test_copied_column_lasso_does_not_diverge(self, seed):
        # a copy of column 0 makes G_AA singular at alpha = 1; an undamped
        # step there was ~1e15 and drove b to overflow
        rng = np.random.default_rng(seed)
        x = standardized(rng, 9, 13)
        x = np.column_stack([x, x[:, 0]])
        y = x[:, :2] @ rng.normal(size=(2, 1)) + 0.5 * rng.normal(size=(9, 1))
        path = self._certified(x, y, EnetConfig(alpha=1.0, nlambda=8))
        assert int(path.n_passes.max()) <= 200

    def test_copied_column_pairs_lasso_takes_few_passes(self):
        # two copied pairs at alpha = 1: the undamped step was rejected on
        # nearly every pass, ~480 passes at the worst lambda
        rng = np.random.default_rng(2)
        x = standardized(rng, 29, 27)
        x[:, 1] = x[:, 0]
        x[:, 3] = x[:, 2]
        y = x[:, :2] @ rng.normal(size=(2, 2)) + 0.5 * rng.normal(size=(29, 2))
        path = self._certified(x, y, EnetConfig(alpha=1.0))
        assert int(path.n_passes.max()) <= 50

    @pytest.mark.parametrize("seed", [3, 8, 30])
    def test_near_copy_lasso_converges(self, seed):
        # column 0 plus 1e-6 noise at alpha = 1 (K = 3, 1, 2): G_AA has an
        # eigenvalue ~1e-13, so near the solution the damped step carries
        # one row of the pair past zero and the certificate rejects it with
        # that row zeroed; only the step cut at the first zero crossing,
        # which puts the pair's weight on one column, gets through
        rng = np.random.default_rng([99, seed])
        n, p, k = int(rng.integers(6, 30)), int(rng.integers(4, 20)), int(rng.integers(1, 4))
        x = standardized(rng, n, p)
        x = np.column_stack([x, x[:, 0] + 1e-6 * rng.normal(size=n)])
        y = x[:, :2] @ rng.normal(size=(2, k)) + 0.5 * rng.normal(size=(n, k))
        self._certified(x, y, EnetConfig(alpha=1.0, nlambda=8, max_iter=3000))


class TestDefaultLambdaGrid:
    def test_head_is_lambda_max(self):
        rng = np.random.default_rng(31)
        x = standardized(rng, 20, 4)
        y = x @ rng.normal(size=4) + rng.normal(size=20)
        cfg = EnetConfig(alpha=0.5, nlambda=10)
        grid = default_lambda_grid(x, y, cfg)
        # the fitter builds this very grid, bit for bit
        assert np.array_equal(fit_mgaussian_path(x, y, cfg).lambdas, grid)
        assert math.isclose(float(grid[0]), row_norm_max(x, y) / 0.5, rel_tol=1e-12)

    def test_ratio_default_depends_on_shape(self):
        rng = np.random.default_rng(32)
        x_tall = standardized(rng, 30, 4)
        y = x_tall @ rng.normal(size=4) + rng.normal(size=30)
        grid = default_lambda_grid(x_tall, y.reshape(-1, 1), EnetConfig(alpha=0.5))
        assert math.isclose(float(grid[-1] / grid[0]), 1e-4, rel_tol=1e-9)
        x_wide = standardized(rng, 6, 8)
        yw = rng.normal(size=6).reshape(-1, 1)
        grid_w = default_lambda_grid(x_wide, yw, EnetConfig(alpha=0.5))
        assert math.isclose(float(grid_w[-1] / grid_w[0]), 1e-2, rel_tol=1e-9)
        # N == p is not tall
        x_square = standardized(rng, 6, 6)
        grid_s = default_lambda_grid(x_square, yw, EnetConfig(alpha=0.5))
        assert math.isclose(float(grid_s[-1] / grid_s[0]), 1e-2, rel_tol=1e-9)


@st.composite
def path_problems(draw):
    """Small standardized designs, p > N, one-factor (ill-conditioned) and
    exact or near (1e-6 noise) copies of a column included, with K
    responses and an alpha from near-ridge to lasso."""
    n = draw(st.integers(3, 12))
    p = draw(st.integers(1, 14))
    k = draw(st.integers(1, 3))
    factor = draw(st.booleans())
    copy_noise = draw(st.sampled_from([None, 0.0, 1e-6]))
    alpha = draw(st.sampled_from([1e-3, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = standardized(rng, n, p)
    if factor:
        x = 0.9 * rng.normal(size=(n, 1)) + 0.45 * x
        x = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
    if copy_noise is not None:
        x = np.column_stack([x, x[:, 0] + copy_noise * rng.normal(size=n)])
    y = x[:, :2] @ rng.normal(size=(min(2, x.shape[1]), k)) + 0.5 * rng.normal(size=(n, k))
    return x, y, EnetConfig(alpha=alpha, nlambda=8)


class TestPathProperties:
    @settings(max_examples=60)
    @given(path_problems())
    def test_path_contract(self, problem):
        x, y, cfg = problem
        path = fit_mgaussian_path(x, y, cfg)
        assert np.array_equal(path.lambdas, default_lambda_grid(x, y, cfg))
        yc = y - y.mean(axis=0)
        tss = float((yc * yc).sum())
        for i, lam in enumerate(path.lambdas):
            b, b0 = path.coefs[i], path.intercepts[i]
            assert kkt_check(x, y, b, b0, float(lam), cfg.alpha).max() <= 1e-6, i
            resid = y - (x @ b + b0)
            want = 1.0 - float((resid * resid).sum()) / tss
            assert math.isclose(float(path.dev_ratio[i]), want, abs_tol=1e-9), i
        if y.shape[1] == 1:
            # a 1-D y is the same one-column fit, bit for bit
            single = fit_mgaussian_path(x, y[:, 0], cfg)
            for name in ("lambdas", "coefs", "intercepts", "dev_ratio", "nonzero"):
                assert np.array_equal(getattr(single, name), getattr(path, name)), name

    @settings(max_examples=25)
    @given(path_problems())
    def test_matches_proximal_gradient(self, problem):
        # wherever the independent proximal-gradient reference converges,
        # the path, each lambda started from its prediction, reaches the
        # same objective and the same fitted values
        x, y, cfg = problem
        path = fit_mgaussian_path(x, y, replace(cfg, tol=1e-10))
        b_ref = None
        for i, lam in enumerate(path.lambdas.tolist()):
            b_ref, b0_ref = prox_grad_reference(
                x, y, lam, cfg.alpha, tol=1e-12, max_iter=500, b_init=b_ref
            )
            if kkt_check(x, y, b_ref, b0_ref, lam, cfg.alpha).max() > 1e-9:
                continue  # the reference has not converged at this lambda
            b, b0 = path.coefs[i], path.intercepts[i]
            ours = enet_objective_direct(x, y, b, b0, lam, cfg.alpha)
            ref = enet_objective_direct(x, y, b_ref, b0_ref, lam, cfg.alpha)
            assert abs(ours - ref) <= 1e-10, i
            assert np.max(np.abs(x @ (b - b_ref) + (b0 - b0_ref))) <= 1e-6, i
