import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from enetstats import inference
from enetstats.inference import (
    CollinearityError,
    PerfectFitError,
    adjusted_r2,
    f_from_r2,
    fit_mlm,
    manova_table,
    pearson,
    univariate_summary,
    vif,
)
from enetstats.linalg import RankDeficiencyError, thin_qr

from oracles import pillai_explicit, r2_from_f, vif_auxiliary, wilks_f_single_df


@st.composite
def regressions(draw):
    """(x, y) with N > p + K, p <= 8 and K <= 4, from a drawn numpy seed."""
    p = draw(st.integers(1, 8))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(p + k + 2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
    y = x @ rng.normal(size=(p, k)) + rng.normal(size=(n, k))
    return x, y


# the suite's profile (tests/conftest.py) makes the examples the same on
# every run
one_qr = settings(max_examples=100)


def vif_of(x, names=None):
    """VIFs of the predictors ``x`` read from their fit; VIF depends on the
    predictors alone, so any response will do."""
    x = np.asarray(x, dtype=float)
    return vif(fit_mlm(x, np.arange(len(x), dtype=float), predictor_names=names))


class TestFitMlm:
    def test_intercept_only(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=(8, 2))
        fit = fit_mlm(np.empty((8, 0)), y)
        assert_allclose(fit.coef[0], y.mean(axis=0), atol=1e-12)

    def test_exact_recovery(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(12, 3))
        b = rng.normal(size=(3, 2))
        y = x @ b
        fit = fit_mlm(x, y)
        assert_allclose(fit.coef[1:], b, atol=1e-10)
        assert np.max(np.abs(fit.e_matrix)) <= 1e-20

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(10, 3))
        y = rng.normal(size=(10, 2))
        fit = fit_mlm(x, y)
        design = np.column_stack([np.ones(10), x])
        want = np.linalg.solve(design.T @ design, design.T @ y)
        assert_allclose(fit.coef, want, atol=1e-9)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 4))
        y = rng.normal(size=(20, 2))
        fit = fit_mlm(x, y)
        design = np.column_stack([np.ones(20), x])
        assert np.max(np.abs(design.T @ fit.residuals)) <= 1e-8

    def test_e_matrix_symmetric_psd(self):
        rng = np.random.default_rng(4)
        fit = fit_mlm(rng.normal(size=(15, 3)), rng.normal(size=(15, 3)))
        assert np.array_equal(fit.e_matrix, fit.e_matrix.T)
        assert np.all(np.linalg.eigvalsh(fit.e_matrix) >= -1e-10)
        assert fit.df_error == 15 - 3 - 1

    def test_collinear_column_named(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 3))
        x[:, 2] = 2.0 * x[:, 0]
        with pytest.raises(RankDeficiencyError, match="'c'"):
            fit_mlm(x, rng.normal(size=(12, 1)), predictor_names=["a", "b", "c"])

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            fit_mlm(np.ones((3, 3)), np.ones((3, 1)))


class TestManovaTable:
    def test_zero_coefficient_orthogonal_design(self):
        # orthogonal design, responses built only from the first two
        # columns plus noise orthogonal to the third: its coefficients are
        # exactly zero, so V = 0, F = 0, p = 1
        rng = np.random.default_rng(6)
        n = 16
        q, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.normal(size=(n, 3))]))
        x = q[:, 1:]  # orthonormal columns, orthogonal to the intercept
        basis = q  # spans {1, x1, x2, x3}
        noise = rng.normal(size=(n, 2))
        noise -= basis @ (basis.T @ noise)
        y = np.column_stack([x[:, 0], x[:, 1]]) + noise
        fit = fit_mlm(x, y)
        row = manova_table(fit)[2]
        assert row.pillai <= 1e-20
        assert row.approx_f <= 1e-18
        assert row.p_value >= 1.0 - 1e-10

    def test_f_to_p_at_reference_shape(self):
        # N=86, p=5, K=2 gives den_df = 80 - 2 + 1 = 79; pinned p-values
        # for two F statistics at that shape
        from enetstats.dist import f_sf

        assert math.isclose(f_sf(19.8432, 2, 79).value, 1.041e-7, rel_tol=5e-4)
        assert math.isclose(f_sf(19.4905, 2, 79).value, 1.317e-7, rel_tol=5e-4)

    def test_matches_explicit_oracle(self):
        rng = np.random.default_rng(7)
        n, p, k = 8, 2, 2
        x = rng.normal(size=(n, p))
        y = rng.normal(size=(n, k))
        fit = fit_mlm(x, y)
        rows = manova_table(fit)
        for j, row in enumerate(rows, start=1):
            h = np.outer(fit.coef[j], fit.coef[j]) / fit.xtx_inv[j, j]
            v = pillai_explicit(h, fit.e_matrix)
            assert math.isclose(row.pillai, v, abs_tol=1e-10)
            f_direct = v / (1.0 - v) * row.den_df / k
            assert math.isclose(row.approx_f, f_direct, abs_tol=1e-10)
            assert row.num_df == k
            assert row.den_df == fit.df_error - k + 1
            assert row.df == 1

    def test_wilks_rank_one_agreement(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n, p, k = 14, 3, 2
            x = rng.normal(size=(n, p))
            y = rng.normal(size=(n, k))
            fit = fit_mlm(x, y)
            for j, row in enumerate(manova_table(fit), start=1):
                h = np.outer(fit.coef[j], fit.coef[j]) / fit.xtx_inv[j, j]
                _, f_wilks = wilks_f_single_df(h, fit.e_matrix, fit.df_error)
                assert math.isclose(row.approx_f, f_wilks, rel_tol=1e-10)

    def test_k1_degenerates_to_t_squared(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = rng.normal(size=(12, 3))
            y = rng.normal(size=(12, 1))
            fit = fit_mlm(x, y)
            summary = univariate_summary(fit, 0)
            for row, trow in zip(manova_table(fit), summary.coef_rows[1:]):
                assert math.isclose(row.approx_f, trow.t**2, rel_tol=1e-10)
                assert math.isclose(row.p_value, trow.p, rel_tol=1e-9)


class TestOneFactorization:
    """Statistics read from one QR per matrix match the textbook formulas."""

    @one_qr
    @given(regressions())
    def test_xtx_inv_matches_direct_inverse(self, data):
        x, y = data
        fit = fit_mlm(x, y)
        design = np.column_stack([np.ones(len(x)), x])
        assert_allclose(fit.xtx_inv, np.linalg.inv(design.T @ design), rtol=1e-9)

    @one_qr
    @given(regressions())
    def test_manova_matches_explicit_pillai_and_wilks(self, data):
        x, y = data
        fit = fit_mlm(x, y)
        k = fit.n_responses
        for j, row in enumerate(manova_table(fit), start=1):
            h = np.outer(fit.coef[j], fit.coef[j]) / fit.xtx_inv[j, j]
            assert math.isclose(row.pillai, pillai_explicit(h, fit.e_matrix), abs_tol=1e-10)
            _, f_wilks = wilks_f_single_df(h, fit.e_matrix, fit.df_error)
            assert math.isclose(row.approx_f, f_wilks, rel_tol=1e-10)
            assert (row.num_df, row.den_df) == (k, fit.df_error - k + 1)

    @one_qr
    @given(regressions())
    def test_vif_matches_auxiliary_regressions(self, data):
        x, y = data
        if x.shape[1] < 2:
            x = np.column_stack([x, np.cos(np.arange(len(x)))])
        for entry, (r2_aux, want) in zip(vif(fit_mlm(x, y)), vif_auxiliary(x)):
            assert math.isclose(entry.vif, want, rel_tol=1e-9)
            assert math.isclose(entry.r2_aux, r2_aux, abs_tol=1e-12)

    @pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (2.0, 1.0)])
    def test_dependent_responses_name_the_response(self, scale, shift):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(15, 3))
        y1 = x @ [1.0, -1.0, 0.5] + rng.normal(size=15)
        fit = fit_mlm(x, np.column_stack([y1, scale * y1 + shift]), response_names=["y1", "y2"])
        with pytest.raises(PerfectFitError, match="'y2'"):
            manova_table(fit)

    def test_design_and_residuals_are_factorized_once_each(self, monkeypatch):
        shapes = []

        def spy(x):
            shapes.append(np.shape(x))
            return thin_qr(x)

        monkeypatch.setattr(inference, "thin_qr", spy)
        rng = np.random.default_rng(47)
        fit = fit_mlm(rng.normal(size=(30, 4)), rng.normal(size=(30, 3)))
        manova_table(fit)
        for k in range(3):
            univariate_summary(fit, k)
        vif(fit)
        assert shapes == [(30, 5), (30, 3)]

    def test_vif_names_the_repeated_predictor(self):
        rng = np.random.default_rng(43)
        c, z = rng.normal(size=(2, 10))
        with pytest.raises(RankDeficiencyError, match="'c'"):
            vif_of(np.column_stack([c, z, c]), names=["a", "b", "c"])


class TestUnivariateSummary:
    def test_f_to_r2_pinned_pairs(self):
        r2 = r2_from_f(156.8, 5, 80)
        assert math.isclose(r2, 784.0 / 864.0, rel_tol=1e-12)
        assert math.isclose(adjusted_r2(r2, 86, 5), 0.9016, abs_tol=5e-4)
        r2 = r2_from_f(126.0, 5, 80)
        assert math.isclose(r2, 630.0 / 710.0, rel_tol=1e-12)
        assert math.isclose(adjusted_r2(r2, 86, 5), 0.8803, abs_tol=5e-4)

    def test_identities_hold_exactly(self):
        rng = np.random.default_rng(10)
        n, p = 25, 4
        x = rng.normal(size=(n, p))
        y = x @ rng.normal(size=(p, 2)) + rng.normal(size=(n, 2))
        fit = fit_mlm(x, y)
        for k in range(2):
            s = univariate_summary(fit, k)
            assert s.f_stat == f_from_r2(s.r2, p, n - p - 1)
            assert s.r2_adj == adjusted_r2(s.r2, n, p)
            assert s.df1 == p and s.df2 == n - p - 1

    def test_std_errors_and_t(self):
        rng = np.random.default_rng(11)
        n, p = 30, 3
        x = rng.normal(size=(n, p))
        y = x @ np.array([1.0, 0.0, -2.0]) + 0.7 * rng.normal(size=n)
        fit = fit_mlm(x, y.reshape(-1, 1))
        s = univariate_summary(fit, 0)
        design = np.column_stack([np.ones(n), x])
        resid = y - design @ fit.coef[:, 0]
        sigma2 = float(resid @ resid) / (n - p - 1)
        want_se = np.sqrt(sigma2 * np.diag(np.linalg.inv(design.T @ design)))
        got_se = [row.std_error for row in s.coef_rows]
        assert_allclose(got_se, want_se, rtol=1e-9)
        for row in s.coef_rows:
            assert math.isclose(row.t, row.estimate / row.std_error, rel_tol=1e-15)

    def test_perfect_fit_is_error(self):
        x = np.arange(10.0).reshape(-1, 1)
        y = 2.0 * x
        fit = fit_mlm(x, y)
        with pytest.raises(PerfectFitError):
            univariate_summary(fit, 0)

    def test_bad_index(self):
        rng = np.random.default_rng(12)
        fit = fit_mlm(rng.normal(size=(10, 2)), rng.normal(size=(10, 1)))
        with pytest.raises(ValueError):
            univariate_summary(fit, 1)

    def test_intercept_only_is_error(self):
        y = np.random.default_rng(46).normal(size=(10, 2))
        fit = fit_mlm(np.empty((10, 0)), y)
        with pytest.raises(ValueError, match="^the model has no non-intercept terms"):
            univariate_summary(fit, 0)


class TestVif:
    def test_orthogonal_columns_give_one(self):
        u = np.array([1.0, -1.0, 1.0, -1.0])
        v = np.array([1.0, 1.0, -1.0, -1.0])
        entries = vif_of(np.column_stack([u, v]))
        for e in entries:
            assert abs(e.vif - 1.0) <= 1e-12
            assert abs(e.r2_aux) <= 1e-12

    def test_correlation_08_pair(self):
        u = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
        v = np.array([1.0, 1.0, -1.0, -1.0]) / 2.0
        x = np.column_stack([u, 0.8 * u + 0.6 * v])
        for e in vif_of(x):
            assert abs(e.vif - 1.0 / 0.36) <= 1e-4

    def test_duplicate_column_is_error(self):
        rng = np.random.default_rng(13)
        c = rng.normal(size=10)
        with pytest.raises(RankDeficiencyError):
            vif_of(np.column_stack([c, rng.normal(size=10), c]))

    def test_near_copy_is_collinearity_error(self):
        # a copy perturbed by 1e-9 passes the design's rank check, but its
        # auxiliary R^2 is 1 - 1e-18; the first of the pair is named
        rng = np.random.default_rng(13)
        c, z = rng.normal(size=(2, 10))
        x = np.column_stack([c, z, c + 1e-9 * rng.normal(size=10)])
        with pytest.raises(CollinearityError, match="^predictor 'a' is an exact linear"):
            vif_of(x, names=["a", "b", "c"])

    def test_rescaling_other_columns_is_invariant(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(20, 3))
        base = vif_of(x)
        x2 = x.copy()
        x2[:, 1] *= 37.0
        x2[:, 2] = x2[:, 2] * 0.01 + 5.0
        again = vif_of(x2)
        assert math.isclose(base[0].vif, again[0].vif, rel_tol=1e-9)

    def test_non_finite_cell_names_argument(self):
        x = np.random.default_rng(45).normal(size=(10, 3))
        x[4, 1] = np.nan
        with pytest.raises(ValueError, match="^x contains non-finite"):
            vif_of(x)

    def test_needs_two_columns(self):
        with pytest.raises(ValueError, match="^VIF needs at least 2 predictors, got 1$"):
            vif_of(np.arange(5.0))

    def test_constant_column_with_inexact_mean(self):
        # a constant predictor is collinear with the intercept
        x = np.column_stack([[1.0, 2.0, 4.0, 5.0], np.full(4, 0.1)])
        with pytest.raises(RankDeficiencyError, match="^predictor 'x2' is collinear"):
            vif_of(x)


class TestPearson:
    def test_perfect_negative(self):
        v = np.arange(10.0)
        out = pearson(v, -v)
        assert out.r == -1.0
        assert out.t == -math.inf
        assert out.p == 0.0

    def test_orthogonal_gives_zero(self):
        v = np.array([1.0, -1.0, 1.0, -1.0])
        w = np.array([1.0, 1.0, -1.0, -1.0])
        out = pearson(v, w)
        assert abs(out.r) <= 1e-15
        assert out.p >= 1.0 - 1e-12

    def test_hand_dataset(self):
        a = np.array([1.0, 2.0, 4.0, 5.0, 9.0])
        b = np.array([2.0, 1.0, 5.0, 3.0, 8.0])
        ac = a - a.mean()
        bc = b - b.mean()
        want = float(ac @ bc) / math.sqrt(float(ac @ ac) * float(bc @ bc))
        out = pearson(a, b)
        assert math.isclose(out.r, want, rel_tol=1e-12)
        want_t = want * math.sqrt(3.0 / (1.0 - want * want))
        assert math.isclose(out.t, want_t, rel_tol=1e-12)

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(15)
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        assert pearson(a, b).r == pearson(b, a).r
        assert math.isclose(pearson(3.0 * a + 7.0, b).r, pearson(a, b).r, rel_tol=1e-12)
        assert math.isclose(pearson(-a, b).r, -pearson(a, b).r, rel_tol=1e-12)

    def test_constant_input(self):
        with pytest.raises(ValueError):
            pearson(np.ones(5), np.arange(5.0))

    def test_constant_input_with_inexact_mean(self):
        with pytest.raises(ValueError, match="constant input"):
            pearson(np.full(3, 0.1), [1.0, 2.0, 4.0])

    @pytest.mark.parametrize("arg", ["a", "b"])
    def test_non_finite_cell_names_argument(self, arg):
        good = np.array([1.0, 2.0, 3.0, 5.0])
        bad = np.array([np.nan, 1.0, 2.0, 3.0])
        a, b = (bad, good) if arg == "a" else (good, bad)
        with pytest.raises(ValueError, match=f"^{arg} contains non-finite"):
            pearson(a, b)

    def test_tiny_spread_is_not_constant(self):
        # the sums of squares of the raw centered vectors underflow to 0
        out = pearson([0.0, 1e-200, 0.0], [1.0, 2.0, 4.0])
        assert math.isclose(out.r, -3.0 / math.sqrt(252.0), rel_tol=1e-12)
        out = pearson([1e-170, 0.0, 2e-170], [1e-170, 0.0, 3e-170])
        assert math.isclose(out.r, pearson([1.0, 0.0, 2.0], [1.0, 0.0, 3.0]).r, rel_tol=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError):
            pearson(np.ones(2), np.ones(2))


class TestResidualDiagnostics:
    def test_structure(self):
        rng = np.random.default_rng(16)
        n, k = 14, 2
        x = rng.normal(size=(n, 3))
        y = rng.normal(size=(n, k))
        fit = fit_mlm(x, y, response_names=["r1", "r2"])
        # one row per observation, one column per response, named in order
        assert fit.fitted.shape == fit.residuals.shape == (n, k)
        assert fit.response_names == ["r1", "r2"]
        # row i is observation i: fitted from x[i], residual against y[i]
        assert_allclose(fit.fitted, np.column_stack([np.ones(n), x]) @ fit.coef, atol=1e-12)
        assert_allclose(fit.fitted + fit.residuals, y, atol=1e-12)

    def test_residual_moments(self):
        rng = np.random.default_rng(17)
        n, k = 30, 2
        x = rng.normal(size=(n, 4))
        y = rng.normal(size=(n, k))
        fit = fit_mlm(x, y)
        for c in range(k):
            assert abs(fit.residuals[:, c].mean()) <= 1e-10
            assert abs(float(fit.fitted[:, c] @ fit.residuals[:, c])) <= 1e-8
