import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from enetstats.inference import (
    PerfectFitError,
    adjusted_r2,
    fit_mlm,
    manova_table,
    pearson,
    univariate_summary,
    vif,
)
from enetstats.linalg import RankDeficiencyError

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

    def test_collinear_column_is_its_predictor_index(self):
        # the index among the predictors, not among [1, X]
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 3))
        x[:, 1] = x[:, 0]
        message = "^predictor 'x2' is collinear with the preceding columns$"
        with pytest.raises(RankDeficiencyError, match=message) as info:
            fit_mlm(x, rng.normal(size=(12, 1)))
        assert info.value.column == 1

    def test_too_few_rows(self):
        # full-rank data, so the row count alone decides: N = p and
        # N = p + 1 leave no residual degree of freedom, N = p + 2 leaves one
        rng = np.random.default_rng(7)
        p = 3
        x, y = rng.normal(size=(p + 2, p)), rng.normal(size=(p + 2, 2))
        for n in (p, p + 1):
            message = rf"^need more observations than coefficients: N={n}, p\+1=4$"
            with pytest.raises(ValueError, match=message):
                fit_mlm(x[:n], y[:n])
        assert fit_mlm(x, y).df_error == 1

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="^x has 6 rows but y has 5$"):
            fit_mlm(np.ones((6, 1)), np.ones((5, 1)))

    @pytest.mark.parametrize(
        "names", [{"predictor_names": ["a"]}, {"response_names": ["u", "v", "w"]}]
    )
    def test_name_lists_of_the_wrong_length(self, names):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="^name lists must match the matrix shapes$"):
            fit_mlm(rng.normal(size=(10, 2)), rng.normal(size=(10, 2)), **names)

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300, 1e-300])
    @pytest.mark.parametrize("role", ["predictor", "response"])
    def test_column_outside_scale_window_named(self, role, scale):
        # such a column overflowed a norm, (X'X)^-1 or a standard error;
        # it is now named before anything is computed
        rng = np.random.default_rng(51)
        x = rng.normal(size=(20, 3))
        y = rng.normal(size=(20, 2))
        (x if role == "predictor" else y)[:, 1] *= scale
        name = "x2" if role == "predictor" else "y2"
        message = rf"^{role} '{name}' has largest \|value\| .* rescale it$"
        with pytest.raises(ValueError, match=message):
            fit_mlm(x, y)

    @pytest.mark.parametrize("sx, sy", [(1.5e60, 6.3e-61), (6.3e-61, 1.5e60)])
    def test_statistics_scale_free_at_the_window_edges(self, sx, sy):
        # a predictor and a response at opposite edges of the window: no
        # warning, and every statistic is that of the unit-scaled columns
        rng = np.random.default_rng(52)
        x = rng.normal(size=(20, 3))
        y = x @ rng.normal(size=(3, 2)) + rng.normal(size=(20, 2))
        x /= np.abs(x).max(axis=0)
        y /= np.abs(y).max(axis=0)
        unit, scaled = fit_mlm(x, y), fit_mlm(x * [1.0, sx, 1.0], y * [sy, 1.0])
        got, want = manova_table(scaled), manova_table(unit)
        assert_allclose(got.pillai, want.pillai, rtol=1e-12)
        assert_allclose(got.p_value, want.p_value, rtol=1e-12)
        for k in range(2):
            got, want = univariate_summary(scaled, k), univariate_summary(unit, k)
            assert_allclose(got.t, want.t, rtol=1e-12)
            assert_allclose([got.r2, got.f_stat], [want.r2, want.f_stat], rtol=1e-12)
        assert_allclose(vif(scaled).vif, vif(unit).vif, rtol=1e-12)

    def test_columns_of_very_different_scale(self):
        # each pivot is judged against its own column, so a column 1e14
        # times larger than the intercept is no reason to call either
        # collinear, and the tests are those of the unscaled design
        rng = np.random.default_rng(50)
        x = rng.normal(size=(20, 2))
        y = x @ rng.normal(size=(2, 2)) + rng.normal(size=(20, 2))
        got, want = manova_table(fit_mlm(x * [1e14, 1.0], y)), manova_table(fit_mlm(x, y))
        assert_allclose(got.pillai, want.pillai, rtol=1e-9)
        assert_allclose(got.approx_f, want.approx_f, rtol=1e-9)
        assert_allclose(got.p_value, want.p_value, rtol=1e-9)


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
        m = manova_table(fit)
        assert m.pillai[2] <= 1e-20
        assert m.approx_f[2] <= 1e-18
        assert m.p_value[2] >= 1.0 - 1e-10

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
        m = manova_table(fit)
        assert m.num_df == k
        assert m.den_df == fit.df_error - k + 1
        assert m.df == 1
        assert len(m.pillai) == len(m.approx_f) == len(m.p_value) == p
        for j in range(1, p + 1):
            h = np.outer(fit.coef[j], fit.coef[j]) / fit.xtx_inv[j, j]
            v = pillai_explicit(h, fit.e_matrix)
            assert math.isclose(m.pillai[j - 1], v, abs_tol=1e-10)
            f_direct = v / (1.0 - v) * m.den_df / k
            assert math.isclose(m.approx_f[j - 1], f_direct, abs_tol=1e-10)

    def test_wilks_rank_one_agreement(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n, p, k = 14, 3, 2
            x = rng.normal(size=(n, p))
            y = rng.normal(size=(n, k))
            fit = fit_mlm(x, y)
            approx_f = manova_table(fit).approx_f
            for j in range(1, p + 1):
                h = np.outer(fit.coef[j], fit.coef[j]) / fit.xtx_inv[j, j]
                _, f_wilks = wilks_f_single_df(h, fit.e_matrix, fit.df_error)
                assert math.isclose(approx_f[j - 1], f_wilks, rel_tol=1e-10)

    def test_k1_degenerates_to_t_squared(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = rng.normal(size=(12, 3))
            y = rng.normal(size=(12, 1))
            fit = fit_mlm(x, y)
            m, summary = manova_table(fit), univariate_summary(fit, 0)
            assert_allclose(m.approx_f, summary.t[1:] ** 2, rtol=1e-10)
            assert_allclose(m.p_value, summary.p[1:], rtol=1e-9)

    def test_intercept_only_is_error(self):
        fit = fit_mlm(np.empty((10, 0)), np.random.default_rng(47).normal(size=(10, 2)))
        with pytest.raises(ValueError, match="^the model has no non-intercept terms to test$"):
            manova_table(fit)


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
        m = manova_table(fit)
        assert (m.num_df, m.den_df) == (k, fit.df_error - k + 1)
        for j in range(1, fit.n_predictors + 1):
            h = np.outer(fit.coef[j], fit.coef[j]) / fit.xtx_inv[j, j]
            assert math.isclose(m.pillai[j - 1], pillai_explicit(h, fit.e_matrix), abs_tol=1e-10)
            _, f_wilks = wilks_f_single_df(h, fit.e_matrix, fit.df_error)
            assert math.isclose(m.approx_f[j - 1], f_wilks, rel_tol=1e-10)

    @one_qr
    @given(regressions())
    def test_vif_matches_auxiliary_regressions(self, data):
        x, y = data
        if x.shape[1] < 2:
            x = np.column_stack([x, np.cos(np.arange(len(x)))])
        got = vif(fit_mlm(x, y))
        for j, (r2_aux, want) in enumerate(vif_auxiliary(x)):
            assert math.isclose(got.vif[j], want, rel_tol=1e-9)
            assert math.isclose(got.r2_aux[j], r2_aux, abs_tol=1e-12)

    @pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (2.0, 1.0)])
    def test_dependent_responses_name_the_response(self, scale, shift):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(15, 3))
        y1 = x @ [1.0, -1.0, 0.5] + rng.normal(size=15)
        fit = fit_mlm(x, np.column_stack([y1, scale * y1 + shift]), response_names=["y1", "y2"])
        with pytest.raises(PerfectFitError, match="'y2'"):
            manova_table(fit)

    def test_large_mean_tiny_spread_response_agrees_with_univariate(self):
        # y2 = 1e6 + 1e-7 z: its residual pivot is ~1e-13 of its uncentered
        # norm but not of its centered norm, which is what its statistics
        # use; both tables accept it
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 2))
        y1 = rng.normal(size=30)
        y2 = 1e6 + 1e-7 * rng.normal(size=30)
        fit = fit_mlm(x, np.column_stack([y1, y2]))
        assert len(manova_table(fit).pillai) == 2
        assert math.isclose(univariate_summary(fit, 1).r2, 0.0351, abs_tol=1e-4)

    def test_design_and_residuals_are_factorized_once_each(self, monkeypatch):
        # one QR of [1, X, Y], in numpy's mode "r", which forms no Q
        calls = []
        qr = np.linalg.qr

        def spy(a, mode="reduced"):
            calls.append((np.shape(a), mode))
            return qr(a, mode)

        monkeypatch.setattr(np.linalg, "qr", spy)
        rng = np.random.default_rng(47)
        fit = fit_mlm(rng.normal(size=(30, 4)), rng.normal(size=(30, 3)))
        manova_table(fit)
        for k in range(3):
            univariate_summary(fit, k)
        vif(fit)
        assert calls == [((30, 8), "r")]

    def test_fewer_rows_than_augmented_columns(self):
        # N = 6 < 1 + p + K = 8, so the R factor of [1, X, Y] is trapezoidal
        rng = np.random.default_rng(48)
        n, p = 6, 4
        x = rng.normal(size=(n, p))
        y = x @ rng.normal(size=(p, 3)) + rng.normal(size=(n, 3))
        fit = fit_mlm(x, y)
        assert fit.r.shape == (n, 1 + p + 3)
        design = np.column_stack([np.ones(n), x])
        coef = np.linalg.lstsq(design, y, rcond=None)[0]
        unscaled_se = np.sqrt(np.diag(np.linalg.inv(design.T @ design)))
        for k in range(3):
            resid = y[:, k] - design @ coef[:, k]
            centered = y[:, k] - y[:, k].mean()
            rss = float(resid @ resid)
            s = univariate_summary(fit, k)
            assert math.isclose(s.r2, 1.0 - rss / float(centered @ centered), rel_tol=1e-9)
            assert math.isclose(s.sigma, math.sqrt(rss / (n - p - 1)), rel_tol=1e-9)
            assert_allclose(s.estimate, coef[:, k], rtol=1e-9)
            assert_allclose(s.std_error, s.sigma * unscaled_se, rtol=1e-9)
        with pytest.raises(ValueError, match="^not enough error degrees of freedom for 3"):
            manova_table(fit)

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
        # F, R^2, adjusted R^2 and sigma from their textbook definitions,
        # over a least-squares fit of each response on [1, X]
        rng = np.random.default_rng(10)
        n, p = 25, 4
        x = rng.normal(size=(n, p))
        y = x @ rng.normal(size=(p, 2)) + rng.normal(size=(n, 2))
        fit = fit_mlm(x, y)
        design = np.column_stack([np.ones(n), x])
        for k in range(2):
            s = univariate_summary(fit, k)
            coef = np.linalg.lstsq(design, y[:, k], rcond=None)[0]
            resid = y[:, k] - design @ coef
            rss = float(resid @ resid)
            yc = y[:, k] - y[:, k].mean()
            tss = float(yc @ yc)
            df2 = n - p - 1
            assert math.isclose(s.f_stat, ((tss - rss) / p) / (rss / df2), rel_tol=1e-9)
            assert math.isclose(s.r2, 1.0 - rss / tss, rel_tol=1e-9)
            assert math.isclose(s.r2_adj, 1.0 - (rss / df2) / (tss / (n - 1)), rel_tol=1e-9)
            assert math.isclose(s.sigma, math.sqrt(rss / df2), rel_tol=1e-9)
            assert s.df1 == p and s.df2 == df2

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
        assert_allclose(s.std_error, want_se, rtol=1e-9)
        for t, estimate, std_error in zip(s.t, s.estimate, s.std_error):
            assert math.isclose(t, estimate / std_error, rel_tol=1e-15)

    def test_perfect_fit_is_error(self):
        x = np.arange(10.0).reshape(-1, 1)
        y = 2.0 * x
        fit = fit_mlm(x, y)
        with pytest.raises(PerfectFitError):
            univariate_summary(fit, 0)

    @pytest.mark.parametrize("ratio, exact", [(0.8e-12, True), (1.25e-12, False)])
    def test_perfect_fit_threshold(self, ratio, exact):
        # RSS / TSS = ratio to ~1e-10 relative: y is a unit column of the
        # design plus sqrt(ratio) times a unit vector orthogonal to it
        rng = np.random.default_rng(15)
        q, _ = np.linalg.qr(np.column_stack([np.ones(6), rng.normal(size=(6, 3))]))
        delta = math.sqrt(ratio / (1.0 - ratio))
        fit = fit_mlm(q[:, 1:3], q[:, 1] + delta * q[:, 3])
        if exact:
            with pytest.raises(PerfectFitError):
                univariate_summary(fit, 0)
        else:
            assert math.isclose(1.0 - univariate_summary(fit, 0).r2, ratio, rel_tol=1e-6)

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
        table = vif_of(np.column_stack([u, v]))
        assert np.all(np.abs(table.vif - 1.0) <= 1e-12)
        assert np.all(np.abs(table.r2_aux) <= 1e-12)

    def test_correlation_08_pair(self):
        u = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
        v = np.array([1.0, 1.0, -1.0, -1.0]) / 2.0
        x = np.column_stack([u, 0.8 * u + 0.6 * v])
        assert np.all(np.abs(vif_of(x).vif - 1.0 / 0.36) <= 1e-4)

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
        with pytest.raises(RankDeficiencyError, match="^predictor 'a' is an exact linear") as info:
            vif_of(x, names=["a", "b", "c"])
        assert info.value.column == 0
        with pytest.raises(RankDeficiencyError, match="^predictor 'b' is an exact linear") as info:
            vif_of(x[:, [1, 0, 2]], names=["a", "b", "c"])
        assert info.value.column == 1

    @pytest.mark.parametrize("t, collinear", [(0.8e-12, True), (1.25e-12, False)])
    def test_collinearity_threshold(self, t, collinear):
        # two orthonormal centered columns mixed so 1 - R_aux^2 = t
        u = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
        w = np.array([1.0, 1.0, -1.0, -1.0]) / 2.0
        x = np.column_stack([u, math.sqrt(1.0 - t) * u + math.sqrt(t) * w])
        if collinear:
            with pytest.raises(RankDeficiencyError, match="^predictor 'x1' is an exact linear"):
                vif_of(x)
        else:
            table = vif_of(x)
            for r2_aux, vif_j in zip(table.r2_aux, table.vif):
                assert math.isclose(1.0 - r2_aux, t, rel_tol=1e-3)
                assert math.isclose(vif_j, 1.0 / t, rel_tol=1e-3)

    def test_rescaling_other_columns_is_invariant(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(20, 3))
        base = vif_of(x)
        x2 = x.copy()
        x2[:, 1] *= 37.0
        x2[:, 2] = x2[:, 2] * 0.01 + 5.0
        again = vif_of(x2)
        assert math.isclose(base.vif[0], again.vif[0], rel_tol=1e-9)

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
    def test_inputs_are_left_unchanged(self):
        # 1-D contiguous inputs reach the centering as views, and a column
        # of a matrix as a strided one
        a = np.array([1.0, 2.0, 4.0, 5.0, 9.0])
        b = np.array([2.0, 1.0, 5.0, 3.0, 8.0])
        m = np.column_stack([a, b])
        saved = [v.tobytes() for v in (a, b, m)]
        assert pearson(a, b) == pearson(m[:, 0], m[:, 1])
        assert [v.tobytes() for v in (a, b, m)] == saved

    def test_perfect_negative(self):
        v = np.arange(10.0)
        out = pearson(v, -v)
        assert out.r == -1.0
        assert out.t == -math.inf
        assert out.p == 0.0

    def test_rounding_past_one_is_clamped(self):
        # unclamped, r of [1, -2, -1] with itself rounds to 1 + 2^-52
        for sign in (1.0, -1.0):
            out = pearson([1.0, -2.0, -1.0], [sign, -2.0 * sign, -sign])
            assert out.r == sign
            assert out.t == sign * math.inf
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

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="^length mismatch: 4 vs 5$"):
            pearson(np.arange(4.0), np.arange(5.0))

    @pytest.mark.parametrize("n", [5, 10, 40])
    def test_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=n)
        b = 0.6 * a + rng.normal(size=n)
        want = stats.pearsonr(a, b)
        out = pearson(a, b)
        assert math.isclose(out.r, want.statistic, rel_tol=1e-12)
        assert math.isclose(out.p, want.pvalue, rel_tol=1e-9)


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
