import numpy as np
import pytest
from numpy.testing import assert_allclose

from enetstats.linalg import (
    RankDeficiencyError,
    as_matrix,
    center_columns,
    check_rank,
    check_scale,
    is_constant,
)


class TestAsMatrix:
    def test_three_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match=r"^x must be 2-D, got shape \(2, 2, 2\)$"):
            as_matrix(np.zeros((2, 2, 2)), "x")

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError, match="^y must have at least one row$"):
            as_matrix(np.empty((0, 3)), "y")


class TestCheckScale:
    def test_window_edges_and_zero_columns_pass(self):
        check_scale(np.array([[2.0**200, -(2.0**-200), 0.0], [1.0, 0.0, 0.0]]), str)

    @pytest.mark.parametrize(
        "value", [np.nextafter(2.0**200, np.inf), np.nextafter(2.0**-200, 0.0)]
    )
    def test_just_outside_the_window_named(self, value):
        with pytest.raises(ValueError, match="^column 1 has largest"):
            check_scale(np.array([[1.0, -value]]), lambda j: f"column {j}")


class TestRFactor:
    """The R of numpy's Q-free QR, which ``fit_mlm`` takes, and
    :func:`check_rank`'s pivot rule on it."""

    def test_factors(self):
        rng = np.random.default_rng(40)
        x = rng.normal(size=(9, 4))
        r = np.linalg.qr(x, mode="r")
        assert r.shape == (4, 4)
        assert_allclose(r.T @ r, x.T @ x, atol=1e-12)
        assert np.all(np.tril(r, -1) == 0.0)

    def test_first_dependent_column_reported(self):
        rng = np.random.default_rng(41)
        a, b = rng.normal(size=(2, 8))
        x = np.column_stack([a, b, a - 3.0 * b, rng.normal(size=8), b])
        with pytest.raises(RankDeficiencyError) as info:
            check_rank(np.linalg.qr(x, mode="r"))
        assert info.value.column == 2

    def test_pivot_rule_is_scale_invariant(self):
        rng = np.random.default_rng(43)
        a, b = rng.normal(size=(2, 8))
        check_rank(np.linalg.qr(np.column_stack([np.ones(8), 1e14 * a, 1e-14 * b]), mode="r"))
        with pytest.raises(RankDeficiencyError) as info:
            check_rank(np.linalg.qr(np.column_stack([1e14 * a, 1e-14 * b, 1e-14 * a]), mode="r"))
        assert info.value.column == 2

    def test_pivot_threshold_is_1e_12_of_the_column_norm(self):
        # column 1's pivot is 1.2e-12 and 0.9e-12 of its norm, either side
        # of the threshold
        check_rank(np.linalg.qr(np.array([[1.0, 1.0], [0.0, 1.2e-12]]), mode="r"))
        with pytest.raises(RankDeficiencyError) as info:
            check_rank(np.linalg.qr(np.array([[1.0, 1.0], [0.0, 0.9e-12]]), mode="r"))
        assert info.value.column == 1

    def test_wide_is_trapezoidal(self):
        x = np.random.default_rng(42).normal(size=(2, 3))
        r = np.linalg.qr(x, mode="r")
        assert r.shape == (2, 3) and r[1, 0] == 0.0
        assert_allclose(r.T @ r, x.T @ x, atol=1e-12)


class TestIsConstant:
    def test_spread_decides(self):
        # column 1's centered sum of squares is 5.8e-34, not 0
        x = np.column_stack([[1.0, 2.0, 4.0], np.full(3, 0.1), [0.0, 1e-200, 0.0], np.full(3, -3.0)])
        assert is_constant(x).tolist() == [False, True, False, True]

    def test_no_columns(self):
        assert is_constant(np.empty((4, 0))).shape == (0,)

    def test_vector_is_one_column(self):
        assert is_constant(np.full(3, 0.1))
        assert not is_constant(np.array([0.0, 1e-200, 0.0]))


class TestCenterColumns:
    def test_centers_in_place_and_returns_means_and_scales(self):
        x = np.array([[1.0, -40.0], [2.0, 10.0], [6.0, 0.0]])
        means, scales = center_columns(x)
        # each column is divided by the power of two that brings its
        # largest |value| into [1, 2), then centered
        assert scales.tolist() == [4.0, 32.0]
        assert means.tolist() == [3.0, -10.0]
        assert x.tolist() == [[-0.5, -0.9375], [-0.25, 0.625], [0.75, 0.3125]]

    def test_vector_is_one_column(self):
        x = np.array([3.0, 5.0, 10.0])
        means, scales = center_columns(x)
        assert means == 6.0 and scales == 8.0
        assert x.tolist() == [-0.375, -0.125, 0.5]
