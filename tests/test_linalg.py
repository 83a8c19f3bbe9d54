import numpy as np
import pytest
from numpy.testing import assert_allclose

from enetstats.linalg import (
    DimensionError,
    NotPositiveDefiniteError,
    RankDeficiencyError,
    cholesky_solve,
    least_squares,
    matmul,
    thin_qr,
)

from oracles import inverse_adjugate, matmul_loops


class TestMatmul:
    def test_identity(self):
        a = np.arange(9.0).reshape(3, 3) + 1
        assert_allclose(matmul(np.eye(3), a), a)

    def test_hand_product(self):
        out = matmul([[1.0, 2.0], [3.0, 4.0]], [[0.0], [1.0]])
        assert_allclose(out, [[2.0], [4.0]])

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(3, 2))
        assert_allclose(matmul(a, b), matmul_loops(a, b), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(np.ones((2, 3)), np.ones((2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            matmul(np.array([[np.nan, 1.0]]), np.ones((2, 1)))

    def test_associativity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.normal(size=(4, 3))
            b = rng.normal(size=(3, 5))
            c = rng.normal(size=(5, 2))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            assert_allclose(left, right, rtol=1e-9)


class TestCholeskySolve:
    def test_identity(self):
        b = np.array([[1.0], [2.0]])
        assert_allclose(cholesky_solve(np.eye(2), b), b)

    def test_diagonal(self):
        out = cholesky_solve(np.diag([2.0, 4.0]), [[2.0], [8.0]])
        assert_allclose(out, [[1.0], [2.0]])

    def test_matches_adjugate_inverse(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(5, 5))
        a = m.T @ m + np.eye(5)
        b = rng.normal(size=(5, 2))
        assert_allclose(cholesky_solve(a, b), inverse_adjugate(a) @ b, atol=1e-9)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.normal(size=(6, 6))
            a = m.T @ m + np.eye(6)
            v = rng.normal(size=(6, 1))
            assert_allclose(cholesky_solve(a, a @ v), v, atol=1e-9)

    def test_residual_bound(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(8, 8))
        a = m.T @ m + np.eye(8)
        b = rng.normal(size=(8, 3))
        x = cholesky_solve(a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-8 * np.max(np.abs(b))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_solve(np.diag([1.0, -1.0]), np.ones((2, 1)))

    def test_not_symmetric(self):
        with pytest.raises(ValueError):
            cholesky_solve(np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones((2, 1)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            cholesky_solve(np.eye(2), np.ones((3, 1)))


class TestLeastSquares:
    def test_square_invertible(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        y = rng.normal(size=(3, 2))
        assert_allclose(least_squares(x, y), np.linalg.solve(x, y), atol=1e-10)

    def test_exact_recovery(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(9, 4))
        b0 = rng.normal(size=(4, 2))
        assert_allclose(least_squares(x, x @ b0), b0, atol=1e-10)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(8, 3))
        y = rng.normal(size=(8, 2))
        via_normal = cholesky_solve(x.T @ x, x.T @ y)
        assert_allclose(least_squares(x, y), via_normal, atol=1e-9)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.normal(size=(12, 4))
            y = rng.normal(size=(12, 3))
            b = least_squares(x, y)
            lhs = np.max(np.abs(x.T @ (y - x @ b)))
            assert lhs <= 1e-8 * np.max(np.abs(x.T @ y))

    def test_rank_deficiency(self):
        x = np.column_stack([np.ones(5), np.arange(5.0), 2 * np.arange(5.0)])
        with pytest.raises(RankDeficiencyError) as info:
            least_squares(x, np.ones((5, 1)))
        assert info.value.column == 2

    def test_underdetermined_rejected(self):
        with pytest.raises(DimensionError):
            least_squares(np.ones((2, 3)), np.ones((2, 1)))


class TestThinQr:
    def test_factors(self):
        rng = np.random.default_rng(40)
        x = rng.normal(size=(9, 4))
        q, r = thin_qr(x)
        assert q.shape == (9, 4) and r.shape == (4, 4)
        assert_allclose(q @ r, x, atol=1e-12)
        assert_allclose(q.T @ q, np.eye(4), atol=1e-12)
        assert np.all(np.tril(r, -1) == 0.0)

    def test_first_dependent_column_reported(self):
        rng = np.random.default_rng(41)
        a, b = rng.normal(size=(2, 8))
        x = np.column_stack([a, b, a - 3.0 * b, rng.normal(size=8), b])
        with pytest.raises(RankDeficiencyError) as info:
            thin_qr(x)
        assert info.value.column == 2

    def test_underdetermined_rejected(self):
        with pytest.raises(DimensionError):
            thin_qr(np.ones((2, 3)))
