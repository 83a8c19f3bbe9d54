import numpy as np
import pytest
from numpy.testing import assert_allclose

from enetstats.linalg import DimensionError, RankDeficiencyError, is_constant, thin_qr


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
