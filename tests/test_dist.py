import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from enetstats.dist import TailProbability, _reg_incomplete_beta, f_sf, t_sf

mpmath.mp.dps = 40


def beta_quadrature(a, b, x):
    """Adaptive quadrature of the beta density; the independent route."""
    const = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))

    def density(t):
        return const * t ** (a - 1) * (1 - t) ** (b - 1)

    value, _ = integrate.quad(density, 0.0, x, epsabs=1e-13, epsrel=1e-13)
    return value


def reg_incomplete_beta(a, b, x):
    """I_x(a, b) through the evaluator the tails call, with 1 - x formed
    here."""
    return _reg_incomplete_beta(a, b, x, 1.0 - x)


class TestRegIncompleteBeta:
    def test_uniform(self):
        for x in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert math.isclose(reg_incomplete_beta(1.0, 1.0, x), x, abs_tol=1e-14)

    def test_symmetry_midpoint(self):
        for a in (0.5, 1.0, 3.0, 17.5):
            assert math.isclose(reg_incomplete_beta(a, a, 0.5), 0.5, abs_tol=1e-13)

    def test_against_quadrature(self):
        assert math.isclose(
            reg_incomplete_beta(2.0, 5.0, 0.3), beta_quadrature(2.0, 5.0, 0.3),
            abs_tol=1e-10,
        )

    def test_endpoints_exact(self):
        assert reg_incomplete_beta(3.0, 4.0, 0.0) == 0.0
        assert reg_incomplete_beta(3.0, 4.0, 1.0) == 1.0

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 1.0, 101)
        values = [reg_incomplete_beta(2.5, 7.0, float(x)) for x in xs]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_absolute_accuracy(self):
        # df up to 1000 means shape parameters up to 500
        rng = np.random.default_rng(0)
        for _ in range(60):
            a = float(rng.uniform(0.5, 500.0))
            b = float(rng.uniform(0.5, 500.0))
            x = float(rng.uniform(0.0, 1.0))
            want = float(mpmath.betainc(a, b, 0, x, regularized=True))
            assert abs(reg_incomplete_beta(a, b, x) - want) <= 1e-13


class TestFSf:
    def test_pinned_tail_values_df_2_79(self):
        # reference tail values for five F statistics at df (2, 79),
        # pinned to 3 significant figures
        targets = [
            (19.8432, 1.041e-7),
            (10.2582, 1.095e-4),
            (6.1968, 3.163e-3),
            (4.4177, 1.518e-2),
            (19.4905, 1.317e-7),
        ]
        for f, want in targets:
            got = f_sf(f, 2, 79).value
            assert math.isclose(got, want, rel_tol=5e-4), (f, got, want)

    def test_ratio_symmetry(self):
        for d in (1, 3, 10, 80, 500):
            assert math.isclose(f_sf(1.0, d, d).value, 0.5, abs_tol=1e-12)

    def test_d1_two_closed_form(self):
        for n in range(1, 201, 7):
            for f in (0.0, 0.03, 1.0, 4.5, 37.0, 100.0):
                closed = (1.0 + 2.0 * f / n) ** (-n / 2.0)
                assert math.isclose(f_sf(f, 2, n).value, closed, abs_tol=1e-12)

    def test_monotone_nonincreasing(self):
        values = [f_sf(f, 4, 17).value for f in np.linspace(0, 40, 200)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[0] == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            f_sf(-0.5, 2, 10)
        with pytest.raises(ValueError):
            f_sf(1.0, 0, 10)

    def test_nan_statistic_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            f_sf(math.nan, 2, 5)

    def test_infinite_df_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            f_sf(1.0, 2, math.inf)

    def test_infinite_statistic_is_an_exact_zero(self):
        assert f_sf(math.inf, 3, 20) == TailProbability(0.0, False)

    def test_underflow_clamps_with_flag(self):
        tail = f_sf(1e6, 20, 1000)
        assert tail.value == 0.0
        assert tail.clamped
        assert isinstance(tail, TailProbability)


class TestTSf:
    def test_zero(self):
        assert t_sf(0.0, 12).value == 1.0

    def test_f_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = float(rng.normal(scale=3.0))
            df = int(rng.integers(1, 300))
            assert t_sf(t, df) == f_sf(t * t, 1, df)

    def test_against_quadrature(self):
        df = 10
        const = math.exp(
            math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)
        ) / math.sqrt(df * math.pi)

        def density(u):
            return const * (1 + u * u / df) ** (-(df + 1) / 2.0)

        upper, _ = integrate.quad(density, 2.0, np.inf, epsabs=1e-13)
        assert math.isclose(t_sf(2.0, df).value, 2 * upper, abs_tol=1e-10)

    def test_symmetric_in_sign(self):
        assert t_sf(2.5, 7).value == t_sf(-2.5, 7).value

    def test_infinite_statistic_is_an_exact_zero(self):
        # as is a finite t whose square overflows, since F's tail is read at t^2
        for t in (math.inf, -math.inf, 1e155, -1e155):
            assert t_sf(t, 9) == TailProbability(0.0, False)

    def test_domain(self):
        with pytest.raises(ValueError):
            t_sf(1.0, 0)

    def test_nan_statistic_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            t_sf(math.nan, 5)

    def test_infinite_df_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            t_sf(1.0, math.inf)

    def test_nan_df_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            t_sf(1.0, math.nan)


class TestLargeDf:
    """Both tails against mpmath at the documented 1e-13 up to df 1e6.

    x = df / (df + t^2) is then within t^2 / df of 1, so forming 1 - x from
    x (or evaluating the continued fraction in x alone) loses the digits
    these tests check.
    """

    @staticmethod
    def _t_reference(t, df):
        t2 = mpmath.mpf(t) ** 2
        return float(
            mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, df / (df + t2), regularized=True)
        )

    @pytest.mark.parametrize("df", [10**4, 10**5, 10**6])
    def test_t_tail(self, df):
        for t in np.concatenate([[0.0], np.geomspace(1e-3, 40.0, 30)]):
            want = self._t_reference(float(t), df)
            assert abs(t_sf(float(t), df).value - want) <= 1e-13, (t, df)

    @pytest.mark.parametrize("d2", [10**4, 10**5, 10**6])
    def test_f_tail(self, d2):
        for d1 in (1, 2, 4, 30):
            for f in np.geomspace(1e-3, 1e3, 19):
                fm = mpmath.mpf(float(f))
                want = float(
                    mpmath.betainc(
                        mpmath.mpf(d2) / 2, mpmath.mpf(d1) / 2, 0, d2 / (d2 + d1 * fm), regularized=True
                    )
                )
                assert abs(f_sf(float(f), d1, d2).value - want) <= 1e-13, (f, d1, d2)

    def test_small_tails_keep_relative_accuracy(self):
        # the tails are not formed as 1 - (something near 1)
        for df, t in ((10**6, 8.0), (10**5, 12.0), (19955, 30.0)):
            want = self._t_reference(t, df)
            assert math.isclose(t_sf(t, df).value, want, rel_tol=1e-11), (df, t)


class TestRelativeTailAccuracy:
    """Both tails within 1e-12 relative of mpmath for df from 1 to 1e5
    (F's numerator df up to 100) and tails down to 1e-298."""

    @staticmethod
    def _reference(a, b, u, v):
        # I_x(a, b) at x = u / (u + v), summed by mpmath on the side of the
        # mean where its series converges
        x, y = u / (u + v), v / (u + v)
        if x < a / (a + b):
            return mpmath.betainc(a, b, 0, x, regularized=True)
        return 1 - mpmath.betainc(b, a, 0, y, regularized=True)

    def test_seeded_points_against_mpmath(self):
        rng = np.random.default_rng(5)
        tails = []
        for _ in range(140):
            # a tail of about exp(log_p) sits near x = exp(2 log_p / a);
            # points whose statistic overflows a double are not reachable
            log_p = rng.uniform(math.log(1e-298), 0.0)
            df, d1, d2 = (int(round(10 ** rng.uniform(0.0, hi))) for hi in (5.0, 2.0, 5.0))
            x_t, x_f = math.exp(2.0 * log_p / df), math.exp(2.0 * log_p / d2)
            points = []
            if x_t > 0.0:
                t = math.copysign(math.sqrt(df * (1.0 - x_t) / x_t), rng.uniform(-1.0, 1.0))
                if math.isfinite(t):
                    want = self._reference(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, df, mpmath.mpf(t) ** 2)
                    points.append((t_sf(t, df).value, want, (t, df)))
            if x_f > 0.0:
                f = d2 * (1.0 - x_f) / (d1 * x_f)
                if math.isfinite(f):
                    want = self._reference(mpmath.mpf(d2) / 2, mpmath.mpf(d1) / 2, d2, d1 * mpmath.mpf(f))
                    points.append((f_sf(f, d1, d2).value, want, (f, d1, d2)))
            for got, want, args in points:
                if want >= 1e-298:
                    err = float(abs(got - want) / want)
                    assert err <= 1e-12, (args, err)
                    tails.append(float(want))
        assert len(tails) >= 250
        assert min(tails) < 1e-250

    @pytest.mark.parametrize("f,d1,d2", [(2.0, 100000, 2), (1.0, 100000, 100)])
    def test_large_numerator_df(self, f, d1, d2):
        # two points that lie deliberately past the documented numerator df
        # of 100. There y = d1 f / (d2 + d1 f) is close to 1 and carries the
        # shape d1 / 2, so log(y) in place of log1p(-x) misses them by ~2e-12;
        # inside the documented range d1 / 2 <= 50 bounds that error near
        # 6e-15, so only these points pin the log1p branch, which is kept
        # because it costs nothing and holds the tail to 3e-14 here too
        want = self._reference(mpmath.mpf(d2) / 2, mpmath.mpf(d1) / 2, d2, d1 * mpmath.mpf(f))
        err = float(abs(f_sf(f, d1, d2).value - want) / want)
        assert err <= 1e-12, err
