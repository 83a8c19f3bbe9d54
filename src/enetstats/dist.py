"""Special functions behind every p-value in the package.

The F tail probability reduces to the regularized incomplete beta
function I_x(a, b), and the two-sided Student-t tail is the F(1, df) tail
at t^2. I_x(a, b) is evaluated here by a continued fraction (modified
Lentz iteration) with the symmetry switch to I_{1-x}(b, a) once x passes
(a + 1) / (a + b + 2). The F tail hands the evaluator both x and its
complement 1 - x, each formed directly from the statistic (DiDonato &
Morris 1992, ACM TOMS 18(3), Algorithm 708), so no digits are lost to
1 - x when x is close to 1. The public functions are the tails
:func:`f_sf` and :func:`t_sf`. They hold 1e-13 absolute for degrees of
freedom up to 1e6, and 1e-12 relative, down to tails of 1e-298, for
degrees of freedom up to 1e5 (F's numerator df up to 100).
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "TailProbability",
    "f_sf",
    "t_sf",
]

# Continued-fraction evaluation limits. 300 terms is far more than the
# fraction needs inside the supported df range; hitting the cap means a
# domain bug, not slow convergence.
_CF_MAX_ITER = 300
_CF_EPS = 1e-15
_FPMIN = 1e-300

# Tail probabilities below this clamp to exactly 0.0 (and are flagged) so
# report files never carry subnormal noise.
UNDERFLOW_LIMIT = 1e-300


class TailProbability(NamedTuple):
    """An upper-tail probability; ``clamped`` marks an underflow to zero."""

    value: float
    clamped: bool = False


# Above this, the Stirling correction series for log-gamma is accurate to
# ~1 ulp with five terms.
_STIRLING_MIN = 15.0


def _stirling_phi(z: float) -> float:
    """Correction phi(z) = lnGamma(z) - [(z - 1/2) ln z - z + ln(2 pi)/2]."""
    rz2 = 1.0 / (z * z)
    series = (
        (((rz2 / 1188.0 - 1.0 / 1680.0) * rz2 + 1.0 / 1260.0) * rz2 - 1.0 / 360.0)
        * rz2
        + 1.0 / 12.0
    )
    return series / z


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b), organized so no large Stirling terms cancel.

    Plain lgamma differences lose ~1e-13 absolute at shapes in the
    hundreds; grouping the log terms as ratios keeps every summand at the
    scale of the result.
    """
    if a < b:
        a, b = b, a
    s = a + b
    if b >= _STIRLING_MIN:
        return (
            0.5 * math.log(2.0 * math.pi)
            - 0.5 * math.log(s)
            + (a - 0.5) * math.log1p(-b / s)
            + (b - 0.5) * math.log(b / s)
            + _stirling_phi(a)
            + _stirling_phi(b)
            - _stirling_phi(s)
        )
    if a >= _STIRLING_MIN:
        # lnGamma(a) - lnGamma(a + b) expanded around the large argument
        return (
            math.lgamma(b)
            + (a - 0.5) * math.log1p(-b / s)
            - b * math.log(s)
            + b
            + _stirling_phi(a)
            - _stirling_phi(s)
        )
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(s)


def _betacf(a: float, b: float, x: float, y: float) -> float:
    """Continued fraction for I_x(a, b) (modified Lentz), given x and its
    complement y = 1 - x.

    When a is large and x is close to 1 the odd partial numerators aa are
    close to -1, so 1 + aa * d would cancel. Each odd denominator is formed
    instead as (1 + aa) + aa * (d - 1), with 1 + aa written exactly in terms
    of y and d - 1 (likewise 1 / c - 1) carried over from the even step.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = _guard((1.0 - b + qab * y) / qap if y < 0.5 else 1.0 - qab * x / qap)
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d_prev, c_prev = d, c
        d = 1.0 / _guard(1.0 + aa * d_prev)
        c = _guard(1.0 + aa / c_prev)
        d_minus_1 = -aa * d_prev * d
        inv_c_minus_1 = -aa / (c_prev * c)
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        if y < 0.5:
            one_plus_aa = (
                (m2 + 1.0 - b) * (a + m) + m * (m + 1.0) + (a + m) * (qab + m) * y
            ) / ((a + m2) * (qap + m2))
        else:
            one_plus_aa = 1.0 + aa
        d = 1.0 / _guard(one_plus_aa + aa * d_minus_1)
        c = _guard(one_plus_aa + aa * inv_c_minus_1)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise RuntimeError(
        f"incomplete beta continued fraction failed to converge "
        f"(a={a!r}, b={b!r}, x={x!r})"
    )


def _guard(v: float) -> float:
    # Lentz's remedy for a vanishing denominator
    return v if abs(v) >= _FPMIN else _FPMIN


def _reg_incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta function I_x(a, b), given x and its
    complement y = 1 - x, each to full relative precision; the logs take
    whichever of the two is not close to 1.

    Endpoints are exact: I_0 = 0 and I_1 = 1. Elsewhere the continued
    fraction is evaluated on whichever side of the symmetry point
    (a + 1) / (a + b + 2) converges fast, using
    I_x(a, b) = 1 - I_{1-x}(b, a) for the far side.
    """
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    log_x = math.log1p(-y) if y < 0.5 else math.log(x)
    log_y = math.log1p(-x) if x < 0.5 else math.log(y)
    front = math.exp(a * log_x + b * log_y - _log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x, y) / a
    return 1.0 - front * _betacf(b, a, y, x) / b


def f_sf(f: float, d1: int, d2: int) -> TailProbability:
    """Upper tail P(F_{d1,d2} > f) of the F distribution."""
    if not (1 <= d1 < math.inf and 1 <= d2 < math.inf):
        raise ValueError(f"degrees of freedom must be finite and >= 1, got ({d1!r}, {d2!r})")
    if not f >= 0:
        raise ValueError(f"F statistics are nonnegative, got {f!r}")
    if math.isinf(f):
        return TailProbability(0.0)
    scale = d2 + d1 * f
    p = _reg_incomplete_beta(d2 / 2.0, d1 / 2.0, d2 / scale, d1 * f / scale)
    return _as_tail(p)


def t_sf(t: float, df: int) -> TailProbability:
    """Two-sided tail P(|T_df| > |t|) of Student's t distribution, which is
    the tail P(F_{1,df} > t^2)."""
    if math.isnan(t):
        raise ValueError("t statistic is NaN")
    return f_sf(t * t, 1, df)


def _as_tail(p: float) -> TailProbability:
    # for a finite statistic the true tail is strictly positive, so a
    # sub-limit result (including an exact 0.0 from exp underflow) is a clamp
    if p < UNDERFLOW_LIMIT:
        return TailProbability(0.0, True)
    return TailProbability(min(1.0, max(0.0, p)))
