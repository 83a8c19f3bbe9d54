"""Small dense linear algebra with the package's error vocabulary.

numpy supplies the factorization; this module holds what the statistical
layers build their diagnostics on:

* one array validator (:func:`as_matrix`), which every layer takes its
  inputs through, so a malformed or non-finite argument is named;
* one constancy rule (:func:`is_constant`): a column is constant when
  its largest and smallest entries are equal. A centered sum of squares
  need not come out 0 for such a column when its mean is inexact;
* one centering rule (:func:`center_columns`), which every z-score and
  correlation takes its moments from: an exact power-of-two rescale and
  the corrected two-pass mean, both done in place on the caller's copy,
  so the moments hold at any column scale;
* one pivot rule (:func:`check_rank`) for the R factor of a QR, which
  judges each pivot against its own column's norm, so collinearity
  surfaces as a rank failure naming the dependent column whatever the
  columns' scales;
* one scale window (:func:`check_scale`) for the fitters' columns, inside
  which none of their sums of squares, inverses or ratios of two columns'
  scales can overflow.

Problems in this package stay small (~100 columns at most), so everything
is dense and unblocked.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RankDeficiencyError",
    "as_matrix",
]

_RANK_TOL = 1e-12
_SCALE_MAX = 2.0**200  # about 1.6e60


class RankDeficiencyError(ValueError):
    """A design matrix has numerically collinear columns."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


def as_matrix(a, name: str) -> np.ndarray:
    """Coerce ``a`` to a validated 2-D float array.

    1-D input becomes a single column. Rejects input without rows and any
    non-finite entry; zero columns are allowed (an intercept-only design
    has no predictor columns).
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError(f"{name} must have at least one row")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def is_constant(x: np.ndarray) -> np.ndarray:
    """Per column of ``x``, whether its entries are all equal, judged by
    spread (max == min); a 1-D ``x`` is one column.

    Left out of ``__all__``, so the per-layer trace in ``perfbench``, which
    wraps exactly the names listed there, does not count it as a call.
    """
    return x.max(axis=0) == x.min(axis=0)


def center_columns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide each column of the float array ``x`` (a 1-D ``x`` is one
    column), in place, by the power of two that brings its largest |value|
    into [1, 2), which is exact, and center it, in place, by the corrected
    two-pass mean (Chan, Golub & LeVeque 1983); return the columns' means
    and the scales. A column that is not constant spreads over at least
    half a unit in the last place of its largest |value|, so no square or
    sum of the centered values overflows or underflows to 0, and the
    second pass removes the first mean's rounding, as a tiny spread on a
    large mean needs. Left out of ``__all__`` for the reason
    :func:`is_constant` is.
    """
    scales = np.ldexp(1.0, np.frexp(np.maximum(x.max(axis=0), -x.min(axis=0)))[1] - 1)
    x /= scales
    means = x.mean(axis=0)
    x -= means
    shift = x.mean(axis=0)
    x -= shift
    return (means + shift) * scales, scales


def check_scale(a: np.ndarray, label) -> None:
    """Raise ValueError naming ``label(j)`` for the first column j of ``a``
    whose largest |value| is nonzero and outside [2^-200, 2^200]. Squares,
    inverses and products of such scales stay finite, so a fit whose
    columns pass never overflows for a column's scale alone.

    Left out of ``__all__`` for the reason :func:`is_constant` is.
    """
    big = np.abs(a).max(axis=0)
    bad = np.flatnonzero((big > _SCALE_MAX) | ((big > 0.0) & (big < 1.0 / _SCALE_MAX)))
    if bad.size:
        j = int(bad[0])
        raise ValueError(
            f"{label(j)} has largest |value| {big[j]:.3g}, outside the 2^-200 to 2^200 "
            "(about 6.2e-61 to 1.6e60) the fitters accept; rescale it"
        )


def check_rank(r: np.ndarray) -> None:
    """Raise :class:`RankDeficiencyError` carrying the first column of the
    square R factor ``r`` whose pivot is at most 1e-12 times that column's
    own norm: that column is numerically a combination of the columns
    before it. The rule does not change when a column is rescaled.

    Left out of ``__all__`` for the reason :func:`is_constant` is.
    """
    # R is upper triangular, so column j's norm is ||R[:j+1, j]||, the
    # norm of the column it factors
    pivots = np.abs(np.diag(r))
    bad = np.flatnonzero(pivots <= _RANK_TOL * np.linalg.norm(r, axis=0))
    if bad.size:
        j = int(bad[0])
        raise RankDeficiencyError(
            f"design column {j} is collinear with the preceding columns", column=j
        )
