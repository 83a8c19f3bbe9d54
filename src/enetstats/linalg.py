"""Small dense linear algebra with the package's error vocabulary.

numpy supplies the factorization; this module holds the three checks the
statistical layers build their diagnostics on:

* one array validator (:func:`as_matrix`), which every layer takes its
  inputs through, so a malformed or non-finite argument is named;
* one constancy rule (:func:`is_constant`): a column is constant when
  its largest and smallest entries are equal. A centered sum of squares
  need not come out 0 for such a column when its mean is inexact;
* one rank-checked thin QR (:func:`thin_qr`), from which every regression
  statistic is read, so upstream collinearity surfaces here as a rank
  failure naming the first dependent column.

Problems in this package stay small (~100 columns at most), so everything
is dense and unblocked.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DimensionError",
    "RankDeficiencyError",
    "as_matrix",
    "thin_qr",
]

_RANK_TOL = 1e-12


class DimensionError(ValueError):
    """Operand shapes do not conform."""


class RankDeficiencyError(ValueError):
    """A design matrix has numerically collinear columns."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a validated 2-D float array.

    1-D input becomes a single column. Rejects input without rows and any
    non-finite entry; zero columns are allowed (an intercept-only design
    has no predictor columns).
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise DimensionError(f"{name} must have at least one row")
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


def thin_qr(x) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factors (Q, R) of ``x``, which needs rows >= columns.

    A pivot of R at most 1e-12 times the largest one raises
    :class:`RankDeficiencyError` carrying the first such column, which is
    numerically a combination of the columns before it.
    """
    x = as_matrix(x, "x")
    if x.shape[0] < x.shape[1]:
        raise DimensionError(
            f"need rows >= columns, got {x.shape[0]} rows for {x.shape[1]} columns"
        )
    q, r = np.linalg.qr(x)
    diag = np.abs(np.diag(r))
    bad = np.flatnonzero(diag <= _RANK_TOL * float(diag.max(initial=0.0)))
    if bad.size:
        j = int(bad[0])
        raise RankDeficiencyError(
            f"design column {j} is collinear with the preceding columns", column=j
        )
    return q, r
