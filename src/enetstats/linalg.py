"""Small dense linear algebra with the package's error vocabulary.

numpy supplies the factorizations; this module adds input validation and
the failure modes the statistical layers turn into diagnostics. Every
regression statistic is read from one rank-checked thin QR
(:func:`thin_qr`), so upstream collinearity surfaces here as a rank
failure naming the first dependent column. Problems in this package stay
small (~100 columns at most), so everything is dense and unblocked.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DimensionError",
    "NotPositiveDefiniteError",
    "RankDeficiencyError",
    "as_matrix",
    "matmul",
    "cholesky_solve",
    "thin_qr",
    "least_squares",
]

_SYMMETRY_TOL = 1e-10
_RANK_TOL = 1e-12


class DimensionError(ValueError):
    """Operand shapes do not conform."""


class NotPositiveDefiniteError(ValueError):
    """A Cholesky pivot was not positive; the matrix is not SPD."""


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


def matmul(a, b) -> np.ndarray:
    """Matrix product a @ b with dimension checking."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"cannot multiply {a.shape[0]}x{a.shape[1]} by {b.shape[0]}x{b.shape[1]}"
        )
    return a @ b


def cholesky_solve(a, b) -> np.ndarray:
    """Solve a @ X = b for symmetric positive-definite ``a``.

    Raises :class:`NotPositiveDefiniteError` when a Cholesky pivot fails,
    which callers treat as a collinearity signal rather than letting NaNs
    propagate.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionError(f"a must be square, got {a.shape}")
    if b.shape[0] != n:
        raise DimensionError(
            f"b has {b.shape[0]} rows but a is {n}x{n}"
        )
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > _SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric to the required tolerance")
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "matrix is not positive definite (often a collinearity symptom)"
        ) from exc
    z = np.linalg.solve(lower, b)
    return np.linalg.solve(lower.T, z)


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


def least_squares(x, y) -> np.ndarray:
    """Coefficients B minimizing ||y - x @ B||_F, via :func:`thin_qr`."""
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if x.shape[0] != y.shape[0]:
        raise DimensionError(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
    q, r = thin_qr(x)
    return np.linalg.solve(r, q.T @ y)
