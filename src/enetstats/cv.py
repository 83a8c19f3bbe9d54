"""Deterministic k-fold cross-validation over a shared lambda grid.

Fold assignment must reproduce bit for bit on every platform, so it avoids
host RNGs entirely. The generator is splitmix64 (64-bit arithmetic, all
operations mod 2**64)::

    state  = (state + 0x9E3779B97F4A7C15) mod 2**64
    z      = state
    z      = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z      = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    output = z XOR (z >> 31)

A Fisher-Yates shuffle of 0..n-1 (drawing j = output mod (i + 1) for
i = n-1 .. 1) permutes the observations, and the permuted order is dealt
round-robin into folds: position t goes to fold t mod k. The README
restates this contract verbatim; tests pin it.

Every fold refit reuses the lambda grid computed on the full data, so
held-out errors are comparable across folds at each grid point. The
fitter judges whether a training slice can be fitted at all; its
rejection of a constant predictor or response, and its failure to
converge, are re-raised as a :class:`CvError` naming the fold. Fold
refits are independent of one another; aggregation always reduces in fold
order, so results do not depend on any execution schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .enet import ConvergenceError, EnetConfig, default_lambda_grid, fit_mgaussian_path
from .linalg import RankDeficiencyError, as_matrix

__all__ = ["CvError", "FoldAssignment", "CvResult", "make_folds", "cross_validate"]

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


class CvError(RuntimeError):
    """Cross-validation could not be carried out; carries the fold index
    and, when a training slice has a constant predictor, that column's
    index."""

    def __init__(self, message: str, fold: int | None = None, column: int | None = None):
        super().__init__(message)
        self.fold = fold
        self.column = column


@dataclass(frozen=True)
class FoldAssignment:
    """Fold index per observation, plus the (k, seed) that produced it."""

    assignment: np.ndarray
    k: int
    seed: int


@dataclass(frozen=True)
class CvResult:
    """CV error curve over the master lambda grid and the selected grid
    indices; the grid is the one :func:`~enetstats.enet.fit_mgaussian_path`
    builds from the same data, so the indices address its path too."""

    lambdas: np.ndarray
    mean_error: np.ndarray
    se_error: np.ndarray
    i_min: int
    i_1se: int

    @property
    def lambda_min(self) -> float:
        return float(self.lambdas[self.i_min])

    @property
    def lambda_1se(self) -> float:
        return float(self.lambdas[self.i_1se])


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return state, z ^ (z >> 31)


def make_folds(n: int, k: int, seed: int) -> FoldAssignment:
    """Deal n observations into k folds whose sizes differ by at most one.

    Same (n, k, seed) gives the identical assignment on every platform; see
    the module docstring for the exact generator contract.
    """
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k!r}")
    if k > n:
        raise ValueError(f"cannot split {n} observations into {k} folds")
    perm = list(range(n))
    state = seed & _MASK64
    for i in range(n - 1, 0, -1):
        state, draw = _splitmix64(state)
        j = draw % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    assignment = np.empty(n, dtype=np.int64)
    assignment[perm] = np.arange(n) % k
    return FoldAssignment(assignment=assignment, k=k, seed=seed)


def cross_validate(x, y, config: EnetConfig, folds: FoldAssignment) -> CvResult:
    """K-fold CV error curve with lambda.min / lambda.1se selection.

    The per-fold held-out error is the mean over held-out observations of
    the squared prediction error summed across responses. ``lambda_min``
    minimizes the mean curve (ties broken toward the larger lambda) and
    ``lambda_1se`` is the largest lambda whose mean error stays within one
    standard error of that minimum. A failed fold raises :class:`CvError`
    with its ``fold`` and, for a constant predictor, its ``column`` in ``x``.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    n = x.shape[0]
    if folds.assignment.shape != (n,):
        raise ValueError(
            f"fold assignment covers {folds.assignment.shape[0]} observations, data has {n}"
        )
    bad = np.flatnonzero((folds.assignment < 0) | (folds.assignment >= folds.k))
    if bad.size:
        i, f = int(bad[0]), int(folds.assignment[bad[0]])
        raise ValueError(f"observation {i} is assigned to fold {f}; folds run 0..{folds.k - 1}")
    counts = np.bincount(folds.assignment, minlength=folds.k)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise CvError(f"fold {int(empty[0])} holds no observations", fold=int(empty[0]))

    lambdas = default_lambda_grid(x, y, config)
    fold_errors = np.empty((folds.k, lambdas.size))

    for f in range(folds.k):
        train = folds.assignment != f
        try:
            path = fit_mgaussian_path(x[train], y[train], config, lambdas=lambdas)
        except ConvergenceError as exc:
            raise CvError(f"fold {f}: {exc}", fold=f) from None
        except ValueError as exc:  # the fitter's rejection of degenerate data
            column = exc.column if isinstance(exc, RankDeficiencyError) else None
            raise CvError(f"fold {f}: training slice: {exc}", fold=f, column=column) from None
        x_held = x[~train]
        err = y[~train] - (x_held @ path.coefs + path.intercepts[:, None, :])
        fold_errors[f] = np.einsum("lik,lik->l", err, err) / x_held.shape[0]

    mean_error = fold_errors.mean(axis=0)
    se_error = fold_errors.std(axis=0, ddof=1) / math.sqrt(folds.k)

    i_min = int(np.argmin(mean_error))  # first occurrence = largest lambda
    threshold = mean_error[i_min] + se_error[i_min]
    i_1se = int(np.flatnonzero(mean_error <= threshold)[0])
    return CvResult(
        lambdas=lambdas,
        mean_error=mean_error,
        se_error=se_error,
        i_min=i_min,
        i_1se=i_1se,
    )
