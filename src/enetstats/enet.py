"""Elastic-net regularization paths by cyclic coordinate descent.

Fits single-response (gaussian) and multi-response grouped (mgaussian)
models along a decreasing lambda grid with warm starts. The objective for
an N x p design ``x``, N x K responses ``y``, coefficients ``b`` and
intercepts ``b0`` is::

    (1 / (2N)) * ||y - 1 b0' - x b||_F^2
        + lambda * sum_j [ (1 - alpha)/2 * ||b_j||_2^2 + alpha * ||b_j||_2 ]

where ``b_j`` is predictor j's coefficient row across the K responses; for
K = 1 the row norm is an absolute value and the penalty is the classic
elastic net. The loss carries the 1/(2N) scaling so lambda values are
comparable across sample sizes.

The solver assumes the columns of ``x`` arrive standardized (dataprep owns
scaling) and never rescales; with ``fit_intercept`` the intercept is
profiled out exactly by centering working copies, and recovered as
``mean(y) - mean(x) @ b``.

One function prepares every fit: it rejects a constant predictor (by its
spread, max == min) and constant responses before any lambda is tried,
and forms the working copies. The default lambda grid is read off the
C = X'Y/N the fit forms anyway, so :func:`default_lambda_grid` and the
fitters share one grid rule, and the fit reports its deviance ratio
itself.

One kernel serves every K. It uses the covariance updates of Friedman,
Hastie & Tibshirani (2010, J. Stat. Softw. 33(1), section 2.2): each fit
forms G = X'X/N and C = X'Y/N once from the centered data, so a coordinate
update costs O(pK) whatever N is. The row update is the blockwise
multiresponse step of Simon, Friedman & Hastie (2013, arXiv:1311.6529)::

    b_j <- S(g_j + G_jj b_j, lambda * alpha) / (G_jj + lambda * (1 - alpha))

with gradient g = C - G b and S the group soft threshold (the scalar one
when K = 1). Each pass recomputes g exactly, so rounding from the running
updates never accumulates, and reads the stationarity residual of every
predictor off it (the certificate :func:`kkt_check` applies). The solver
stops at a lambda as soon as the largest residual is at most
``EnetConfig.tol``; that certificate is the only stopping rule.

Otherwise the pass either finds the active set or solves it. Cyclic sweeps
over the rows that are nonzero or violate their condition find it. Once a
sweep has been made at this lambda and every zero row satisfies its
condition, the pass is instead a Newton step on the nonzero rows, where
the objective is smooth; it is kept only if no row becomes zero and the
objective does not increase, else the pass falls back to the sweep. On
correlated designs, where sweeps converge slowly, this takes the pass
count per lambda from tens to a few.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, is_constant

__all__ = [
    "ConvergenceError",
    "EnetConfig",
    "EnetPath",
    "KktReport",
    "objective",
    "default_lambda_grid",
    "fit_gaussian_path",
    "fit_mgaussian_path",
    "kkt_check",
]

# Stationarity level every returned solution meets; EnetConfig.tol may not
# exceed it.
KKT_TOL = 1e-6


class ConvergenceError(RuntimeError):
    """Coordinate descent hit the pass budget at some lambda."""

    def __init__(self, lambda_index: int, max_iter: int):
        super().__init__(
            f"coordinate descent did not converge within {max_iter} passes "
            f"at lambda index {lambda_index}"
        )
        self.lambda_index = lambda_index


@dataclass(frozen=True)
class EnetConfig:
    """Solver settings; ``lambda_min_ratio=None`` resolves from the data
    (1e-4 when N > p, else 1e-2).

    ``tol`` bounds the stationarity certificate itself: a solution is
    accepted once every predictor's residual (see :func:`kkt_check`) is at
    most ``tol``, so it may not exceed ``KKT_TOL``. ``max_iter`` caps the
    passes per lambda, cyclic sweeps and Newton steps alike.
    """

    alpha: float = 0.5
    nlambda: int = 100
    lambda_min_ratio: float | None = None
    tol: float = 1e-7
    max_iter: int = 100_000
    fit_intercept: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if self.nlambda < 2:
            raise ValueError(f"nlambda must be >= 2, got {self.nlambda!r}")
        if self.lambda_min_ratio is not None and not 0.0 < self.lambda_min_ratio < 1.0:
            raise ValueError(
                f"lambda_min_ratio must lie in (0, 1), got {self.lambda_min_ratio!r}"
            )
        if not 0.0 < self.tol <= KKT_TOL:
            raise ValueError(f"tol must lie in (0, {KKT_TOL:g}], got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")


@dataclass
class EnetPath:
    """Per-lambda solutions of one elastic-net fit.

    ``coefs`` has shape (L, p, K) and ``intercepts`` (L, K); ``dev_ratio``
    is the fraction of deviance explained, 1 - RSS / TSS with TSS taken
    about the column means of y; ``nonzero`` counts predictors whose whole
    coefficient row is nonzero. ``n_passes`` counts the solver's passes at
    each lambda (Newton steps included) and ``kkt_max`` is the certificate
    each solution met, at most ``EnetConfig.tol``.
    """

    lambdas: np.ndarray
    coefs: np.ndarray
    intercepts: np.ndarray
    dev_ratio: np.ndarray
    nonzero: np.ndarray
    n_passes: np.ndarray = field(repr=False)
    kkt_max: np.ndarray = field(repr=False)

    @property
    def n_lambdas(self) -> int:
        return len(self.lambdas)


@dataclass(frozen=True)
class KktReport:
    """Stationarity diagnostic: worst violation and offending predictors."""

    max_violation: float
    violations: list[int]


def _penalty(b: np.ndarray, alpha: float) -> float:
    row_norms = np.sqrt((b * b).sum(axis=1))
    return float(
        (1.0 - alpha) / 2.0 * float((row_norms * row_norms).sum())
        + alpha * float(row_norms.sum())
    )


def objective(x, y, b, b0, lam: float, alpha: float) -> float:
    """Penalized least-squares objective at a candidate solution."""
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    b = as_matrix(b, "b")
    b0 = np.atleast_1d(np.asarray(b0, dtype=float))
    n, p = x.shape
    k = y.shape[1]
    if y.shape[0] != n or b.shape != (p, k) or b0.shape != (k,):
        raise ValueError(
            f"shapes do not conform: x {x.shape}, y {y.shape}, b {b.shape}, b0 {b0.shape}"
        )
    resid = y - b0 - x @ b
    return float((resid * resid).sum()) / (2.0 * n) + lam * _penalty(b, alpha)


def default_lambda_grid(x, y, config: EnetConfig | None = None) -> np.ndarray:
    """The grid the path fitters build when no explicit one is supplied.

    ``nlambda`` values spaced geometrically from lambda_max down to
    lambda_max * lambda_min_ratio, where lambda_max = max_j ||C_j||_2 / alpha
    for C = X'Y/N formed from the working copies the fit uses (centered
    when ``fit_intercept``) is the smallest lambda at which the all-zero
    solution is stationary (Friedman, Hastie & Tibshirani 2010, section
    2.5). Pure ridge has no finite path start, so alpha must be positive.
    """
    cfg = config if config is not None else EnetConfig()
    xw, yw, _, _ = _working_copies(x, as_matrix(y, "y"), cfg)
    n = xw.shape[0]
    return _lambda_grid(xw.T @ yw / n, n, cfg)


def fit_gaussian_path(x, y, config: EnetConfig | None = None, lambdas=None) -> EnetPath:
    """Single-response elastic-net path.

    Parameters
    ----------
    x : (N, p) array
        Standardized design; the solver does not rescale.
    y : (N,) or (N, 1) array
        Response. Centered internally when ``fit_intercept`` is set.
    config : EnetConfig, optional
    lambdas : sequence of float, optional
        Explicit strictly decreasing grid; required for alpha = 0.

    Returns
    -------
    EnetPath with coefficient shape (L, p, 1).
    """
    cfg = config if config is not None else EnetConfig()
    y = as_matrix(y, "y")
    if y.shape[1] != 1:
        raise ValueError(f"gaussian fit expects a single response, got {y.shape[1]}")
    return _fit_path(x, y, cfg, lambdas)


def fit_mgaussian_path(x, y, config: EnetConfig | None = None, lambdas=None) -> EnetPath:
    """Multi-response grouped elastic-net path.

    A predictor is dropped when its entire coefficient row across the K
    responses is zero. Both fitters run the same kernel, so with K = 1
    results match :func:`fit_gaussian_path` bit for bit.
    """
    cfg = config if config is not None else EnetConfig()
    y = as_matrix(y, "y")
    return _fit_path(x, y, cfg, lambdas)


def kkt_check(x, y, b, b0, lam: float, alpha: float, tol: float = KKT_TOL) -> KktReport:
    """Stationarity certificate for a candidate solution.

    Zero rows need ||(1/N) x_j'(y - yhat)||_2 <= lam * alpha + tol; nonzero
    rows need the full subgradient residual below tol. The residuals are
    the ones the solver stops on. Diagnostic only: violations are
    reported, never raised.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    b = as_matrix(b, "b")
    b0 = np.atleast_1d(np.asarray(b0, dtype=float))
    grad = x.T @ (y - b0 - x @ b) / x.shape[0]
    residuals = _stationarity(grad, b, lam, alpha)
    return KktReport(
        max_violation=float(residuals.max(initial=0.0)),
        violations=np.flatnonzero(residuals > tol).tolist(),
    )


# ---------------------------------------------------------------------------
# solver internals


def _stationarity(grad: np.ndarray, b: np.ndarray, lam: float, alpha: float) -> np.ndarray:
    """Per-predictor stationarity residuals of ``b`` given the gradient
    ``grad = (1/N) x'(y - yhat)``.

    A zero row j is stationary when ||grad_j||_2 <= lam * alpha, a nonzero
    row when grad_j = lam * ((1 - alpha) + alpha / ||b_j||_2) * b_j; entry j
    is the Euclidean amount by which row j misses its condition.
    """
    norms = np.sqrt(np.einsum("jk,jk->j", b, b))
    zero = norms == 0.0
    inactive = np.maximum(np.sqrt(np.einsum("jk,jk->j", grad, grad)) - lam * alpha, 0.0)
    shrink = lam * (1.0 - alpha) + lam * alpha / np.where(zero, 1.0, norms)
    miss = grad - shrink[:, None] * b
    return np.where(zero, inactive, np.sqrt(np.einsum("jk,jk->j", miss, miss)))


def _working_copies(x, y: np.ndarray, cfg: EnetConfig):
    """Reject data no fit can use and return the working copies ``xw`` and
    ``yw`` (centered when ``cfg.fit_intercept``) with the offsets removed.

    Constancy is judged by :func:`~enetstats.linalg.is_constant`.
    """
    x = as_matrix(x, "x")
    n, p = x.shape
    if y.shape[0] != n:
        raise ValueError(f"x has {n} rows but y has {y.shape[0]}")
    flat = np.flatnonzero(is_constant(x))
    if flat.size:
        raise ValueError(f"predictor column {int(flat[0])} is constant")
    if np.all(is_constant(y)):
        raise ValueError("responses are constant; deviance ratio is undefined")
    if cfg.fit_intercept:
        x_off = x.mean(axis=0)
        y_off = y.mean(axis=0)
    else:
        x_off = np.zeros(p)
        y_off = np.zeros(y.shape[1])
    return x - x_off, y - y_off, x_off, y_off


def _lambda_grid(cov: np.ndarray, n: int, cfg: EnetConfig) -> np.ndarray:
    """:func:`default_lambda_grid` from C = X'Y/N of the working copies."""
    if cfg.alpha <= 0:
        raise ValueError(
            "alpha = 0 has no finite lambda_max; supply an explicit lambda path"
        )
    lam_max = float(np.sqrt((cov * cov).sum(axis=1)).max()) / cfg.alpha
    if lam_max <= 0:
        raise ValueError(
            "every predictor is uncorrelated with the response; "
            "no data-driven lambda grid exists"
        )
    ratio = cfg.lambda_min_ratio
    if ratio is None:
        ratio = 1e-4 if n > cov.shape[0] else 1e-2
    return np.geomspace(lam_max, lam_max * ratio, cfg.nlambda)


def _fit_path(x, y: np.ndarray, cfg: EnetConfig, lambdas) -> EnetPath:
    xw, yw, x_off, y_off = _working_copies(x, y, cfg)
    n, p = xw.shape
    k = yw.shape[1]
    gram = xw.T @ xw / n
    cov = xw.T @ yw / n

    if lambdas is None:
        lams = _lambda_grid(cov, n, cfg)
    else:
        lams = np.asarray(lambdas, dtype=float)
        if lams.ndim != 1 or lams.size < 1:
            raise ValueError("lambdas must be a nonempty 1-D sequence")
        if np.any(lams < 0) or not np.all(np.isfinite(lams)):
            raise ValueError("lambdas must be finite and nonnegative")
        if lams.size > 1 and not np.all(np.diff(lams) < 0):
            raise ValueError("lambdas must be strictly decreasing")

    n_lams = lams.size
    b = np.zeros((p, k))
    coefs = np.empty((n_lams, p, k))
    intercepts = np.empty((n_lams, k))
    nonzero = np.empty(n_lams, dtype=np.int64)
    rss = np.empty(n_lams)
    n_passes = np.empty(n_lams, dtype=np.int64)
    kkt_max = np.empty(n_lams)

    for i, lam in enumerate(lams):
        n_passes[i], kkt_max[i] = _descend(gram, cov, b, float(lam), cfg)
        if kkt_max[i] > cfg.tol:
            raise ConvergenceError(i, cfg.max_iter)
        resid = yw - xw @ b
        rss[i] = float((resid * resid).sum())
        coefs[i] = b
        intercepts[i] = y_off - x_off @ b
        nonzero[i] = int(np.count_nonzero(np.any(b != 0.0, axis=1)))

    centered = y - y.mean(axis=0)
    return EnetPath(
        lambdas=lams,
        coefs=coefs,
        intercepts=intercepts,
        dev_ratio=1.0 - rss / float((centered * centered).sum()),
        nonzero=nonzero,
        n_passes=n_passes,
        kkt_max=kkt_max,
    )


def _descend(
    gram: np.ndarray, cov: np.ndarray, b: np.ndarray, lam: float, cfg: EnetConfig
) -> tuple[int, float]:
    """Coordinate descent at one lambda, warm-started from ``b`` and
    updating it in place.

    Returns the passes made (Newton steps included) and the final
    certificate, the largest stationarity residual; the solution is
    accepted when that is at most ``cfg.tol``, which fails only once
    ``cfg.max_iter`` passes are spent.
    """
    gamma = lam * cfg.alpha
    diag = gram.diagonal().tolist()
    denom = (gram.diagonal() + lam * (1.0 - cfg.alpha)).tolist()
    grad = cov - gram @ b
    passes = 0
    cycled = False
    while True:
        residuals = _stationarity(grad, b, lam, cfg.alpha)
        kkt = float(residuals.max(initial=0.0))
        if kkt <= cfg.tol or passes == cfg.max_iter:
            return passes, kkt
        passes += 1
        active = b.any(axis=1)
        # once a pass has found a support that no zero row wants to leave,
        # try to solve it outright
        if cycled and not np.any(residuals[~active] > cfg.tol):
            stepped = _newton_step(gram, cov, b, grad, np.flatnonzero(active), lam, cfg.alpha)
            if stepped is not None:
                grad = stepped
                continue
        # zero rows that satisfy their condition would stay zero; skip them
        rows = np.flatnonzero(active | (residuals > cfg.tol))
        for j in rows.tolist():
            bj = b[j]
            u = grad[j] + diag[j] * bj
            nrm = math.sqrt(u @ u)
            new = u * ((1.0 - gamma / nrm) / denom[j]) if nrm > gamma else np.zeros_like(u)
            # gram is symmetric: its contiguous row j is column j
            grad -= gram[j][:, None] * (new - bj)
            bj[:] = new
        cycled = True
        grad = cov - gram @ b


def _newton_step(
    gram: np.ndarray,
    cov: np.ndarray,
    b: np.ndarray,
    grad: np.ndarray,
    rows: np.ndarray,
    lam: float,
    alpha: float,
) -> np.ndarray | None:
    """Safeguarded Newton step on the nonzero ``rows`` of ``b``, in place.

    While those rows stay nonzero the objective restricted to them is
    smooth, with gradient -miss (the stationarity miss of
    :func:`_stationarity`) and Hessian (G_AA + diag(c)) (x) I_K minus
    sum_j w_j (e_j e_j' (x) u_j u_j'), where u_j = b_j / ||b_j||,
    w_j = lam * alpha / ||b_j|| and c_j = lam * (1 - alpha) + w_j (the
    shrink factor of :func:`_stationarity`). The system is solved by the
    Woodbury identity with one m x m inverse and one m x m capacitance
    solve, m = len(rows), written so that w = 0 (alpha = 0) simply drops
    the rank term; for K = 1 the terms cancel to G_AA + lam * (1 - alpha) I.

    Returns the exact gradient at the new iterate, or None, with ``b``
    untouched, when the system is singular or the step would zero a row
    or raise the objective.
    """
    ba = b[rows]
    norms = np.sqrt(np.einsum("jk,jk->j", ba, ba))
    if not np.all(norms > 0.0):
        return None
    w = lam * alpha / norms
    shrink = lam * (1.0 - alpha) + w
    miss = grad[rows] - shrink[:, None] * ba
    u = ba / norms[:, None]
    try:
        inv = np.linalg.inv(gram[np.ix_(rows, rows)] + np.diag(shrink))
        z = inv @ miss
        capacitance = np.eye(rows.size) - inv * (u @ u.T) * w
        s = np.linalg.solve(capacitance, np.einsum("jk,jk->j", u, z))
    except np.linalg.LinAlgError:
        return None
    new = ba + z + inv @ ((w * s)[:, None] * u)
    if not np.all(np.isfinite(new)) or not np.all(new.any(axis=1)):
        return None
    b[rows] = new
    new_grad = cov - gram @ b
    # objective up to a constant: 1/2 b'Gb - C'b = -1/2 b.(C + g)
    before = -0.5 * float(np.vdot(ba, cov[rows] + grad[rows])) + lam * _penalty(ba, alpha)
    after = -0.5 * float(np.vdot(new, cov[rows] + new_grad[rows])) + lam * _penalty(new, alpha)
    if not after <= before:
        b[rows] = ba
        return None
    return new_grad
