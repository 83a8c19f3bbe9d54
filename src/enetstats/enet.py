"""Elastic-net regularization paths by working-set Newton steps.

Fits the grouped multi-response elastic net, for K >= 1 responses, along
a decreasing lambda grid, each lambda started from a prediction of its
solution. The objective for an N x p design ``x``, N x K responses ``y``,
coefficients ``b`` and intercepts ``b0`` is::

    (1 / (2N)) * ||y - 1 b0' - x b||_F^2
        + lambda * sum_j [ (1 - alpha)/2 * ||b_j||_2^2 + alpha * ||b_j||_2 ]

where ``b_j`` is predictor j's coefficient row across the K responses; for
K = 1 the row norm is an absolute value and the penalty is the classic
elastic net. The loss carries the 1/(2N) scaling so lambda values are
comparable across sample sizes.

The solver assumes the columns of ``x`` arrive standardized (dataprep owns
scaling) and never rescales; the intercept is always profiled out exactly
by centering working copies, and recovered as ``mean(y) - mean(x) @ b``.

One function prepares every fit: it rejects a constant predictor (by its
spread, max == min) and constant responses before any lambda is tried,
and forms the working copies. The default lambda grid is read off the
C = X'Y/N the fit forms anyway, so :func:`default_lambda_grid` and
:func:`fit_mgaussian_path` share one grid rule, and the fit reports its
deviance ratio itself.

One kernel serves every K. It uses the covariance updates of Friedman,
Hastie & Tibshirani (2010, J. Stat. Softw. 33(1), section 2.2): each fit
forms G = X'X/N and C = X'Y/N once from the centered data, so no pass
touches the N observations. The row update, the exact minimizer over one
row with the others held, is the blockwise multiresponse step of Simon,
Friedman & Hastie (2013, arXiv:1311.6529)::

    b_j <- S(g_j + G_jj b_j, lambda * alpha) / (G_jj + lambda * (1 - alpha))

with gradient g = C - G b and S the group soft threshold (the scalar one
when K = 1). Each pass recomputes g exactly and reads the stationarity
residual of every predictor off it (the certificate :func:`kkt_check`
applies); the solver stops at a lambda as soon as the largest residual
is at most ``EnetConfig.tol``, its only stopping rule.

Otherwise the pass grows the working set and solves it. Every zero row
that violates its condition is admitted at once, at its own row update
from the current g (b_j = 0), and one Newton step then runs on the
nonzero rows, where the objective is smooth: the working-set admission of
newGLMNET (Yuan, Ho & Lin 2012, JMLR 13) and Celer (Massias, Gramfort &
Salmon 2018). The certificate damps the step, so it exists on a singular
support, and keeps it only if it falls below its value mu before the
admission; a row the step carries past zero is set to zero, and if the
certificate rejects that the step stops at the first crossing instead.
A rejected step is retried with more damping; if every try fails, the
pass instead makes the row update of the row with the largest residual
(the Gauss-Southwell rule; Tseng & Yun 2009, Math. Program. 117), an
exact minimization over that row, so such a pass never raises the
objective. No per-row loop remains; on correlated designs the passes per
lambda fall from tens to a few.

The path is a predictor-corrector (Park & Hastie 2007, JRSS-B 69(4)).
Differentiating the stationarity condition on the support in lambda gives
the tangent d = H^-1 (c o b_A) = -db/dlog(lambda), where H is the Newton
step's Hessian and c the shrink factors; each Newton step pushes c o b_A
through the inverse it already forms, so the tangent costs no extra
factorization or certificate. As c is proportional to lambda, the path
keeps d / lambda, which varies smoothly, and its predictor is multistep,
as in numerical continuation (Allgower & Georg 1990, ch. 2): with P the
Lagrange polynomial in log lambda through the last PREDICTOR_NODES such
nodes on the current support (cleared when the support changes), the
next lambda starts from b_A + integral of P(log l) dl over
[lambda, lambda_prev], which for one node is b_A + (1 - lambda /
lambda_prev) d. A row the move carries past zero is set to zero, and the
passes there only correct that prediction: a lambda whose predicted start
meets the certificate takes no pass at all, and then adds no node. The
tangent of a step that admitted rows covers them too, and a row zeroed
since stays zero in the prediction.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, check_scale, is_constant

__all__ = [
    "ConvergenceError",
    "EnetConfig",
    "EnetPath",
    "default_lambda_grid",
    "fit_mgaussian_path",
    "kkt_check",
]

# Stationarity level every returned solution meets; EnetConfig.tol may not
# exceed it.
KKT_TOL = 1e-6

# Tangent nodes the path predictor extrapolates from; 4 took the fewest
# passes on the demo and tall paths, against 2, 3 and 5.
PREDICTOR_NODES = 4
# (node, weight) pairs of the 3-point Gauss-Legendre rule on [-1, 1]
_GAUSS_LEGENDRE_3 = ((-math.sqrt(0.6), 5 / 9), (0.0, 8 / 9), (math.sqrt(0.6), 5 / 9))


class ConvergenceError(RuntimeError):
    """The path solver hit the pass budget at some lambda."""

    def __init__(self, lambda_index: int, max_iter: int):
        super().__init__(
            f"the path solver did not converge within {max_iter} passes "
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
    corrector passes per lambda, each one Newton step with its retries or
    one row update; the predicted start is not a pass. ``alpha`` is 0 or
    in [2^-200, 1]: inside :func:`~enetstats.linalg.check_scale`'s window,
    lambda_max = max_j ||C_j|| / alpha stays finite.
    """

    alpha: float = 0.5
    nlambda: int = 100
    lambda_min_ratio: float | None = None
    tol: float = 1e-7
    max_iter: int = 10_000

    def __post_init__(self) -> None:
        if not (self.alpha == 0.0 or 2.0**-200 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must be 0 or lie in [2^-200, 1], got {self.alpha!r}")
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
    coefficient row is nonzero. ``n_passes`` counts the solver's corrector
    passes at each lambda (see ``EnetConfig.max_iter``), 0 where the
    predicted start already met the certificate, and ``kkt_max`` is the
    certificate each solution met, at most ``EnetConfig.tol``.
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


def default_lambda_grid(x, y, config: EnetConfig) -> np.ndarray:
    """The grid :func:`fit_mgaussian_path` builds when given no explicit one.

    ``nlambda`` values spaced geometrically from lambda_max down to
    lambda_max * lambda_min_ratio, where lambda_max = max_j ||C_j||_2 / alpha
    for C = X'Y/N formed from the centered working copies the fit uses is
    the smallest lambda at which the all-zero solution is stationary
    (Friedman, Hastie & Tibshirani 2010, section 2.5). Pure ridge has no
    finite path start, so alpha must be positive.
    """
    xw, yw, _, _ = _working_copies(x, y)
    n = xw.shape[0]
    return _lambda_grid(xw.T @ yw / n, n, config)


def fit_mgaussian_path(x, y, config: EnetConfig | None = None, lambdas=None) -> EnetPath:
    """Grouped elastic-net path of an N x p standardized design ``x``,
    which the solver does not rescale, and N x K responses ``y``, K >= 1
    (a 1-D ``y`` is one column); at K = 1 it is the classic elastic net.
    A predictor is dropped when its entire coefficient row is zero, and
    the intercepts are always fitted. ``lambdas``, an explicit strictly
    decreasing grid, is required for alpha = 0. The returned
    :class:`EnetPath` has coefficient shape (L, p, K).
    """
    cfg = config if config is not None else EnetConfig()
    xw, yw, x_off, y_off = _working_copies(x, y)
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
    n_passes = np.empty(n_lams, dtype=np.int64)
    kkt_max = np.empty(n_lams)

    grid = lams.tolist()
    rows, nodes = None, deque(maxlen=PREDICTOR_NODES)  # the support, its tangents
    for i, lam in enumerate(grid):
        if nodes:  # predictor: integrate the extrapolated tangents to this lambda
            start = b[rows]
            moved = start.copy()
            for weight, (_, d) in zip(_node_weights(nodes, grid[i - 1], lam), nodes):
                moved += weight * d
            moved[np.einsum("jk,jk->j", start, moved) <= 0.0] = 0.0
            b[rows] = moved
        n_passes[i], kkt_max[i], tangent = _descend(gram, cov, b, lam, cfg)
        if kkt_max[i] > cfg.tol:
            raise ConvergenceError(i, cfg.max_iter)
        coefs[i] = b
        if tangent is not None and lam > 0.0:
            if rows is None or not np.array_equal(tangent[0], rows):
                rows = tangent[0]
                nodes.clear()
            nodes.append((math.log(lam), tangent[1] / lam))

    # RSS / N = y'y / N - 2 <C, B> + <B, G B>, for every lambda at once
    fit = np.einsum("ljk,ljk->l", coefs, 2.0 * cov - gram @ coefs)
    tss = float((yw * yw).sum())
    rss = tss - n * fit
    return EnetPath(
        lambdas=lams,
        coefs=coefs,
        intercepts=y_off - x_off @ coefs,
        dev_ratio=1.0 - rss / tss,
        nonzero=np.count_nonzero(coefs.any(axis=2), axis=1),
        n_passes=n_passes,
        kkt_max=kkt_max,
    )


# read by perfbench/worker.py until the benchmark change of ROADMAP item 1
fit_gaussian_path = fit_mgaussian_path


def kkt_check(x, y, b, b0, lam: float, alpha: float) -> np.ndarray:
    """Stationarity certificate for a candidate solution: each predictor's
    residual, the one the solver stops on; the solution is certified when
    none exceeds KKT_TOL. Zero rows need ||(1/N) x_j'(y - yhat)||_2 <= lam *
    alpha + KKT_TOL; nonzero rows need the full subgradient residual below
    KKT_TOL. Diagnostic only: violations are returned, never raised.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    b = as_matrix(b, "b")
    b0 = np.atleast_1d(np.asarray(b0, dtype=float))
    grad = x.T @ (y - b0 - x @ b) / x.shape[0]
    return _stationarity(grad, b, lam, alpha)


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


def _working_copies(x, y):
    """Validate ``y`` (a 1-D ``y`` is one column), then ``x``, reject data
    no fit can use and return the centered working copies ``xw`` and ``yw``
    with the offsets, the column means, removed.

    Constancy is judged by :func:`~enetstats.linalg.is_constant`, and a
    column's scale by :func:`~enetstats.linalg.check_scale`.
    """
    y = as_matrix(y, "y")
    x = as_matrix(x, "x")
    n = x.shape[0]
    if y.shape[0] != n:
        raise ValueError(f"x has {n} rows but y has {y.shape[0]}")
    flat = np.flatnonzero(is_constant(x))
    if flat.size:
        raise ValueError(f"predictor column {int(flat[0])} is constant")
    if np.all(is_constant(y)):
        raise ValueError("responses are constant; deviance ratio is undefined")
    check_scale(x, lambda j: f"predictor column {j}")
    check_scale(y, lambda j: f"response column {j}")
    x_off = x.mean(axis=0)
    y_off = y.mean(axis=0)
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


def _descend(
    gram: np.ndarray, cov: np.ndarray, b: np.ndarray, lam: float, cfg: EnetConfig
) -> tuple[int, float, tuple[np.ndarray, np.ndarray] | None]:
    """Corrector passes at one lambda, started from ``b`` (the predicted
    or warm start) and updating it in place.

    Each pass admits the zero rows that violate their condition at their
    row updates and takes one :func:`_newton_step` with them, accepted
    when the certificate falls below mu, its value at the pass's start. A
    rejected step is retried with the damping at 10, 100, ... 1e11 times
    mu. When every try is rejected, the admitted rows go back to zero and
    the row with the largest residual takes its :func:`_row_update`.

    Returns the passes made, the final certificate (the largest
    stationarity residual), and the ``(rows, d)`` tangent of the last
    accepted Newton step, admitted rows included, or None when no step
    was accepted. The solution is accepted when the certificate is
    at most ``cfg.tol``, which fails only once ``cfg.max_iter`` passes are
    spent.
    """
    gamma = lam * cfg.alpha
    ridge = lam * (1.0 - cfg.alpha)
    grad = cov - gram @ b
    residuals = _stationarity(grad, b, lam, cfg.alpha)
    passes = 0
    tangent = None
    while True:
        kkt = float(residuals.max(initial=0.0))
        if kkt <= cfg.tol or passes == cfg.max_iter:
            return passes, kkt, tangent
        passes += 1
        # zero rows that satisfy their condition would stay zero; skip them
        enter = np.flatnonzero(~b.any(axis=1) & (residuals > cfg.tol))
        step_grad = grad
        if enter.size:  # every violator at once, each at its row update
            _row_update(gram, grad, b, enter, gamma, ridge)
            step_grad = cov - gram @ b
        rows = np.flatnonzero(b.any(axis=1))
        for damping in (kkt * 10.0**e for e in range(12)):
            stepped = _newton_step(gram, cov, b, step_grad, rows, lam, cfg.alpha, kkt, damping)
            if stepped is not None:
                grad, residuals, d = stepped
                tangent = rows, d
                break
        else:  # every step rejected: update the worst row alone instead
            b[enter] = 0.0
            _row_update(gram, grad, b, np.argmax(residuals, keepdims=True), gamma, ridge)
            grad = cov - gram @ b
            residuals = _stationarity(grad, b, lam, cfg.alpha)


def _node_weights(nodes, lam_prev: float, lam: float) -> list[float]:
    """Weight w_k of each ``(log lambda_k, d_k)`` tangent node such that the
    predictor's move from ``lam_prev`` to ``lam`` is sum_k w_k d_k: the
    integral over lambda in [lam, lam_prev] of the Lagrange basis
    polynomials through the nodes' log lambdas, by the 3-point
    Gauss-Legendre rule. One node gets lam_prev - lam."""
    half = 0.5 * (lam_prev - lam)
    points = [(math.log(lam + half * (1.0 + x)), half * w) for x, w in _GAUSS_LEGENDRE_3]
    ts = [t for t, _ in nodes]
    weights = []
    for k, t_k in enumerate(ts):
        others = ts[:k] + ts[k + 1 :]
        total = 0.0
        for t, basis in points:
            for t_j in others:
                basis *= (t - t_j) / (t_k - t_j)
            total += basis
        weights.append(total)
    return weights


def _row_update(gram, grad, b, rows, gamma: float, ridge: float) -> None:
    """Exact minimization over each of ``rows`` of ``b`` in place, the
    others held: b_j <- S(g_j + G_jj b_j, gamma) / (G_jj + ridge) from the
    gradient ``grad`` at ``b``; a zero argument gives a zero row."""
    diag = gram.diagonal()[rows]
    z = grad[rows] + diag[:, None] * b[rows]
    nrm = np.sqrt(np.einsum("jk,jk->j", z, z))
    keep = np.maximum(1.0 - gamma / np.where(nrm > 0.0, nrm, np.inf), 0.0)
    b[rows] = z * (keep / (diag + ridge))[:, None]


def _newton_step(
    gram: np.ndarray,
    cov: np.ndarray,
    b: np.ndarray,
    grad: np.ndarray,
    rows: np.ndarray,
    lam: float,
    alpha: float,
    mu: float,
    damping: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Damped Newton step on the nonzero ``rows`` of ``b``, in place, from
    the gradient ``grad`` at ``b``; the rows :func:`_descend` has just
    admitted are among them.

    While those rows stay nonzero the objective restricted to them is
    smooth, with gradient -miss (the stationarity miss of
    :func:`_stationarity`) and Hessian (G_AA + diag(c)) (x) I_K minus
    sum_j w_j (e_j e_j' (x) u_j u_j'), where u_j = b_j / ||b_j||,
    w_j = lam * alpha / ||b_j|| and c_j = lam * (1 - alpha) + w_j (the
    shrink factor of :func:`_stationarity`). The step solves with that
    Hessian plus ``damping`` I, ``damping`` being mu, the certificate
    before the admission, or a multiple of it (Levenberg-Marquardt; Fan &
    Yuan 2005, Computing 74), by the Woodbury identity with one m x m
    inverse and one m x m capacitance solve, m = len(rows), written so
    that w = 0 (alpha = 0) simply drops the rank term; for K = 1 the terms
    cancel to G_AA + (lam * (1 - alpha) + damping) I. A row carried past
    zero (u_j . new_j <= 0) is set to zero, as in the orthant projection
    of OWL-QN (Andrew & Gao 2007). If the
    certificate rejects that, the step is cut at the first crossing
    instead, that row set to zero: along a near-flat direction of G_AA,
    such as a column and its near copy, mu barely damps the step, which
    overshoots, and the cut moves the pair's weight onto one column. The
    same two solves also take the right-hand side c o b_A, giving the path
    tangent d = H^-1 (c o b_A) (see the module docstring).

    Returns the exact gradient and the stationarity residuals at the new
    iterate and the tangent, or None, with ``b`` untouched, when the system
    is singular or the certificate is not below mu at either point.
    """
    ba = b[rows]
    norms = np.sqrt(np.einsum("jk,jk->j", ba, ba))
    w = lam * alpha / norms
    shrink = lam * (1.0 - alpha) + w
    pull = shrink[:, None] * ba
    rhs = np.array([grad[rows] - pull, pull])  # the step's and the tangent's
    u = ba / norms[:, None]
    try:
        hess = gram.take(rows, 0)[:, rows]
        hess.flat[:: rows.size + 1] += shrink + damping
        inv = np.linalg.inv(hess)
        z = inv @ rhs
        capacitance = u @ u.T
        capacitance *= inv
        capacitance *= -w
        capacitance.flat[:: rows.size + 1] += 1.0
        s = np.linalg.solve(capacitance, np.einsum("jk,tjk->jt", u, z))
    except np.linalg.LinAlgError:
        return None
    z += inv @ ((w[:, None] * s).T[:, :, None] * u)
    if not np.isfinite(z).all():
        return None
    along = np.einsum("jk,jk->j", u, z[0])
    crossed = np.flatnonzero(norms + along <= 0.0)
    tries = [(1.0, crossed)]
    if crossed.size:
        reach = norms[crossed] / -along[crossed]
        first = int(np.argmin(reach))
        tries.append((reach[first], crossed[first]))
    for scale, dropped in tries:
        new = ba + scale * z[0]
        new[dropped] = 0.0
        b[rows] = new
        new_grad = cov - gram @ b
        residuals = _stationarity(new_grad, b, lam, alpha)
        if residuals.max(initial=0.0) < mu:
            return new_grad, residuals, z[1]
    b[rows] = ba
    return None
