"""Independent reference implementations used to check the package.

Everything here is deliberately written against the mathematics rather
than the library code: cofactor inverses, direct summation objectives,
the soft-threshold closed forms, a proximal-gradient minimizer, and a
hand-rolled cross-validation loop.
Keep these dumb and obvious.
"""

from __future__ import annotations

import math

import numpy as np


def det_cofactor(a) -> float:
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 0:
        return 1.0  # the empty product; makes the 1x1 adjugate [[1]]
    if n == 1:
        return float(a[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * a[0, j] * det_cofactor(minor)
    return total


def inverse_adjugate(a) -> np.ndarray:
    """Matrix inverse via the adjugate; fine up to ~6x6."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    det = det_cofactor(a)
    cof = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
            cof[i, j] = ((-1.0) ** (i + j)) * det_cofactor(minor)
    return cof.T / det


def enet_objective_direct(x, y, b, b0, lam, alpha) -> float:
    """Term-by-term elastic-net objective, all plain loops."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    b = np.asarray(b, dtype=float)
    if y.ndim == 1:
        y = y.reshape(-1, 1)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    b0 = np.atleast_1d(np.asarray(b0, dtype=float))
    n, p = x.shape
    k = y.shape[1]
    loss = 0.0
    for i in range(n):
        for c in range(k):
            pred = b0[c]
            for j in range(p):
                pred += x[i, j] * b[j, c]
            loss += (y[i, c] - pred) ** 2
    loss /= 2.0 * n
    pen = 0.0
    for j in range(p):
        row = 0.0
        for c in range(k):
            row += b[j, c] ** 2
        row_norm = math.sqrt(row)
        pen += (1.0 - alpha) / 2.0 * row + alpha * row_norm
    return loss + lam * pen


def soft_threshold(z: float, gamma: float) -> float:
    """Scalar soft threshold sign(z) * max(|z| - gamma, 0): the lasso
    solution for one orthonormal predictor."""
    if gamma < 0:
        raise ValueError(f"threshold must be nonnegative, got {gamma!r}")
    m = abs(z) - gamma
    if m <= 0.0:
        return 0.0
    return math.copysign(m, z)


def group_soft_threshold(u, gamma: float) -> np.ndarray:
    """Vector soft threshold (1 - gamma / ||u||)_+ * u."""
    if gamma < 0:
        raise ValueError(f"threshold must be nonnegative, got {gamma!r}")
    u = np.asarray(u, dtype=float)
    nrm = math.sqrt(float(u @ u))
    if nrm <= gamma:
        return np.zeros_like(u)
    return u * (1.0 - gamma / nrm)


def r2_from_f(f: float, df1: int, df2: int) -> float:
    """R^2 implied by an overall F statistic with (df1, df2)."""
    ratio = f * df1 / df2
    return ratio / (1.0 + ratio)


def prox_grad_reference(x, y, lam, alpha, fit_intercept=True, tol=1e-10, max_iter=500_000, b_init=None):
    """Proximal-gradient minimizer of the grouped elastic-net objective.

    The ridge part stays in the smooth term; the prox is a row-wise
    Euclidean shrink. Returns (b, b0).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y.reshape(-1, 1)
    n, p = x.shape
    k = y.shape[1]
    if fit_intercept:
        x_off = x.mean(axis=0)
        y_off = y.mean(axis=0)
    else:
        x_off = np.zeros(p)
        y_off = np.zeros(k)
    xc = x - x_off
    yc = y - y_off
    step = 1.0 / (
        float(np.linalg.eigvalsh(xc.T @ xc).max()) / n + lam * (1.0 - alpha)
    )
    shrink = step * lam * alpha
    b = np.zeros((p, k)) if b_init is None else b_init.copy()
    for _ in range(max_iter):
        grad = -(xc.T @ (yc - xc @ b)) / n + lam * (1.0 - alpha) * b
        z = b - step * grad
        b_new = np.zeros_like(b)
        for j in range(p):
            nrm = math.sqrt(float(z[j] @ z[j]))
            if nrm > shrink:
                b_new[j] = z[j] * (1.0 - shrink / nrm)
        if float(np.max(np.abs(b_new - b))) <= tol:
            b = b_new
            break
        b = b_new
    return b, y_off - x_off @ b


def wilks_f_single_df(h, e, df_error) -> tuple[float, float]:
    """(Wilks lambda, its exact F) for a rank-one hypothesis matrix."""
    h = np.asarray(h, dtype=float)
    e = np.asarray(e, dtype=float)
    k = e.shape[0]
    wilks = det_cofactor(e) / det_cofactor(h + e)
    den_df = df_error - k + 1
    f = (1.0 - wilks) / wilks * den_df / k
    return wilks, f


def pillai_explicit(h, e) -> float:
    """trace(H (H+E)^-1) with the inverse taken by adjugate."""
    h = np.asarray(h, dtype=float)
    e = np.asarray(e, dtype=float)
    return float(np.trace(h @ inverse_adjugate(h + e)))


def vif_auxiliary(x) -> list[tuple[float, float]]:
    """(auxiliary R^2, VIF) per column: regress column j on all the other
    columns plus an intercept by ``np.linalg.lstsq``, one fit per column."""
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    out = []
    for j in range(p):
        target = x[:, j]
        design = np.column_stack([np.ones(n), np.delete(x, j, axis=1)])
        coef = np.linalg.lstsq(design, target, rcond=None)[0]
        resid = target - design @ coef
        centered = target - target.mean()
        rss = float(resid @ resid)
        tss = float(centered @ centered)
        out.append((1.0 - rss / tss, tss / rss))
    return out


def cv_refit_loop(x, y, assignment, k, lambdas, fit_fn):
    """Hand-rolled CV aggregation: refit per fold, aggregate in fold order.

    Returns (mean_error, se_error, lambda_min, lambda_1se) using the same
    conventions the package documents: fold error is the mean over held-out
    observations of squared error summed across responses; ties in the
    minimum go to the larger lambda.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y.reshape(-1, 1)
    lambdas = np.asarray(lambdas, dtype=float)
    errors = []
    for f in range(k):
        train = assignment != f
        path = fit_fn(x[train], y[train], lambdas)
        fold = []
        for l in range(lambdas.size):
            pred = x[~train] @ path.coefs[l] + path.intercepts[l]
            resid = y[~train] - pred
            fold.append(float((resid * resid).sum()) / int((~train).sum()))
        errors.append(fold)
    errors = np.asarray(errors)
    mean_error = errors.mean(axis=0)
    se_error = errors.std(axis=0, ddof=1) / math.sqrt(k)
    i_min = 0
    for i in range(1, lambdas.size):
        if mean_error[i] < mean_error[i_min]:
            i_min = i
    threshold = mean_error[i_min] + se_error[i_min]
    i_1se = next(i for i in range(lambdas.size) if mean_error[i] <= threshold)
    return mean_error, se_error, float(lambdas[i_min]), float(lambdas[i_1se])
