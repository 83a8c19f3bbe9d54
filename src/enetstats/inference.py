"""Multivariate multiple regression and its follow-up diagnostics.

Fits the unpenalized multi-response OLS model and derives the reporting
quantities: per-predictor multivariate tests (Pillai's trace with its
exact F transform for single-df terms), per-response coefficient tables
with overall F and adjusted R^2, variance inflation factors, Pearson
correlation, and plot-ready residual records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dist import f_sf, t_sf
from .linalg import (
    NotPositiveDefiniteError,
    RankDeficiencyError,
    as_matrix,
    cholesky_solve,
    least_squares,
)

__all__ = [
    "PerfectFitError",
    "CollinearityError",
    "MlmFit",
    "ManovaRow",
    "CoefficientRow",
    "UnivariateSummary",
    "VifEntry",
    "PearsonResult",
    "ResidualPoint",
    "fit_mlm",
    "manova_table",
    "univariate_summary",
    "vif",
    "pearson",
    "residual_diagnostics",
    "r2_from_f",
    "f_from_r2",
    "adjusted_r2",
]

# Relative floor below which a residual sum of squares counts as an exact fit.
_PERFECT_FIT_RTOL = 1e-12


class PerfectFitError(ValueError):
    """The model fits exactly; error-based statistics are undefined."""


class CollinearityError(ValueError):
    """A predictor is an exact linear combination of the others."""


@dataclass
class MlmFit:
    """Multivariate OLS fit: coefficients, residual structure, and the
    cross products the tests need.

    ``coef`` is (p+1) x K with the intercept row first; ``e_matrix`` is the
    K x K residual cross-product; ``xtx_inv`` inverts the intercept-augmented
    normal matrix.
    """

    coef: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    e_matrix: np.ndarray
    df_error: int
    xtx_inv: np.ndarray
    predictor_names: list[str]
    response_names: list[str]

    @property
    def n_obs(self) -> int:
        return self.fitted.shape[0]

    @property
    def n_predictors(self) -> int:
        return self.coef.shape[0] - 1

    @property
    def n_responses(self) -> int:
        return self.coef.shape[1]


@dataclass(frozen=True)
class ManovaRow:
    """One predictor's multivariate test: Pillai statistic and exact F."""

    term: str
    df: int
    pillai: float
    approx_f: float
    num_df: int
    den_df: int
    p_value: float


@dataclass(frozen=True)
class CoefficientRow:
    name: str
    estimate: float
    std_error: float
    t: float
    p: float


@dataclass(frozen=True)
class UnivariateSummary:
    """Per-response OLS summary: coefficient table plus overall fit stats."""

    response: str
    coef_rows: list[CoefficientRow]
    f_stat: float
    df1: int
    df2: int
    r2: float
    r2_adj: float
    sigma: float


@dataclass(frozen=True)
class VifEntry:
    name: str
    r2_aux: float
    vif: float


class PearsonResult(NamedTuple):
    r: float
    t: float
    p: float


class ResidualPoint(NamedTuple):
    response: str
    fitted: float
    residual: float


def r2_from_f(f: float, df1: int, df2: int) -> float:
    """R^2 implied by an overall F statistic with (df1, df2)."""
    ratio = f * df1 / df2
    return ratio / (1.0 + ratio)


def f_from_r2(r2: float, df1: int, df2: int) -> float:
    """Overall F statistic implied by R^2 with (df1, df2)."""
    return (r2 / df1) / ((1.0 - r2) / df2)


def adjusted_r2(r2: float, n_obs: int, n_predictors: int) -> float:
    """Adjusted R^2 = 1 - (1 - R^2) (N - 1) / (N - p - 1)."""
    return 1.0 - (1.0 - r2) * (n_obs - 1) / (n_obs - n_predictors - 1)


def fit_mlm(x, y, predictor_names=None, response_names=None) -> MlmFit:
    """Multivariate multiple regression of y (N x K) on x (N x p) plus an
    intercept.

    Raises :class:`~enetstats.linalg.RankDeficiencyError` (naming the
    offending column where detectable) when the augmented design is rank
    deficient.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    n, p = x.shape
    k = y.shape[1]
    if y.shape[0] != n:
        raise ValueError(f"x has {n} rows but y has {y.shape[0]}")
    if n <= p + 1:
        raise ValueError(
            f"need more observations than coefficients: N={n}, p+1={p + 1}"
        )
    if predictor_names is None:
        predictor_names = [f"x{j + 1}" for j in range(p)]
    if response_names is None:
        response_names = [f"y{j + 1}" for j in range(k)]
    if len(predictor_names) != p or len(response_names) != k:
        raise ValueError("name lists must match the matrix shapes")

    design = np.column_stack([np.ones(n), x])
    try:
        coef = least_squares(design, y)
    except RankDeficiencyError as exc:
        if exc.column is not None and exc.column > 0:
            name = predictor_names[exc.column - 1]
            raise RankDeficiencyError(
                f"predictor {name!r} is collinear with the preceding columns",
                column=exc.column,
            ) from exc
        raise
    fitted = design @ coef
    residuals = y - fitted
    e_matrix = residuals.T @ residuals
    xtx_inv = cholesky_solve(design.T @ design, np.eye(p + 1))
    return MlmFit(
        coef=coef,
        fitted=fitted,
        residuals=residuals,
        e_matrix=e_matrix,
        df_error=n - p - 1,
        xtx_inv=xtx_inv,
        predictor_names=list(predictor_names),
        response_names=list(response_names),
    )


def manova_table(fit: MlmFit) -> list[ManovaRow]:
    """Per-predictor multivariate tests against all K responses jointly.

    Each term's hypothesis matrix is H_j = b_j' b_j / [(X'X)^-1]_jj with
    b_j the predictor's coefficient row; Pillai's V = trace(H (H + E)^-1).
    Single-df terms make the F transform exact:
    F = V / (1 - V) * den_df / K with (K, df_error - K + 1) degrees of
    freedom.
    """
    p = fit.n_predictors
    k = fit.n_responses
    if p < 1:
        raise ValueError("the model has no non-intercept terms to test")
    den_df = fit.df_error - k + 1
    if den_df < 1:
        raise ValueError(
            f"not enough error degrees of freedom for {k} responses "
            f"(df_error={fit.df_error})"
        )
    rows: list[ManovaRow] = []
    for j in range(1, p + 1):
        b_row = fit.coef[j]
        h = np.outer(b_row, b_row) / fit.xtx_inv[j, j]
        v = float(np.trace(cholesky_solve(h + fit.e_matrix, h)))
        if v < 0.0:
            v = 0.0
        if v >= 1.0:
            raise PerfectFitError(
                f"term {fit.predictor_names[j - 1]!r} leaves no residual variation"
            )
        f_stat = v / (1.0 - v) * den_df / k
        rows.append(
            ManovaRow(
                term=fit.predictor_names[j - 1],
                df=1,
                pillai=v,
                approx_f=f_stat,
                num_df=k,
                den_df=den_df,
                p_value=f_sf(f_stat, k, den_df).value,
            )
        )
    return rows


def univariate_summary(fit: MlmFit, response: int) -> UnivariateSummary:
    """Single-response OLS summary extracted from a multivariate fit.

    Standard errors come from sigma^2 diag((X'X)^-1) with
    sigma^2 = RSS / df_error; the overall F and R^2 are computed from one
    another's inputs so their defining identities hold exactly.
    """
    k = fit.n_responses
    if not 0 <= response < k:
        raise ValueError(f"response index {response} out of range for K={k}")
    p = fit.n_predictors
    n = fit.n_obs
    y = fit.fitted[:, response] + fit.residuals[:, response]
    centered = y - y.mean()
    tss = float(centered @ centered)
    rss = float(fit.e_matrix[response, response])
    if rss <= tss * _PERFECT_FIT_RTOL:
        raise PerfectFitError(
            f"response {fit.response_names[response]!r} is fit exactly; "
            "error statistics are undefined"
        )
    sigma2 = rss / fit.df_error
    std_errors = np.sqrt(sigma2 * np.diag(fit.xtx_inv))
    estimates = fit.coef[:, response]
    names = ["intercept"] + fit.predictor_names
    rows = []
    for name, est, se in zip(names, estimates, std_errors):
        t = est / se
        rows.append(
            CoefficientRow(
                name=name,
                estimate=float(est),
                std_error=float(se),
                t=float(t),
                p=t_sf(float(t), fit.df_error).value,
            )
        )
    r2 = 1.0 - rss / tss
    return UnivariateSummary(
        response=fit.response_names[response],
        coef_rows=rows,
        f_stat=f_from_r2(r2, p, fit.df_error),
        df1=p,
        df2=fit.df_error,
        r2=r2,
        r2_adj=adjusted_r2(r2, n, p),
        sigma=math.sqrt(sigma2),
    )


def vif(x, names=None) -> list[VifEntry]:
    """Variance inflation factors: regress each predictor on the rest.

    vif_j = 1 / (1 - R_j^2), where R_j^2 comes from the auxiliary
    regression of column j on all other columns plus an intercept.
    """
    x = as_matrix(x, "x")
    n, p = x.shape
    if p < 2:
        raise ValueError(f"VIF needs at least 2 predictors, got {p}")
    if names is None:
        names = [f"x{j + 1}" for j in range(p)]
    if len(names) != p:
        raise ValueError("name list must match the column count")
    entries: list[VifEntry] = []
    for j in range(p):
        target = x[:, j]
        others = np.delete(x, j, axis=1)
        target_c = target - target.mean()
        tss = float(target_c @ target_c)
        if tss == 0.0:
            raise ValueError(f"predictor {names[j]!r} is constant")
        # centered normal equations: the intercept drops out, and an
        # exactly orthogonal design yields an exactly zero R^2
        others_c = others - others.mean(axis=0)
        cross = others_c.T @ target_c
        try:
            solved = cholesky_solve(others_c.T @ others_c, cross.reshape(-1, 1))
        except NotPositiveDefiniteError:
            raise CollinearityError(
                f"the predictors other than {names[j]!r} are collinear among themselves"
            ) from None
        r2_aux = float(cross @ solved[:, 0]) / tss
        if r2_aux >= 1.0 - 1e-12:
            raise CollinearityError(
                f"predictor {names[j]!r} is an exact linear combination of the others"
            )
        entries.append(VifEntry(name=names[j], r2_aux=r2_aux, vif=1.0 / (1.0 - r2_aux)))
    return entries


def pearson(a, b) -> PearsonResult:
    """Pearson correlation with its t statistic and a two-sided p-value.

    |r| = 1 is degenerate: the t statistic is reported as signed infinity
    with p = 0 rather than dividing by zero.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    n = a.size
    if b.size != n:
        raise ValueError(f"length mismatch: {n} vs {b.size}")
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    ac = a - a.mean()
    bc = b - b.mean()
    sa = math.sqrt(float(ac @ ac))
    sb = math.sqrt(float(bc @ bc))
    if sa == 0.0 or sb == 0.0:
        raise ValueError("correlation is undefined for constant input")
    r = float(ac @ bc) / (sa * sb)
    r = max(-1.0, min(1.0, r))
    if 1.0 - r * r <= 0.0:
        return PearsonResult(r=r, t=math.copysign(math.inf, r), p=0.0)
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return PearsonResult(r=r, t=t, p=t_sf(t, n - 2).value)


def residual_diagnostics(fit: MlmFit) -> list[ResidualPoint]:
    """(response, fitted, residual) records in observation-major order,
    ready for a fitted-versus-residual plot."""
    points: list[ResidualPoint] = []
    for i in range(fit.n_obs):
        for k, name in enumerate(fit.response_names):
            points.append(
                ResidualPoint(
                    response=name,
                    fitted=float(fit.fitted[i, k]),
                    residual=float(fit.residuals[i, k]),
                )
            )
    return points
