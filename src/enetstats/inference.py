"""Multivariate multiple regression and its follow-up diagnostics.

Fits the unpenalized multi-response OLS model and derives the reporting
quantities: per-predictor multivariate tests (Pillai's trace with its
exact F transform for single-df terms), per-response coefficient tables
with overall F and adjusted R^2, variance inflation factors and Pearson
correlation. The plot-ready residual data is the fit's own ``fitted`` and
``residuals`` arrays (N x K), which the CLI writes to ``residuals.tsv``.

Every statistic is read from one Q-free QR of [1, X, Y]
(:func:`~enetstats.linalg.r_factor`). The leading (p+1) block of its R is
the design's R: the coefficients, (X'X)^-1 = R^-1 R^-T and every VIF. The
trailing K block is the residuals' R factor: E and every MANOVA term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dist import f_sf, t_sf
from .linalg import (
    RankDeficiencyError, as_matrix, center_columns, check_rank, check_scale, is_constant, r_factor
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
    "fit_mlm",
    "manova_table",
    "univariate_summary",
    "vif",
    "pearson",
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
    normal matrix, and ``r`` is the R factor of [1, X, Y], upper
    trapezoidal when N < 1+p+K.
    """

    coef: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    e_matrix: np.ndarray
    df_error: int
    xtx_inv: np.ndarray
    r: np.ndarray
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


def f_from_r2(r2: float, df1: int, df2: int) -> float:
    """Overall F statistic implied by R^2 with (df1, df2)."""
    return (r2 / df1) / ((1.0 - r2) / df2)


def adjusted_r2(r2: float, n_obs: int, n_predictors: int) -> float:
    """Adjusted R^2 = 1 - (1 - R^2) (N - 1) / (N - p - 1)."""
    return 1.0 - (1.0 - r2) * (n_obs - 1) / (n_obs - n_predictors - 1)


def fit_mlm(x, y, predictor_names=None, response_names=None) -> MlmFit:
    """Multivariate multiple regression of y (N x K) on x (N x p) plus an
    intercept.

    One Q-free QR of [1, X, Y] gives R = [[R_x, R_xy], [0, R_e]]: the
    coefficients are R_x^-1 R_xy, (X'X)^-1 = R_x^-1 R_x^-T and
    E = R_e'R_e. Raises :class:`~enetstats.linalg.RankDeficiencyError`
    naming the first predictor that is collinear with the columns before it,
    and ValueError naming a column outside
    :func:`~enetstats.linalg.check_scale`'s window.
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
    check_scale(x, lambda j: f"predictor {predictor_names[j]!r}")
    check_scale(y, lambda j: f"response {response_names[j]!r}")

    augmented = np.column_stack([np.ones(n), x, y])
    r = r_factor(augmented)
    m = p + 1
    try:
        check_rank(r[:m, :m])
    except RankDeficiencyError as exc:
        # the ones column's pivot is its own norm, so it is never flagged
        name = predictor_names[exc.column - 1]
        raise RankDeficiencyError(
            f"predictor {name!r} is collinear with the preceding columns",
            column=exc.column,
        ) from exc
    r_inv = np.linalg.inv(r[:m, :m])
    coef = r_inv @ r[:m, m:]
    fitted = augmented[:, :m] @ coef
    return MlmFit(
        coef=coef,
        fitted=fitted,
        residuals=y - fitted,
        e_matrix=r[m:, m:].T @ r[m:, m:],
        df_error=n - p - 1,
        xtx_inv=r_inv @ r_inv.T,
        r=r,
        predictor_names=list(predictor_names),
        response_names=list(response_names),
    )


def manova_table(fit: MlmFit) -> list[ManovaRow]:
    """Per-predictor multivariate tests against all K responses jointly.

    Term j's hypothesis matrix H_j = b_j b_j' / c_jj (b_j its coefficient
    row, c_jj = [(X'X)^-1]_jj) has rank one, so E^-1 H_j has the single
    eigenvalue q_j = b_j' E^-1 b_j / c_jj = ||R_e^-T b_j||^2 / c_jj, with
    E = R_e'R_e read off ``fit.r``. Pillai's V = q / (1 + q) and
    F = q * den_df / K, exact with (K, df_error - K + 1) df. Residuals of
    rank below K raise :class:`PerfectFitError` naming the response.
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
    try:
        # fit.r[1:, 1:] is the R factor of the centered [X, Y], so each
        # response's pivot is judged against its centered norm; fit_mlm has
        # passed the design columns by their uncentered norms, a stricter rule
        check_rank(fit.r[1:, 1:])
    except RankDeficiencyError as exc:
        raise PerfectFitError(
            f"response {fit.response_names[exc.column - p]!r} leaves no residual "
            "variation beyond the predictors and the preceding responses"
        ) from None
    r_e = fit.r[p + 1 :, p + 1 :]
    z = np.linalg.solve(r_e.T, fit.coef[1:].T)
    q = (z * z).sum(axis=0) / np.diag(fit.xtx_inv)[1:]
    rows: list[ManovaRow] = []
    for name, q_j in zip(fit.predictor_names, q.tolist()):
        f_stat = q_j * den_df / k
        rows.append(
            ManovaRow(
                term=name,
                df=1,
                pillai=q_j / (1.0 + q_j),
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
    if p < 1:
        raise ValueError("the model has no non-intercept terms to summarize")
    tss_part = fit.r[1:, p + 1 + response]  # Q's first column is 1/sqrt(N)
    tss = float(tss_part @ tss_part)
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
        r2_adj=adjusted_r2(r2, fit.n_obs, p),
        sigma=math.sqrt(sigma2),
    )


def vif(fit: MlmFit) -> list[VifEntry]:
    """Variance inflation factors of the fit's predictors.

    vif_j = 1 / (1 - R_j^2), with R_j^2 the auxiliary R^2 of predictor j on
    all the others plus an intercept, equals tss_j [(Xc'Xc)^-1]_jj for the
    centered predictors Xc. Q's first column is constant, so ``fit.r[1:, 1:]``
    is the R factor of the centered [X, Y]: tss_j is the squared norm of
    R[1:, j+1] and [(Xc'Xc)^-1]_jj is ``xtx_inv[j+1, j+1]``. A predictor
    with R_j^2 >= 1 - 1e-12 raises :class:`CollinearityError`.
    """
    p = fit.n_predictors
    if p < 2:
        raise ValueError(f"VIF needs at least 2 predictors, got {p}")
    r = fit.r[1 : p + 1, 1 : p + 1]
    vifs = (r * r).sum(axis=0) * np.diag(fit.xtx_inv)[1:]
    r2_aux = 1.0 - 1.0 / vifs
    near = np.flatnonzero(r2_aux >= 1.0 - 1e-12)
    if near.size:
        raise CollinearityError(
            f"predictor {fit.predictor_names[near[0]]!r} is an exact linear "
            "combination of the others"
        )
    return [
        VifEntry(name=name, r2_aux=r2, vif=v)
        for name, r2, v in zip(fit.predictor_names, r2_aux.tolist(), vifs.tolist())
    ]


def pearson(a, b) -> PearsonResult:
    """Pearson correlation with its t statistic and a two-sided p-value.

    |r| = 1 is degenerate: the t statistic is reported as signed infinity
    with p = 0 rather than dividing by zero.
    """
    a = as_matrix(a, "a").ravel()
    b = as_matrix(b, "b").ravel()
    n = a.size
    if b.size != n:
        raise ValueError(f"length mismatch: {n} vs {b.size}")
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    if is_constant(a) or is_constant(b):
        raise ValueError("correlation is undefined for constant input")
    # the power-of-two scaling leaves r unchanged and keeps each sum of
    # squares from underflowing to 0 (a spread of 1e-200) or overflowing
    ac = center_columns(a)[0]
    bc = center_columns(b)[0]
    sa = math.sqrt(float(ac @ ac))
    sb = math.sqrt(float(bc @ bc))
    r = float(ac @ bc) / (sa * sb)
    r = max(-1.0, min(1.0, r))
    if 1.0 - r * r <= 0.0:
        return PearsonResult(r=r, t=math.copysign(math.inf, r), p=0.0)
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return PearsonResult(r=r, t=t, p=t_sf(t, n - 2).value)

