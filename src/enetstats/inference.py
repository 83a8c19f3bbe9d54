"""Multivariate multiple regression and its follow-up diagnostics.

Fits the unpenalized multi-response OLS model and derives the reporting
quantities: per-predictor multivariate tests (Pillai's trace with its
exact F transform for single-df terms), per-response coefficient tables
with overall F and adjusted R^2, variance inflation factors, Pearson
correlation, and plot-ready residual records.

Every statistic is read from one rank-checked thin QR per matrix
(:func:`~enetstats.linalg.thin_qr`): of the design for the coefficients
and (X'X)^-1 = R^-1 R^-T, of the residuals for all MANOVA terms, and of
the centered predictors for all VIFs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dist import f_sf, t_sf
from .linalg import RankDeficiencyError, as_matrix, thin_qr

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

    One thin QR of the design [1, X] = QR gives both the coefficients
    R^-1 Q'y and (X'X)^-1 = R^-1 R^-T. Raises
    :class:`~enetstats.linalg.RankDeficiencyError` naming the first
    predictor that is collinear with the columns before it.
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
        q, r = thin_qr(design)
    except RankDeficiencyError as exc:
        if exc.column is not None and exc.column > 0:
            name = predictor_names[exc.column - 1]
            raise RankDeficiencyError(
                f"predictor {name!r} is collinear with the preceding columns",
                column=exc.column,
            ) from exc
        raise
    r_inv = np.linalg.inv(r)
    coef = r_inv @ (q.T @ y)
    fitted = design @ coef
    residuals = y - fitted
    return MlmFit(
        coef=coef,
        fitted=fitted,
        residuals=residuals,
        e_matrix=residuals.T @ residuals,
        df_error=n - p - 1,
        xtx_inv=r_inv @ r_inv.T,
        predictor_names=list(predictor_names),
        response_names=list(response_names),
    )


def manova_table(fit: MlmFit) -> list[ManovaRow]:
    """Per-predictor multivariate tests against all K responses jointly.

    Term j's hypothesis matrix H_j = b_j b_j' / c_jj (b_j its coefficient
    row, c_jj = [(X'X)^-1]_jj) has rank one, so E^-1 H_j has the single
    eigenvalue q_j = b_j' E^-1 b_j / c_jj = ||R_e^-T b_j||^2 / c_jj, with
    E = R_e'R_e from one thin QR of the residuals. Pillai's V = q / (1 + q)
    and F = q * den_df / K, exact with (K, df_error - K + 1) df. Residuals
    of rank below K raise :class:`PerfectFitError` naming the response.
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
        _, r_e = thin_qr(fit.residuals)
    except RankDeficiencyError as exc:
        raise PerfectFitError(
            f"response {fit.response_names[exc.column]!r} leaves no residual "
            "variation beyond the preceding responses"
        ) from None
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
    """Variance inflation factors of the columns of ``x``.

    vif_j = 1 / (1 - R_j^2), with R_j^2 the auxiliary R^2 of column j on
    all other columns plus an intercept, equals tss_j [(Xc'Xc)^-1]_jj for
    the centered predictors Xc = QR: vif_j = tss_j ||row j of R^-1||^2.
    A column collinear with earlier ones raises :class:`CollinearityError`.
    """
    x = as_matrix(x, "x")
    n, p = x.shape
    if p < 2:
        raise ValueError(f"VIF needs at least 2 predictors, got {p}")
    if names is None:
        names = [f"x{j + 1}" for j in range(p)]
    if len(names) != p:
        raise ValueError("name list must match the column count")
    centered = x - x.mean(axis=0)
    tss = (centered * centered).sum(axis=0)
    constant = np.flatnonzero(tss == 0.0)
    if constant.size:
        raise ValueError(f"predictor {names[constant[0]]!r} is constant")
    try:
        _, r = thin_qr(centered)
    except RankDeficiencyError as exc:
        raise CollinearityError(
            f"predictor {names[exc.column]!r} is an exact linear combination of the others"
        ) from None
    r_inv = np.linalg.inv(r)
    vifs = tss * (r_inv * r_inv).sum(axis=1)
    r2_aux = 1.0 - 1.0 / vifs
    near = np.flatnonzero(r2_aux >= 1.0 - 1e-12)
    if near.size:
        raise CollinearityError(
            f"predictor {names[near[0]]!r} is an exact linear combination of the others"
        )
    return [
        VifEntry(name=name, r2_aux=r2, vif=v)
        for name, r2, v in zip(names, r2_aux.tolist(), vifs.tolist())
    ]


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
