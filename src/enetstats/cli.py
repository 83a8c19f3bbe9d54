"""Command-line pipeline: prep -> enet -> cv -> mlm -> report.

Machine outputs are TSV (UTF-8, LF, header row first) written with 17
significant digits so every value round-trips; tables meant for reading
are also rendered as aligned text on stdout at a configurable display
precision. Exit codes: 0 success, 2 input/validation failure, 3 solver or
CV failure, 4 inference failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cv import CvError, CvResult, cross_validate, make_folds
from .dataprep import (
    DataError,
    ROLE_PREDICTOR,
    ROLE_RESPONSE,
    StandardizedMatrix,
    SubsetConfig,
    load_csv,
    select_variables,
    standardize,
)
from .enet import ConvergenceError, EnetConfig, EnetPath, fit_mgaussian_path
from .inference import (
    CoefficientRow,
    CollinearityError,
    ManovaRow,
    MlmFit,
    PerfectFitError,
    fit_mlm,
    manova_table,
    pearson,
    residual_diagnostics,
    univariate_summary,
    vif,
)
from .linalg import RankDeficiencyError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_INFERENCE = 4

_INPUT_ERRORS = (DataError, FileNotFoundError, IsADirectoryError, PermissionError)
_SOLVER_ERRORS = (ConvergenceError, CvError)
_INFERENCE_ERRORS = (RankDeficiencyError, PerfectFitError, CollinearityError)


@dataclass
class RunConfig:
    """Resolved command-line settings for one pipeline invocation."""

    input: Path
    subsets: Path
    out: Path
    command: str = "report"
    alpha: float = 0.5
    nlambda: int = 100
    lambda_min_ratio: float | None = None
    folds: int = 10
    seed: int = 1
    rule: str = "min"
    digits: int = 6
    predictors: list[str] | None = None

    def enet_config(self) -> EnetConfig:
        return EnetConfig(
            alpha=self.alpha,
            nlambda=self.nlambda,
            lambda_min_ratio=self.lambda_min_ratio,
        )


def _g17(value: float) -> str:
    return format(float(value), ".17g")


def _sci(value: float, digits: int) -> str:
    return format(float(value), f".{digits - 1}e")


def _fixed(value: float, digits: int) -> str:
    return format(float(value), f".{digits}g")


def stars(p: float) -> str:
    """Significance code for a p-value: *** / ** / * / NS."""
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return "NS"


def _write_tsv(path: Path, header: list[str], rows: list[list[str]], footer: str | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\t".join(header) + "\n")
        for row in rows:
            handle.write("\t".join(row) + "\n")
        if footer is not None:
            handle.write(footer + "\n")


def _render_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _manova_cells(rows: list[ManovaRow], num, p_value) -> list[list[str]]:
    """Cells of the MANOVA table, with ``num`` and ``p_value`` formatting
    the statistics and the p-values."""
    return [
        [r.term, str(r.df), num(r.pillai), num(r.approx_f), str(r.num_df), str(r.den_df),
         p_value(r.p_value), stars(r.p_value)]
        for r in rows
    ]


def _coef_cells(rows: list[CoefficientRow], num, p_value) -> list[list[str]]:
    """Cells of a coefficient table, formatted as in :func:`_manova_cells`."""
    return [
        [r.name, num(r.estimate), num(r.std_error), num(r.t), p_value(r.p), stars(r.p)]
        for r in rows
    ]


class Pipeline:
    """Shared state for the subcommands so `report` never recomputes."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.table = load_csv(cfg.input)
        self.subsets = SubsetConfig.load(cfg.subsets)
        self._standardized: dict[str, StandardizedMatrix] = {}
        self._path: EnetPath | None = None
        self._cv: CvResult | None = None
        self._mlm: MlmFit | None = None
        self._mlm_x: np.ndarray | None = None  # the fit's predictor columns
        self._check_data_flags()
        cfg.out.mkdir(parents=True, exist_ok=True)

    def _check_data_flags(self) -> None:
        """Reject flag values that only the data can refute, before
        ``--out`` exists."""
        cfg = self.cfg
        # every command after prep selects lambda by CV; mlm skips it when
        # given the predictors
        runs_cv = cfg.command != "prep" and not (
            cfg.command == "mlm" and cfg.predictors is not None
        )
        n = self.table.n_rows
        if runs_cv and cfg.folds > n:
            raise DataError(f"--folds must be <= the {n} observations, got {cfg.folds!r}")
        if cfg.predictors is not None:
            group = self.subsets.groups[self.subsets.group_with_role(ROLE_PREDICTOR)]
            unknown = [p for p in cfg.predictors if p not in group]
            if unknown:
                raise DataError(
                    "--predictors: not in the predictor group: "
                    + ", ".join(repr(u) for u in unknown)
                )

    # -- shared stages ----------------------------------------------------

    def standardized(self, group: str) -> StandardizedMatrix:
        if group not in self._standardized:
            selected = select_variables(self.table, self.subsets, group)
            self._standardized[group] = standardize(selected)
        return self._standardized[group]

    def design(self) -> tuple[StandardizedMatrix, StandardizedMatrix]:
        x = self.standardized(self.subsets.group_with_role(ROLE_PREDICTOR))
        y = self.standardized(self.subsets.group_with_role(ROLE_RESPONSE))
        return x, y

    def enet_path(self) -> EnetPath:
        if self._path is None:
            x, y = self.design()
            self._path = fit_mgaussian_path(x.matrix, y.matrix, self.cfg.enet_config())
        return self._path

    def cv_result(self) -> CvResult:
        if self._cv is None:
            x, y = self.design()
            folds = make_folds(x.matrix.shape[0], self.cfg.folds, self.cfg.seed)
            self._cv = cross_validate(x.matrix, y.matrix, self.cfg.enet_config(), folds)
        return self._cv

    def selected_lambda_index(self) -> int:
        cv = self.cv_result()
        return cv.i_min if self.cfg.rule == "min" else cv.i_1se

    def reduced_predictors(self) -> list[str]:
        if self.cfg.predictors is not None:
            return list(self.cfg.predictors)
        path = self.enet_path()
        idx = self.selected_lambda_index()
        x, _ = self.design()
        keep = np.any(path.coefs[idx] != 0.0, axis=1)
        return [name for name, kept in zip(x.names, keep) if kept]

    def mlm_fit(self) -> MlmFit:
        if self._mlm is None:
            x, y = self.design()
            names = self.reduced_predictors()
            if not names:
                raise DataError("the selected model keeps no predictors")
            self._mlm_x = x.matrix[:, [x.names.index(n) for n in names]]
            self._mlm = fit_mlm(
                self._mlm_x,
                y.matrix,
                predictor_names=names,
                response_names=y.names,
            )
        return self._mlm

    # -- subcommands -------------------------------------------------------

    def run_prep(self) -> None:
        for group in self.subsets.groups:
            sm = self.standardized(group)
            _write_tsv(
                self.cfg.out / f"{group}.tsv",
                list(sm.names),
                [[_g17(v) for v in row] for row in sm.matrix],
            )
            _write_tsv(
                self.cfg.out / f"{group}_scale.tsv",
                ["column", "mean", "sd"],
                [
                    [name, _g17(mean), _g17(sd)]
                    for name, mean, sd in zip(sm.names, sm.means, sm.sds)
                ],
            )

    def run_enet(self) -> None:
        path = self.enet_path()
        _write_tsv(
            self.cfg.out / "path.tsv",
            ["lambda", "dev_ratio", "nonzero"],
            [
                [_g17(lam), _g17(dev), str(int(nz))]
                for lam, dev, nz in zip(path.lambdas, path.dev_ratio, path.nonzero)
            ],
        )
        idx = self.selected_lambda_index()
        lam = float(path.lambdas[idx])
        x, y = self.design()
        rows = []
        for j, name in enumerate(x.names):
            coef_row = path.coefs[idx, j]
            if np.any(coef_row != 0.0):
                cells = [_sci(c, self.cfg.digits) for c in coef_row]
            else:
                cells = ["removed"] * len(y.names)
            rows.append([name] + cells)
        coef_file = self.cfg.out / f"coef_{lam:.6g}.tsv"
        _write_tsv(coef_file, ["predictor"] + list(y.names), rows)
        print(f"coefficients written at lambda={_g17(lam)} rule={self.cfg.rule}")

    def run_cv(self) -> None:
        cv = self.cv_result()
        _write_tsv(
            self.cfg.out / "cv.tsv",
            ["lambda", "mean_error", "se_error"],
            [
                [_g17(lam), _g17(m), _g17(s)]
                for lam, m, s in zip(cv.lambdas, cv.mean_error, cv.se_error)
            ],
        )
        print(f"lambda.min={_g17(cv.lambda_min)}")
        print(f"lambda.1se={_g17(cv.lambda_1se)}")

    def run_mlm(self) -> None:
        fit = self.mlm_fit()
        d = self.cfg.digits

        def fixed(value: float) -> str:
            return _fixed(value, d)

        def p4(value: float) -> str:
            return _fixed(value, 4)

        manova = manova_table(fit)
        _write_tsv(
            self.cfg.out / "manova.tsv",
            ["term", "df", "pillai", "approx_f", "num_df", "den_df", "p", "stars"],
            _manova_cells(manova, _g17, _g17),
        )
        print("Multivariate tests:")
        print(
            _render_table(
                ["term", "df", "pillai", "approx F", "num df", "den df", "p", ""],
                _manova_cells(manova, fixed, p4),
            )
        )

        for k, response in enumerate(fit.response_names):
            summary = univariate_summary(fit, k)
            footer = (
                f"F({summary.df1},{summary.df2})={_g17(summary.f_stat)} "
                f"R2={_g17(summary.r2)} R2adj={_g17(summary.r2_adj)}"
            )
            _write_tsv(
                self.cfg.out / f"uni_{response}.tsv",
                ["term", "estimate", "std_error", "t", "p", "stars"],
                _coef_cells(summary.coef_rows, _g17, _g17),
                footer=footer,
            )
            print(f"Follow-up regression: {response}")
            print(
                _render_table(
                    ["term", "estimate", "std error", "t", "p", ""],
                    _coef_cells(summary.coef_rows, fixed, p4),
                )
            )
            print(
                f"F({summary.df1},{summary.df2})={fixed(summary.f_stat)} "
                f"R2={p4(summary.r2)} R2adj={p4(summary.r2_adj)} "
                f"sigma={p4(summary.sigma)}"
            )

        entries = vif(self._mlm_x, names=fit.predictor_names)
        _write_tsv(
            self.cfg.out / "vif.tsv",
            ["predictor", "r2_aux", "vif"],
            [[e.name, _g17(e.r2_aux), _g17(e.vif)] for e in entries],
        )
        print("Variance inflation factors:")
        print(_render_table(["predictor", "vif"], [[e.name, fixed(e.vif)] for e in entries]))

        points = residual_diagnostics(fit)
        _write_tsv(
            self.cfg.out / "residuals.tsv",
            ["response", "fitted", "residual"],
            [[pt.response, _g17(pt.fitted), _g17(pt.residual)] for pt in points],
        )

        y = fit.fitted + fit.residuals
        k = fit.n_responses
        for i in range(k):
            for j in range(i + 1, k):
                result = pearson(y[:, i], y[:, j])
                if k == 2:
                    print(f"pearson r={_g17(result.r)} p={_g17(result.p)}")
                else:
                    print(
                        f"pearson {fit.response_names[i]}~{fit.response_names[j]} "
                        f"r={_g17(result.r)} p={_g17(result.p)}"
                    )

    def run_report(self) -> None:
        self.run_prep()
        self.run_enet()
        self.run_cv()
        self.run_mlm()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enetstats",
        description=(
            "Standardize tabular data, fit elastic-net paths, cross-validate the "
            "penalty, and report multivariate regression diagnostics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("prep", "standardize each configured group and write TSVs"),
        ("enet", "fit the elastic-net path and write path/coefficient files"),
        ("cv", "cross-validate the lambda grid and report lambda.min/lambda.1se"),
        ("mlm", "fit the reduced multivariate regression and write test tables"),
        ("report", "run the whole pipeline"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, type=Path, help="input CSV file")
        p.add_argument("--subsets", required=True, type=Path, help="subset config file")
        p.add_argument("--out", required=True, type=Path, help="output directory")
        p.add_argument("--alpha", type=float, default=0.5, help="elastic-net mixing (default 0.5)")
        p.add_argument("--nlambda", type=int, default=100, help="lambda grid size (default 100)")
        p.add_argument(
            "--lambda-min-ratio",
            type=float,
            default=None,
            help="grid floor as a fraction of lambda_max (default: data-dependent)",
        )
        p.add_argument("--folds", type=int, default=10, help="CV fold count (default 10)")
        p.add_argument("--seed", type=int, default=1, help="fold-assignment seed (default 1)")
        p.add_argument(
            "--rule",
            choices=("min", "1se"),
            default="min",
            help="lambda selection rule (default min)",
        )
        p.add_argument(
            "--digits", type=int, default=6, help="significant digits for display tables"
        )
        if name in ("mlm", "report"):
            p.add_argument(
                "--predictors",
                default=None,
                help="comma-separated predictor list (default: elastic-net selection)",
            )
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Resolve the flags, rejecting a bad value before any data is read
    or ``--out`` is created."""
    for field in ("alpha", "nlambda", "lambda_min_ratio"):
        try:  # EnetConfig is the one validator of the solver settings
            EnetConfig(**{field: getattr(args, field)})
        except ValueError as exc:
            raise DataError(f"--{field.replace('_', '-')}: {exc}") from None
    for field, ok, rule in (
        # the CLI has no explicit-grid flag, and lambda_max divides by alpha
        ("alpha", args.alpha > 0.0, "> 0"),
        ("folds", args.folds >= 2, ">= 2"),
        ("digits", args.digits >= 1, ">= 1"),
    ):
        if not ok:
            raise DataError(f"--{field} must be {rule}, got {getattr(args, field)!r}")
    predictors = None
    if getattr(args, "predictors", None):
        predictors = [p.strip() for p in args.predictors.split(",") if p.strip()]
    return RunConfig(
        input=args.input,
        subsets=args.subsets,
        out=args.out,
        command=args.command,
        alpha=args.alpha,
        nlambda=args.nlambda,
        lambda_min_ratio=args.lambda_min_ratio,
        folds=args.folds,
        seed=args.seed,
        rule=args.rule,
        digits=args.digits,
        predictors=predictors,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        pipeline = Pipeline(cfg)
        getattr(pipeline, f"run_{cfg.command}")()
    except _SOLVER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except _INFERENCE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFERENCE
    except _INPUT_ERRORS + (ValueError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
