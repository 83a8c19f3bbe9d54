"""Command-line pipeline: prep -> enet -> cv -> mlm -> report.

Machine outputs are TSV (UTF-8, LF, header row first) written with 17
significant digits so every value round-trips; tables meant for reading
are also rendered as aligned text on stdout at a configurable display
precision. A run computes first and writes once: ``--out`` is created,
the files written and stdout printed only after every stage of the
command has returned, so a failed run creates or changes no file in
``--out`` and prints nothing to stdout; the files go in under temporary
names, so an I/O error while writing leaves ``--out`` as it was too.
Exit codes: 0 success, 2 input/validation failure, 3 solver or CV
failure, 4 inference failure.
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import sys
from functools import cached_property
from pathlib import Path

import numpy as np

from .cv import CvError, CvResult, cross_validate, make_folds
from .dataprep import (
    DataError,
    ROLE_PREDICTOR,
    ROLE_RESPONSE,
    RawTable,
    StandardizedMatrix,
    SubsetConfig,
    load_csv,
    select_variables,
    standardize,
)
from .enet import ConvergenceError, EnetConfig, EnetPath, fit_mgaussian_path
from .inference import (
    CollinearityError,
    MlmFit,
    PerfectFitError,
    fit_mlm,
    manova_table,
    pearson,
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


def _tsv(header: list[str], line: str, rows, footer: str | None = None) -> str:
    """One TSV file's text, formatted one row at a time: the %-format
    ``line`` is filled from each tuple in ``rows``. Its "%.17g" writes a
    number as :func:`_g17` does; cells that are already text go through
    "%s"."""
    lines = ["\t".join(header)]
    lines.extend(line % row for row in rows)
    if footer is not None:
        lines.append(footer)
    lines.append("")
    return "\n".join(lines)


def _render_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


class _Groups(dict):
    """The configured groups, each z-scored on first use."""

    def __init__(self, table: RawTable, subsets: SubsetConfig):
        super().__init__()
        self.table = table
        self.subsets = subsets

    def __missing__(self, group: str) -> StandardizedMatrix:
        sm = self[group] = standardize(select_variables(self.table, self.subsets, group))
        return sm


class _Files(dict):
    """File name to text; a name that is not a plain file name or that two
    outputs share is rejected when added, before anything is written."""

    def __setitem__(self, name: str, text: str) -> None:
        if Path(name).name != name:
            raise DataError(f"output file name {name!r} is not a plain file name")
        if name in self:
            raise DataError(f"two outputs would both be written to {name!r}")
        super().__setitem__(name, text)


class Pipeline:
    """Shared state for the subcommands so `report` never recomputes.

    The ``run_*`` stages write nothing: each adds its files' text to
    ``files`` (file name to text) and its lines to ``stdout``.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.enet_cfg = _enet_config(args)
        self.table = load_csv(args.input)
        self.subsets = SubsetConfig.load(args.subsets)
        self.predictors = _predictor_flag(args, self.subsets)
        self.standardized = _Groups(self.table, self.subsets)
        self.files = _Files()
        self.stdout = io.StringIO()

    # -- shared stages ----------------------------------------------------

    @cached_property
    def design(self) -> tuple[StandardizedMatrix, StandardizedMatrix]:
        x = self.standardized[self.subsets.group_with_role(ROLE_PREDICTOR)]
        y = self.standardized[self.subsets.group_with_role(ROLE_RESPONSE)]
        return x, y

    @cached_property
    def enet_path(self) -> EnetPath:
        x, y = self.design
        return fit_mgaussian_path(x.matrix, y.matrix, self.enet_cfg)

    @cached_property
    def cv_result(self) -> CvResult:
        x, y = self.design
        n, k = x.matrix.shape[0], self.args.folds
        if k > n:
            raise DataError(f"--folds must be <= the {n} observations, got {k!r}")
        return cross_validate(x.matrix, y.matrix, self.enet_cfg, make_folds(n, k, self.args.seed))

    def selected_lambda_index(self) -> int:
        cv = self.cv_result
        return cv.i_min if self.args.rule == "min" else cv.i_1se

    @cached_property
    def reduced_predictors(self) -> list[str]:
        names = self.predictors
        if names is None:
            x, _ = self.design
            keep = np.any(self.enet_path.coefs[self.selected_lambda_index()] != 0.0, axis=1)
            names = [name for name, kept in zip(x.names, keep) if kept]
        if not names:
            raise DataError("the selected model keeps no predictors")
        return names

    @cached_property
    def mlm_fit(self) -> MlmFit:
        names = self.reduced_predictors  # checked before the design is standardized
        x, y = self.design
        return fit_mlm(
            x.matrix[:, [x.names.index(n) for n in names]],
            y.matrix,
            predictor_names=names,
            response_names=y.names,
        )

    # -- subcommands -------------------------------------------------------

    def run_prep(self) -> None:
        for group in self.subsets.groups:
            sm = self.standardized[group]
            self.files[f"{group}.tsv"] = _tsv(
                sm.names,
                "\t".join(["%.17g"] * len(sm.names)),
                (tuple(row.tolist()) for row in sm.matrix),
            )
            self.files[f"{group}_scale.tsv"] = _tsv(
                ["column", "mean", "sd"],
                "%s\t%.17g\t%.17g",
                zip(sm.names, sm.means.tolist(), sm.sds.tolist()),
            )

    def run_enet(self) -> None:
        path = self.enet_path
        self.files["path.tsv"] = _tsv(
            ["lambda", "dev_ratio", "nonzero"],
            "%.17g\t%.17g\t%d",
            zip(path.lambdas.tolist(), path.dev_ratio.tolist(), path.nonzero.tolist()),
        )
        idx = self.selected_lambda_index()
        lam = float(path.lambdas[idx])
        x, y = self.design

        def coef_cells(coef_row: np.ndarray) -> list[str]:
            if np.any(coef_row != 0.0):
                return [_sci(c, self.args.digits) for c in coef_row]
            return ["removed"] * len(coef_row)

        self.files[f"coef_{lam:.6g}.tsv"] = _tsv(
            ["predictor"] + list(y.names),
            "\t".join(["%s"] * (1 + len(y.names))),
            ((name, *coef_cells(row)) for name, row in zip(x.names, path.coefs[idx])),
        )
        print(f"coefficients written at lambda={_g17(lam)} rule={self.args.rule}", file=self.stdout)

    def run_cv(self) -> None:
        cv = self.cv_result
        self.files["cv.tsv"] = _tsv(
            ["lambda", "mean_error", "se_error"],
            "%.17g\t%.17g\t%.17g",
            zip(cv.lambdas.tolist(), cv.mean_error.tolist(), cv.se_error.tolist()),
        )
        print(f"lambda.min={_g17(cv.lambda_min)}", file=self.stdout)
        print(f"lambda.1se={_g17(cv.lambda_1se)}", file=self.stdout)

    def run_mlm(self) -> None:
        fit = self.mlm_fit
        d = self.args.digits
        out = self.stdout

        def fixed(value: float) -> str:
            return _fixed(value, d)

        def p4(value: float) -> str:
            return _fixed(value, 4)

        manova = manova_table(fit)
        self.files["manova.tsv"] = _tsv(
            ["term", "df", "pillai", "approx_f", "num_df", "den_df", "p", "stars"],
            "%s\t%d\t%.17g\t%.17g\t%d\t%d\t%.17g\t%s",
            (
                (r.term, r.df, r.pillai, r.approx_f, r.num_df, r.den_df, r.p_value,
                 stars(r.p_value))
                for r in manova
            ),
        )
        print("Multivariate tests:", file=out)
        print(
            _render_table(
                ["term", "df", "pillai", "approx F", "num df", "den df", "p", ""],
                [
                    [r.term, str(r.df), fixed(r.pillai), fixed(r.approx_f), str(r.num_df),
                     str(r.den_df), p4(r.p_value), stars(r.p_value)]
                    for r in manova
                ],
            ),
            file=out,
        )

        for k, response in enumerate(fit.response_names):
            summary = univariate_summary(fit, k)
            footer = (
                f"F({summary.df1},{summary.df2})={_g17(summary.f_stat)} "
                f"R2={_g17(summary.r2)} R2adj={_g17(summary.r2_adj)}"
            )
            self.files[f"uni_{response}.tsv"] = _tsv(
                ["term", "estimate", "std_error", "t", "p", "stars"],
                "%s\t%.17g\t%.17g\t%.17g\t%.17g\t%s",
                ((r.name, r.estimate, r.std_error, r.t, r.p, stars(r.p)) for r in summary.coef_rows),
                footer=footer,
            )
            print(f"Follow-up regression: {response}", file=out)
            print(
                _render_table(
                    ["term", "estimate", "std error", "t", "p", ""],
                    [
                        [r.name, fixed(r.estimate), fixed(r.std_error), fixed(r.t), p4(r.p),
                         stars(r.p)]
                        for r in summary.coef_rows
                    ],
                ),
                file=out,
            )
            print(
                f"F({summary.df1},{summary.df2})={fixed(summary.f_stat)} "
                f"R2={p4(summary.r2)} R2adj={p4(summary.r2_adj)} "
                f"sigma={p4(summary.sigma)}",
                file=out,
            )

        entries = vif(fit)
        self.files["vif.tsv"] = _tsv(
            ["predictor", "r2_aux", "vif"],
            "%s\t%.17g\t%.17g",
            ((e.name, e.r2_aux, e.vif) for e in entries),
        )
        print("Variance inflation factors:", file=out)
        print(_render_table(["predictor", "vif"], [[e.name, fixed(e.vif)] for e in entries]), file=out)

        def residual_rows():
            cells = [0.0] * (2 * fit.n_responses)
            for fitted, residuals in zip(fit.fitted, fit.residuals):
                cells[0::2] = fitted.tolist()
                cells[1::2] = residuals.tolist()
                yield tuple(cells)

        # one observation per row of the format: the responses cycle fastest
        self.files["residuals.tsv"] = _tsv(
            ["response", "fitted", "residual"],
            "\n".join(
                name.replace("%", "%%") + "\t%.17g\t%.17g" for name in fit.response_names
            ),
            residual_rows(),
        )

        y = fit.fitted + fit.residuals
        k = fit.n_responses
        for i in range(k):
            for j in range(i + 1, k):
                result = pearson(y[:, i], y[:, j])
                pair = "" if k == 2 else f"{fit.response_names[i]}~{fit.response_names[j]} "
                print(f"pearson {pair}r={_g17(result.r)} p={_g17(result.p)}", file=out)

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


def _enet_config(args: argparse.Namespace) -> EnetConfig:
    """The solver settings the flags ask for; a bad flag value is
    rejected before any data is read."""
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
    return EnetConfig(alpha=args.alpha, nlambda=args.nlambda, lambda_min_ratio=args.lambda_min_ratio)


def _predictor_flag(args: argparse.Namespace, subsets: SubsetConfig) -> list[str] | None:
    """The ``--predictors`` names, checked against the predictor group when
    the config is read, or None when the flag is absent or empty."""
    flag = getattr(args, "predictors", None)
    if not flag:
        return None
    names = [p.strip() for p in flag.split(",") if p.strip()]
    if not names or len(set(names)) < len(names):
        raise DataError(f"--predictors must name distinct predictors, got {flag!r}")
    group = subsets.groups[subsets.group_with_role(ROLE_PREDICTOR)]
    unknown = [p for p in names if p not in group]
    if unknown:
        raise DataError(
            "--predictors: not in the predictor group: " + ", ".join(repr(u) for u in unknown)
        )
    return names


def _write_files(out: Path, files: dict[str, str]) -> None:
    """Write every file into the ``--out`` directory so that an I/O error
    leaves ``--out`` as it was, with no temporary file behind.

    A fresh ``--out`` is built as a hidden sibling directory and renamed
    into place. In an existing one every file is first written under a
    hidden name beside its target, and then each is moved over its target
    with ``os.replace``.
    """
    # names of this process's own, not mkdtemp/mkstemp, which would leave
    # --out and its files readable by the owner alone
    suffix = f".{os.getpid()}.tmp"
    fresh = not out.is_dir()
    staging = out.parent / f".{out.name}{suffix}" if fresh else out
    if fresh:
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            staging.mkdir()
        except OSError as exc:
            raise DataError(
                f"--out: cannot create directory {str(out)!r}: {exc.strerror}"
            ) from None
    temporary = {name: staging / (name if fresh else f".{name}{suffix}") for name in files}
    try:
        for name, text in files.items():
            failure = f"cannot write {name!r}"
            temporary[name].write_text(text, encoding="utf-8", newline="")
        if fresh:
            failure = f"cannot create directory {str(out)!r}"
            staging.rename(out)
        else:
            for name, path in temporary.items():
                failure = f"cannot write {name!r}"
                os.replace(path, out / name)
    except OSError as exc:
        if fresh:
            shutil.rmtree(staging, ignore_errors=True)
        else:
            for path in temporary.values():
                path.unlink(missing_ok=True)
        raise DataError(f"--out: {failure}: {exc.strerror}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        pipeline = Pipeline(args)
        getattr(pipeline, f"run_{args.command}")()
        _write_files(args.out, pipeline.files)
    except _SOLVER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except _INFERENCE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFERENCE
    except _INPUT_ERRORS + (ValueError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write(pipeline.stdout.getvalue())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
