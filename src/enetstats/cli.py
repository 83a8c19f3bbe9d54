"""Command-line pipeline: prep -> enet -> cv -> mlm -> report.

Each table the CLI writes is declared once, as a :class:`_Table`: its
file name and its columns, each with a TSV header and %-format and, where
the table is shown on stdout, a display header and format. :func:`_tsv`
writes a table's rows as TSV (UTF-8, LF, header row first, numbers at 17
significant digits so every value round-trips); :func:`_render` shows the
same rows as aligned text at ``--digits`` (p-values at 4).

A run computes first and writes once: ``--out`` is created,
the files written and stdout printed only after every stage of the
command has returned, so a failed run creates or changes no file in
``--out`` and prints nothing to stdout; the files go in under temporary
names, so an error while writing leaves ``--out`` as it was too. The
stages keep each file's table and rows, not its text: the rows are
formatted while each file is written, so the CLI never holds an output
file's text.
Exit codes: 0 success, 2 input/validation failure, 3 solver or CV
failure, 4 inference failure.
"""

from __future__ import annotations

import argparse
import io
import itertools
import os
import shutil
import sys
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

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
_BUFFER = 1 << 18  # write buffer per output file, in bytes


def _g17(value: float) -> str:
    return format(float(value), ".17g")


def stars(p: float) -> str:
    """Significance code for a p-value: *** / ** / * / NS."""
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return "NS"


class _Column(NamedTuple):
    header: str  # TSV header
    fmt: str  # TSV %-format; "%.17g" writes a number as _g17 does
    shown: str | None = None  # display header; None keeps the column off screen
    spec: str = ""  # display format spec; "{}" takes --digits, "" shows it as is


class _Table(NamedTuple):
    file: str  # file name; "{}" takes the group, lambda or response
    columns: tuple[_Column, ...]
    each: str = ""  # %-format of the one column per data name after these
    title: str = ""  # the line above the stdout table; "{}" as in ``file``


_G = "%.17g"
_FIXED = ".{}g"  # --digits significant digits
_P = ".4g"  # p-values
_GROUP = _Table("{}.tsv", (), each=_G)
_SCALE = _Table("{}_scale.tsv", (_Column("column", "%s"), _Column("mean", _G), _Column("sd", _G)))
_PATH = _Table(
    "path.tsv", (_Column("lambda", _G), _Column("dev_ratio", _G), _Column("nonzero", "%d"))
)
_COEF = _Table("coef_{:.6g}.tsv", (_Column("predictor", "%s"),), each="%s")
_CV = _Table("cv.tsv", (_Column("lambda", _G), _Column("mean_error", _G), _Column("se_error", _G)))
_MANOVA = _Table(
    "manova.tsv",
    (
        _Column("term", "%s", "term"),
        _Column("df", "%d", "df"),
        _Column("pillai", _G, "pillai", _FIXED),
        _Column("approx_f", _G, "approx F", _FIXED),
        _Column("num_df", "%d", "num df"),
        _Column("den_df", "%d", "den df"),
        _Column("p", _G, "p", _P),
        _Column("stars", "%s", ""),
    ),
    title="Multivariate tests:",
)
_UNI = _Table(
    "uni_{}.tsv",
    (
        _Column("term", "%s", "term"),
        _Column("estimate", _G, "estimate", _FIXED),
        _Column("std_error", _G, "std error", _FIXED),
        _Column("t", _G, "t", _FIXED),
        _Column("p", _G, "p", _P),
        _Column("stars", "%s", ""),
    ),
    title="Follow-up regression: {}",
)
_VIF = _Table(
    "vif.tsv",
    (
        _Column("predictor", "%s", "predictor"),
        _Column("r2_aux", _G),
        _Column("vif", _G, "vif", _FIXED),
    ),
    title="Variance inflation factors:",
)
_RESIDUALS = _Table(
    "residuals.tsv", (_Column("response", "%s"), _Column("fitted", _G), _Column("residual", _G))
)


def _tsv(sink, table: _Table, rows, names=(), footer=()) -> None:
    """Write a table's TSV text to the text file ``sink``: each tuple in
    ``rows`` fills the columns' %-formats, and then one ``table.each``
    column per entry of ``names``; the ``footer`` lines follow. Rows are
    formatted while the file is written, 32 to a ``write``, so no more
    than a chunk of the text exists at once."""
    line = "\t".join([c.fmt for c in table.columns] + [table.each] * len(names))
    sink.write("\t".join([c.header for c in table.columns] + list(names)) + "\n")
    rows = iter(rows)
    while chunk := [line % row for row in itertools.islice(rows, 32)]:
        chunk.append("")  # each line ends in LF
        sink.write("\n".join(chunk))
    for text in footer:
        sink.write(text + "\n")


def _render(table: _Table, rows, digits: int, key=None) -> str:
    """A table's title and aligned stdout text: the shown columns of
    ``rows``, each cell formatted by its column's display spec."""
    shown = [(i, c) for i, c in enumerate(table.columns) if c.shown is not None]
    cells = [[c.shown for _, c in shown]]
    cells.extend([format(row[i], c.spec.format(digits)) for i, c in shown] for row in rows)
    widths = [max(len(row[j]) for row in cells) for j in range(len(shown))]
    lines = [table.title.format(key)]
    lines.extend("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells)
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
    """File name to the table, rows, names and footer :func:`_tsv` writes
    it from; a name that is not a plain file name or that two outputs share
    is rejected when added, before anything is written."""

    def __setitem__(self, name: str, output: tuple) -> None:
        if Path(name).name != name:
            raise DataError(f"output file name {name!r} is not a plain file name")
        if name in self:
            raise DataError(f"two outputs would both be written to {name!r}")
        super().__setitem__(name, output)


class Pipeline:
    """Shared state for the subcommands so `report` never recomputes.

    The ``run_*`` stages write nothing: each adds its files to ``files``
    (file name to table, rows, names and footer, formatted only when the
    file is written) and its lines to ``stdout``.
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

    def _add(self, table: _Table, rows, key=None, names=(), footer=()) -> None:
        """Add a table's file; a titled table is small, and its listed rows also go to stdout."""
        if table.title:
            rows = list(rows)
            print(_render(table, rows, self.args.digits, key), file=self.stdout)
        self.files[table.file.format(key)] = (table, rows, names, footer)

    def run_prep(self) -> None:
        for group in self.subsets.groups:
            sm = self.standardized[group]
            self._add(_GROUP, (tuple(row.tolist()) for row in sm.matrix), group, sm.names)
            self._add(_SCALE, zip(sm.names, sm.means.tolist(), sm.sds.tolist()), group)

    def run_enet(self) -> None:
        path = self.enet_path
        self._add(_PATH, zip(path.lambdas.tolist(), path.dev_ratio.tolist(), path.nonzero.tolist()))
        idx = self.selected_lambda_index()
        lam = float(path.lambdas[idx])
        x, y = self.design
        sci = f".{self.args.digits - 1}e"

        def coef_row(name: str, coefs: np.ndarray) -> tuple:
            if np.any(coefs != 0.0):
                return (name, *(format(c, sci) for c in coefs.tolist()))
            return (name, *["removed"] * len(coefs))

        self._add(_COEF, map(coef_row, x.names, path.coefs[idx]), lam, y.names)
        print(f"coefficients written at lambda={_g17(lam)} rule={self.args.rule}", file=self.stdout)

    def run_cv(self) -> None:
        cv = self.cv_result
        self._add(_CV, zip(cv.lambdas.tolist(), cv.mean_error.tolist(), cv.se_error.tolist()))
        print(f"lambda.min={_g17(cv.lambda_min)}", file=self.stdout)
        print(f"lambda.1se={_g17(cv.lambda_1se)}", file=self.stdout)

    def run_mlm(self) -> None:
        fit = self.mlm_fit
        d = self.args.digits
        out = self.stdout

        rows = [
            (r.term, r.df, r.pillai, r.approx_f, r.num_df, r.den_df, r.p_value, stars(r.p_value))
            for r in manova_table(fit)
        ]
        self._add(_MANOVA, rows)

        for k, response in enumerate(fit.response_names):
            s = univariate_summary(fit, k)
            rows = [(r.name, r.estimate, r.std_error, r.t, r.p, stars(r.p)) for r in s.coef_rows]
            head = f"F({s.df1},{s.df2})="
            footer = f"{head}{_g17(s.f_stat)} R2={_g17(s.r2)} R2adj={_g17(s.r2_adj)}"
            self._add(_UNI, rows, response, footer=[footer])
            print(
                f"{head}{s.f_stat:.{d}g} R2={s.r2:.4g} R2adj={s.r2_adj:.4g} sigma={s.sigma:.4g}",
                file=out,
            )

        self._add(_VIF, ((e.name, e.r2_aux, e.vif) for e in vif(fit)))

        # one row per observation and response, the responses cycling
        # fastest; a memoryview yields the floats without a list of them all
        cells = [memoryview(a.ravel()) for a in (fit.fitted, fit.residuals)]
        self._add(_RESIDUALS, zip(itertools.cycle(fit.response_names), *cells))

        y = self.design[1].matrix
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
            "--digits", type=int, default=6, help="significant digits: stdout tables, coef_*.tsv"
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


def _write_files(out: Path, files: dict[str, tuple]) -> None:
    """Write every file, each by :func:`_tsv` from its entry in ``files``,
    into the ``--out`` directory so that an error while writing leaves
    ``--out`` as it was, with no temporary file behind.

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
        for name, output in files.items():
            failure = f"cannot write {name!r}"
            with temporary[name].open("w", encoding="utf-8", newline="", buffering=_BUFFER) as sink:
                _tsv(sink, *output)
        if fresh:
            failure = f"cannot create directory {str(out)!r}"
            staging.rename(out)
        else:
            for name, path in temporary.items():
                failure = f"cannot write {name!r}"
                os.replace(path, out / name)
    except BaseException as exc:
        if fresh:
            shutil.rmtree(staging, ignore_errors=True)
        else:
            for path in temporary.values():
                path.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise DataError(f"--out: {failure}: {exc.strerror}") from None
        raise


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
