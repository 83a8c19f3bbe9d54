"""Command-line pipeline: prep -> enet -> cv -> mlm -> report.

Each table the CLI writes is declared once, as a :class:`_Table`: its
file name and its columns, each with a TSV header and %-format and, where
the table is shown on stdout, a display header and format. Each stage
hands a table over as one sequence per column. :func:`_tsv` writes it as
TSV (UTF-8, LF, header row first, numbers at 17 significant digits so
every value round-trips); :func:`_render` shows the same columns' rows as
aligned text at ``--digits`` (p-values at 4).

The inputs are read once: the groups a command reads are z-scored as
the CSV is read, and the table is then dropped. A run computes first and
writes once: ``--out`` is created, the files written and stdout printed
only after every stage has returned, so a failed run creates or changes
no file in ``--out`` and prints nothing to stdout; the files go in under
temporary names, so an error while writing leaves ``--out`` as it was
too. The stages keep each file's columns, not its text: the cells are
formatted while each file is written, about 2,048 at a time, the numbers
by a vectorized %.17g (:func:`_g17`) whose text equals Python's for every
double.
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
from typing import NamedTuple

import numpy as np

from .cv import CvError, CvResult, cross_validate, make_folds
from .dataprep import (
    DataError,
    ROLE_PREDICTOR,
    ROLE_RESPONSE,
    StandardizedMatrix,
    SubsetConfig,
    load_csv,
    standardize,
)
from .enet import ConvergenceError, EnetConfig, EnetPath, fit_mgaussian_path
from .inference import (
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

_INPUT_ERRORS = (ValueError, OSError)  # DataError is a ValueError; an unreadable input, OSError
_SOLVER_ERRORS = (ConvergenceError, CvError)
_INFERENCE_ERRORS = (RankDeficiencyError, PerfectFitError)
_BUFFER = 1 << 18  # write buffer per output file, in bytes


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
    fmt: str  # TSV %-format
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


_CELLS = 2048  # cells formatted and written at a time
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter
_TEN = np.cumprod(np.r_[1.0, np.full(22, 10.0)])  # 10^0 .. 10^22, each exact
_TEN_HI = _TEN * _SPLIT - (_TEN * _SPLIT - _TEN)
_TEN_LO = _TEN - _TEN_HI
# "0000" .. "9999" as 4-byte words
_QUADS = np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij")
_QUADS = np.stack(_QUADS, axis=-1).view(np.uint32).ravel()


def _slots() -> tuple[np.ndarray, np.ndarray]:
    """The %.17g text of 1e-6 < |x| < 1e17 and a tab are some of the bytes
    of one 44-byte slot: "-0.000", the 17 digits each followed by a "."
    but the last, "e-0X" and the tab. Return the slot and which bytes are
    kept, by sign, decimal exponent e (-6 .. 16) and count of digits to
    the last nonzero one (1 .. 17): row (23 * sign + e + 6) * 17 + count - 1."""
    j = np.arange(44)
    e, nd = np.arange(-6, 17)[:, None, None], np.arange(1, 18)[:, None]
    fixed, below_1 = e >= -4, (e >= -4) & (e < 0)  # below 1: "0." and -e - 1 zeros
    shown = np.where(e >= 0, np.maximum(nd, e + 1), nd)  # digits shown
    dot = np.where(fixed, e, 0)  # the digit that "." follows
    digit, body = (j - 6) // 2, (j >= 6) & (j < 39)
    keep = (j == 43) | ~fixed & (j >= 39) | below_1 & (j >= 1) & (j < 2 - e)
    keep = keep | body & (j % 2 == 0) & (digit < shown)
    keep = keep | body & (j % 2 == 1) & ~below_1 & (digit == dot) & (shown > dot + 1)
    keep = np.stack([keep, keep | (j == 0)])  # "-" for the negatives
    return np.frombuffer(b"-0.000" + b"0." * 16 + b"0e-00\t", np.uint8), keep.reshape(-1, 44)


_SLOT, _KEEP = _slots()


def _decimal(a: np.ndarray, e10: np.ndarray) -> np.ndarray:
    """a * 10^(16 - e10) rounded half to even to an integer, exactly, where
    it lies between 10^16 and 10^17 and a > 2^-20: Dekker's product gives
    it as p + e with no rounding error, p an integer and e a multiple of
    2^-50 whose fraction is exact."""
    k = 16 - e10
    p, ten_hi, ten_lo = a * _TEN.take(k), _TEN_HI.take(k), _TEN_LO.take(k)
    hi = a * _SPLIT
    hi -= hi - a  # Veltkamp's split: a = hi + lo, with 26 bits each
    lo = a - hi
    e = ((hi * ten_hi - p) + hi * ten_lo + lo * ten_hi) + lo * ten_lo
    whole = np.floor(e)
    e -= whole
    q = p.astype(np.int64) + whole.astype(np.int64)
    q += (e > 0.5) | ((e == 0.5) & (q & 1 == 1))
    return q


def _g17(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each double of ``values`` as its ``%.17g`` text and a tab: row i of
    the returned (n, 44) byte matrix holds cell i in the bytes where row i
    of the returned mask is True.

    The 17 digits are |x| * 10^(16 - e) rounded half to even, exactly
    (:func:`_decimal`), at the decade e that ``log10`` proposes, clipped to
    -6 .. 16. They are kept only strictly between 10^16 and 10^17, which
    they reach only when e is |x|'s decade and no rounding carried into
    the next; the bytes are then laid out as ``%g`` does (:func:`_slots`).
    Python formats every other cell: 0, -0.0, inf, nan, the cells below
    1e-6 or from 1e17 up, those whose digits are a 1 and zeros (1, 10,
    0.01, ...), and the rare cell whose ``log10`` picked a neighbouring
    decade.
    """
    x = values.ravel()
    a = np.abs(x)
    fast = (a > 0.0) & (a < 2.0**63)  # so that _decimal's p casts to an int64
    a[~fast] = 1.0  # formatted by Python below
    e10 = np.clip(np.floor(np.log10(a)).astype(np.intp), -6, 16)
    q = _decimal(a, e10)
    fast &= (q > 10**16) & (q < 10**17)  # 10^16 may be a lower decade's rounded up
    groups = np.empty((x.size, 5), np.int16)  # the leading digit, then 4 x 4
    for j in (4, 3, 2, 1):
        q, groups[:, j] = np.divmod(q, 10_000)
    groups[:, 0] = q
    digits = _QUADS.take(groups).view(np.uint8)[:, 3:]
    text = np.empty((x.size, 44), np.uint8)
    text[:] = _SLOT
    text[:, 6:39:2] = digits
    text[:, 42] = 48 - e10
    nd = 17 - np.argmax(digits[:, ::-1] != 48, axis=1)
    keep = _KEEP.take((np.signbit(x) * 23 + e10 + 6) * 17 + nd - 1, axis=0)
    slow = np.flatnonzero(~fast)
    if slow.size:  # right-aligned, so the tab stays the slot's last byte
        cells, kept = _encode([format(v, ".17g") for v in x[slow].tolist()])
        text[slow, 44 - cells.shape[1] :] = cells
        keep[slow] = False
        keep[slow, 44 - cells.shape[1] :] = kept
    return text, keep


def _encode(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Each string of ``texts`` as its UTF-8 bytes and a tab, laid out as
    :func:`_g17` lays out its cells, the tab last in each row."""
    data = [t.encode("utf-8") for t in texts]
    lengths = np.fromiter(map(len, data), np.intp, len(data))
    keep = np.arange(lengths.max(initial=0) + 1) < lengths[:, None]
    cells = np.full(keep.shape, 9, np.uint8)
    cells[keep] = np.frombuffer(b"".join(data), np.uint8)
    keep[:, -1] = True
    return cells, keep


def _tsv(sink, table: _Table, columns, names=(), footer=()) -> None:
    """Write a table's TSV bytes to the binary file ``sink``: ``columns``
    holds one sequence for each of the table's columns and then one
    ``table.each`` column per entry of ``names``; a text column shorter
    than the others repeats. The ``footer`` lines follow. The text columns
    are encoded once; the rows are formatted and written ``_CELLS`` cells
    at a time (:func:`_rows`), so no more than a chunk of text exists."""
    fmts = [c.fmt for c in table.columns] + [table.each] * len(names)
    head = "\t".join([c.header for c in table.columns] + list(names)) + "\n"
    sink.write(head.encode("utf-8"))
    floats, cells = [], []  # each text column's cells, or a float one's index in floats
    for fmt, col in zip(fmts, columns):
        if fmt == _G:
            cells.append(len(floats))
            floats.append(np.asarray(col, float))
        else:
            cells.append(_encode([fmt % v for v in col]))
    n, step = max(map(len, columns)), max(1, _CELLS // len(fmts))
    for i in range(0, n, step):
        sink.write(_rows(floats, cells, np.arange(i, min(i + step, n))))
    for line in footer:
        sink.write((line + "\n").encode("utf-8"))


def _rows(floats: list[np.ndarray], cells: list, at: np.ndarray) -> np.ndarray:
    """The TSV bytes of the consecutive rows ``at``: each row is its cells'
    slots side by side (:func:`_g17`, :func:`_encode`), its last tab
    turned into a line feed, and the bytes kept are returned."""
    if floats:
        text, keep = _g17(np.stack([c[at[0] : at[-1] + 1] for c in floats], axis=1))
        text, keep = text.reshape(at.size, -1), keep.reshape(at.size, -1)
    if len(floats) < len(cells):
        blocks = [
            (text[:, 44 * c : 44 * c + 44], keep[:, 44 * c : 44 * c + 44])
            if isinstance(c, int)
            else (c[0][at % len(c[0])], c[1][at % len(c[1])])
            for c in cells
        ]
        text, keep = (np.concatenate(b, axis=1) for b in zip(*blocks))
    text[:, -1] = 10
    return np.compress(keep.ravel(), text)


def _render(table: _Table, columns, digits: int, key=None) -> str:
    """A table's title and aligned stdout text: the shown ``columns``, each
    cell formatted by its column's display spec; a column shorter than the
    others repeats, as in :func:`_tsv`."""
    shown = [(columns[i], c) for i, c in enumerate(table.columns) if c.shown is not None]
    cells = [[c.shown for _, c in shown]]
    for r in range(max(map(len, columns))):
        cells.append([format(col[r % len(col)], c.spec.format(digits)) for col, c in shown])
    widths = [max(len(row[j]) for row in cells) for j in range(len(shown))]
    lines = [table.title.format(key)]
    lines.extend("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells)
    return "\n".join(lines)


class Pipeline:
    """Shared state for the subcommands so `report` never recomputes.

    ``standardized`` holds the groups the command reads, z-scored when the
    inputs are read (every group in config order for `prep` and `report`,
    else the predictor and then the response group); no table is kept.
    The ``run_*`` stages write nothing: each adds its files to ``files``
    (file name to table, columns, names and footer, formatted only when
    written) and its lines to ``stdout``.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.enet_cfg = _enet_config(args)
        table = load_csv(args.input)
        subsets = self.subsets = SubsetConfig.load(args.subsets)
        self.predictors = _predictor_flag(args, subsets)
        groups = subsets.groups
        if args.command not in ("prep", "report"):
            groups = [subsets.group_with_role(r) for r in (ROLE_PREDICTOR, ROLE_RESPONSE)]
        self.standardized = {g: standardize(table, subsets.groups[g]) for g in groups}
        cross_validates = args.command != "prep" and not (args.command == "mlm" and self.predictors)
        if cross_validates and args.folds > table.n_rows:
            raise DataError(
                f"--folds must be <= the {table.n_rows} observations, got {args.folds!r}"
            )
        self.files: dict[str, tuple] = {}
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
        folds = make_folds(x.matrix.shape[0], self.args.folds, self.args.seed)
        try:
            return cross_validate(x.matrix, y.matrix, self.enet_cfg, folds)
        except CvError as exc:  # name a training slice's constant predictor
            if exc.column is None:
                raise
            what = f"training slice: predictor {x.names[exc.column]!r} is constant"
            raise CvError(f"fold {exc.fold}: {what}", fold=exc.fold) from None

    def selected_lambda_index(self) -> int:
        cv = self.cv_result
        return cv.i_min if self.args.rule == "min" else cv.i_1se

    @cached_property
    def reduced_predictors(self) -> list[str]:
        names = self.predictors
        if names is None:
            x, _ = self.design
            keep = self.enet_path.coefs[self.selected_lambda_index()].any(axis=1)
            names = [name for name, kept in zip(x.names, keep) if kept]
        if not names:
            raise DataError("the selected model keeps no predictors")
        if len(names) < 2:
            raise DataError(
                f"the selected model keeps one predictor, {names[0]!r}; VIF needs at least 2"
            )
        return names

    @cached_property
    def mlm_fit(self) -> MlmFit:
        names = self.reduced_predictors
        x, y = self.design
        return fit_mlm(
            x.matrix[:, [x.names.index(n) for n in names]],
            y.matrix,
            predictor_names=names,
            response_names=y.names,
        )

    # -- subcommands -------------------------------------------------------

    def _add(self, table: _Table, columns, key=None, names=(), footer=()) -> None:
        """Add a table's file under a plain name no other output takes; a
        titled table is small, and its rows also go to stdout."""
        if table.title:
            print(_render(table, columns, self.args.digits, key), file=self.stdout)
        name = table.file.format(key)
        if Path(name).name != name:
            raise DataError(f"output file name {name!r} is not a plain file name")
        if name in self.files:
            raise DataError(f"two outputs would both be written to {name!r}")
        self.files[name] = (table, columns, names, footer)

    def run_prep(self) -> None:
        for group, sm in self.standardized.items():
            self._add(_GROUP, list(sm.matrix.T), group, sm.names)
            self._add(_SCALE, (sm.names, sm.means, sm.sds), group)

    def run_enet(self) -> None:
        path = self.enet_path
        self._add(_PATH, (path.lambdas, path.dev_ratio, path.nonzero.tolist()))
        idx = self.selected_lambda_index()
        lam = float(path.lambdas[idx])
        x, y = self.design
        sci = f".{self.args.digits - 1}e"
        kept = path.coefs[idx].any(axis=1).tolist()
        responses = [
            [format(c, sci) if keep else "removed" for c, keep in zip(col.tolist(), kept)]
            for col in path.coefs[idx].T
        ]
        self._add(_COEF, [x.names, *responses], lam, y.names)
        print(f"coefficients written at lambda={lam:.17g} rule={self.args.rule}", file=self.stdout)

    def run_cv(self) -> None:
        cv = self.cv_result
        self._add(_CV, (cv.lambdas, cv.mean_error, cv.se_error))
        print(f"lambda.min={cv.lambda_min:.17g}", file=self.stdout)
        print(f"lambda.1se={cv.lambda_1se:.17g}", file=self.stdout)

    def run_mlm(self) -> None:
        fit = self.mlm_fit
        d = self.args.digits
        out = self.stdout
        names = fit.predictor_names

        m = manova_table(fit)
        columns = (names, [m.df], m.pillai, m.approx_f, [m.num_df], [m.den_df])
        self._add(_MANOVA, (*columns, m.p_value, list(map(stars, m.p_value))))

        terms = ["intercept", *names]
        for k, response in enumerate(fit.response_names):
            s = univariate_summary(fit, k)
            columns = (terms, s.estimate, s.std_error, s.t, s.p, list(map(stars, s.p)))
            head = f"F({s.df1},{s.df2})="
            footer = f"{head}{s.f_stat:.17g} R2={s.r2:.17g} R2adj={s.r2_adj:.17g}"
            self._add(_UNI, columns, response, footer=[footer])
            print(
                f"{head}{s.f_stat:.{d}g} R2={s.r2:.4g} R2adj={s.r2_adj:.4g} sigma={s.sigma:.4g}",
                file=out,
            )

        self._add(_VIF, (names, *vif(fit)))  # its columns r2_aux and vif

        # one row per observation and response, the response names
        # repeating fastest
        self._add(_RESIDUALS, (fit.response_names, fit.fitted.ravel(), fit.residuals.ravel()))

        y = self.design[1].matrix
        k = fit.n_responses
        for i in range(k):
            for j in range(i + 1, k):
                result = pearson(y[:, i], y[:, j])
                pair = "" if k == 2 else f"{fit.response_names[i]}~{fit.response_names[j]} "
                print(f"pearson {pair}r={result.r:.17g} p={result.p:.17g}", file=out)

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
        # 17 significant digits round-trip a double; more print binary noise
        ("digits", 1 <= args.digits <= 17, "in [1, 17]"),
    ):
        if not ok:
            raise DataError(f"--{field} must be {rule}, got {getattr(args, field)!r}")
    return EnetConfig(alpha=args.alpha, nlambda=args.nlambda, lambda_min_ratio=args.lambda_min_ratio)


def _predictor_flag(args: argparse.Namespace, subsets: SubsetConfig) -> list[str] | None:
    """The ``--predictors`` names, at least 2 for VIF, checked against the
    predictor group when the config is read, or None when the flag is
    absent or empty."""
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
    if len(names) < 2:
        raise DataError(f"--predictors must name at least 2 predictors for VIF, got {flag!r}")
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
            with temporary[name].open("wb", buffering=_BUFFER) as sink:
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
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write(pipeline.stdout.getvalue())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
