"""CSV ingestion and z-scoring of named column groups.

A table is one comma-separated UTF-8 file, read by path, with "NA" or an
empty cell as its missing value; a leading byte-order mark is skipped, in
the table and in the subset configuration alike. The parser returns the
table as one N x p float64 matrix with NaN for a missing cell, which is
unambiguous because every parsed cell must be finite.

Z-scoring lives here, with the sample standard deviation (divisor N - 1);
the solvers consume the standardized matrices as produced and never
rescale. :func:`standardize` takes a table and the names of a group's
columns: it copies those columns once, checks the copy with one
``np.isnan`` scan, and z-scores it in place. The moments come from
:func:`~enetstats.linalg.center_columns`, which Pearson's correlation
shares. The means and SDs are kept, so ``matrix * sds + means`` maps the
values back.

Subset configuration grammar (flat, line-oriented, no nesting)::

    # comment
    <group>.column = <column name>
    <group>.role = predictor | response

Repeated ``.column`` lines build the group's ordered column list; the
optional ``.role`` line tags a group for the modeling commands. Leading
and trailing whitespace around tokens is ignored; column names may contain
internal spaces.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import center_columns, is_constant

__all__ = [
    "DataError",
    "RawTable",
    "SubsetConfig",
    "StandardizedMatrix",
    "load_csv",
    "standardize",
]

_MISSING_TOKENS = ("NA", "")

ROLE_PREDICTOR = "predictor"
ROLE_RESPONSE = "response"
_VALID_ROLES = (ROLE_PREDICTOR, ROLE_RESPONSE)


class DataError(ValueError):
    """Any failure to read, select or z-score the data; the message names
    the row, column or configuration line at fault."""


@dataclass
class RawTable:
    """Named columns over an N x p float64 matrix ``values``; NaN marks a
    missing cell."""

    names: list[str]
    values: np.ndarray

    def __post_init__(self) -> None:
        if not self.names:
            raise DataError("table must have at least one column")
        seen: set[str] = set()
        for name in self.names:
            if not name:
                raise DataError("column names must be nonempty")
            if name in seen:
                raise DataError(f"duplicate column name {name!r}")
            seen.add(name)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.names):
            raise DataError(
                f"values of shape {self.values.shape} do not hold "
                f"{len(self.names)} cells per row"
            )

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]


@dataclass
class SubsetConfig:
    """Named, ordered column groups with optional predictor/response roles."""

    groups: dict[str, list[str]]
    roles: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for group, columns in self.groups.items():
            if len(set(columns)) != len(columns):
                raise DataError(f"group {group!r} lists a column twice")
        for group, role in self.roles.items():
            if role not in _VALID_ROLES:
                raise DataError(f"invalid role {role!r} for group {group!r}")

    @classmethod
    def from_text(cls, text: str) -> "SubsetConfig":
        groups: dict[str, list[str]] = {}
        roles: dict[str, str] = {}
        # only these three break a line; str.splitlines would also split at
        # \x0c, \x85 and the other characters a CSV header may hold
        for lineno, raw in enumerate(re.split("\r\n|\r|\n", text), start=1):
            line = raw.strip()
            if not _is_utf8(line):
                raise DataError(f"line {lineno}: {line!r} is not valid UTF-8")
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataError(f"line {lineno}: expected '<group>.<key> = <value>'")
            lhs, value = line.split("=", 1)
            lhs = lhs.strip()
            value = value.strip()
            if "." not in lhs:
                raise DataError(f"line {lineno}: expected '<group>.<key>' before '='")
            group, key = lhs.rsplit(".", 1)
            group = group.strip()
            key = key.strip()
            if not group:
                raise DataError(f"line {lineno}: empty group name")
            if key == "column":
                if not value:
                    raise DataError(f"line {lineno}: empty column name")
                columns = groups.setdefault(group, [])
                if value in columns:
                    raise DataError(
                        f"line {lineno}: column {value!r} listed twice in group {group!r}"
                    )
                columns.append(value)
            elif key == "role":
                if value not in _VALID_ROLES:
                    raise DataError(
                        f"line {lineno}: role must be one of {_VALID_ROLES}, got {value!r}"
                    )
                if group in roles:
                    raise DataError(f"line {lineno}: role already set for group {group!r}")
                roles[group] = value
            else:
                raise DataError(f"line {lineno}: unknown key {key!r}")
        for group in roles:
            if group not in groups:
                raise DataError(f"group {group!r} has a role but no columns")
        if not groups:
            raise DataError("configuration defines no groups")
        return cls(groups=groups, roles=roles)

    @classmethod
    def load(cls, path: str | Path) -> "SubsetConfig":
        # utf-8-sig drops a leading byte-order mark; surrogateescape carries
        # a byte that is not UTF-8 into its line, so the error names that line
        return cls.from_text(Path(path).read_text(encoding="utf-8-sig", errors="surrogateescape"))

    def group_with_role(self, role: str) -> str:
        matches = [g for g, r in self.roles.items() if r == role]
        if len(matches) != 1:
            raise DataError(f"expected exactly one group with role {role!r}, found {len(matches)}")
        return matches[0]


@dataclass
class StandardizedMatrix:
    """Column-wise z-scored data plus the means/SDs needed to invert it."""

    matrix: np.ndarray
    means: np.ndarray
    sds: np.ndarray
    names: list[str]

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.sds = np.asarray(self.sds, dtype=float)
        if self.matrix.ndim != 2:
            raise DataError("standardized matrix must be 2-D")
        p = self.matrix.shape[1]
        if not (self.means.shape == (p,) and self.sds.shape == (p,) and len(self.names) == p):
            raise DataError("means/sds/names must all match the column count")
        if not np.all(self.sds > 0):
            raise DataError("standard deviations must be strictly positive")
        col_means = self.matrix.mean(axis=0)
        col_sds = self.matrix.std(axis=0, ddof=1)
        # written so that a NaN anywhere fails the check
        if not (np.all(np.abs(col_means) <= 1e-10) and np.all(np.abs(col_sds - 1.0) <= 1e-10)):
            raise DataError("matrix columns are not standardized to tolerance")


def _is_utf8(text: str) -> bool:
    """False when ``text`` holds a lone surrogate: a byte that was not
    UTF-8, kept by the ``surrogateescape`` decoding."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _parse_cell(text: str) -> float:
    cell = text.strip()
    if cell in _MISSING_TOKENS:
        return math.nan
    try:
        value = float(cell)
    except ValueError:
        if not _is_utf8(cell):
            raise DataError(f"cell {cell!r} is not valid UTF-8") from None
        raise DataError(f"unparseable cell {cell!r}") from None
    if not math.isfinite(value):  # float() accepts nan, inf and overflow
        raise DataError(f"non-finite cell {cell!r}")
    return value


def _records(reader):
    """Number ``reader``'s records from 0 (the header) and its data rows
    from 1, skipping blank lines as :func:`standardize`'s row numbers do,
    and re-raise a ``csv.Error`` as a DataError that names the row."""
    i = 0
    while True:
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise DataError(f"row {i}: {exc}" if i else f"header row: {exc}") from None
        if record or not i:
            yield i, record
            i += 1


def _header(records) -> list[str]:
    """The column names from the first of ``records``, checked."""
    _, header = next(records, (0, None))
    if header is None:
        raise DataError("input is empty; expected a header row")
    names = [h.strip() for h in header]
    seen: set[str] = set()
    for j, name in enumerate(names, start=1):
        if not name:
            raise DataError("header contains an empty column name")
        if not _is_utf8(name):
            raise DataError(f"header row, column {j}: name {name!r} is not valid UTF-8")
        if any(c in name for c in "\t\r\n"):  # each would break the TSVs it reaches
            raise DataError(f"header row, column {j}: name {name!r} holds a tab or line break")
        if name in seen:
            raise DataError(f"duplicate header column {name!r}")
        seen.add(name)
    return names


def _bounded_lines(handle):
    """``handle``'s lines, with a ValueError at one that holds a field
    longer than the csv module's field-size limit, which that module
    rejects whatever the field holds."""
    limit = csv.field_size_limit()
    for line in handle:
        if len(line) > limit and max(map(len, line.rstrip("\r\n").split(","))) > limit:
            raise ValueError("field is longer than the field-size limit")
        yield line


def _c_values(handle, width: int) -> np.ndarray | None:
    """The rest of ``handle`` read by numpy's C ``loadtxt``, or None unless
    that gives at least one row of ``width`` finite numbers.

    ``loadtxt`` is given no quote character, so a quote fails its parse
    and every quoted cell is left to the csv module; a missing token fails
    it too, as ``float()`` rejects it. Both readers skip blank lines.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(
                _bounded_lines(handle), delimiter=",", comments=None, ndmin=2, dtype=float
            )
    except ValueError:
        return None
    if len(values) == 0 or values.shape[1] != width:
        return None
    # a NaN makes both extremes NaN, an inf one of them; no temporary array
    if not (math.isfinite(values.min()) and math.isfinite(values.max())):
        return None
    return values


def load_csv(path: str | Path) -> RawTable:
    """Read the comma-separated table at ``path`` (RFC-4180-style quoting)
    into a RawTable.

    The file is decoded as UTF-8, after an optional byte-order mark, with
    any line ending. The first record is the header. A cell that is "NA"
    or empty becomes NaN; every other cell must parse as a finite decimal
    number (``nan``, ``inf`` and overflowing literals are rejected).
    Errors name the offending data row (1-based) and column, also for a
    byte that is not valid UTF-8.

    The header is always read by the csv module and the rows first by
    numpy's C ``loadtxt``, streamed from the open file; its matrix is kept
    only when every row holds one finite number per column. A quoted cell,
    a missing or unparseable cell, a NaN or inf, a ragged row or an
    overlong field makes it give up, and the file is read again from the
    start by the Python parser, the reference: every error, every NaN for
    a missing cell, and every row and column name in a message come from
    it.
    """
    # surrogateescape carries a bad byte into the cell that holds it, so the
    # error names that cell; a strict decoder fails while reading ahead, on
    # a chunk that may start rows earlier
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as handle:
        names = _header(_records(csv.reader(handle)))
        values = _c_values(handle, len(names))
        if values is not None:
            return RawTable(names=names, values=values)
        handle.seek(0)
        records = _records(csv.reader(handle))
        names = _header(records)
        values = array("d")  # the cells row by row, 8 bytes each
        for i, record in records:
            if len(record) != len(names):
                raise DataError(f"row {i} has {len(record)} cells, expected {len(names)}")
            for name, cell in zip(names, record):
                try:
                    values.append(_parse_cell(cell))
                except DataError as exc:
                    raise DataError(f"row {i}, column {name!r}: {exc}") from None
    if not values:
        raise DataError("no data rows after the header")
    return RawTable(names=names, values=np.frombuffer(values).reshape(-1, len(names)))


def standardize(table: RawTable, columns: list[str]) -> StandardizedMatrix:
    """Z-score the named columns of ``table``, in the order given, with the
    sample standard deviation (divisor N - 1), on one path for every column:
    the centered values of :func:`~enetstats.linalg.center_columns` divided
    by their sd, both at the column's exact power-of-two scale. The columns
    are copied once and z-scored in that copy; ``table`` is left as it is.
    A column not in the table, a missing cell, a constant column, and a
    column whose sd or largest distance from its mean overflows a double
    once scaled back, or whose sd then underflows to 0, are errors naming
    the column.
    """
    absent = [name for name in columns if name not in table.names]
    if absent:
        raise DataError("columns not present in the table: " + ", ".join(map(repr, absent)))
    index = [table.names.index(name) for name in columns]
    # take returns C order like the parser; values[:, index] would return
    # Fortran order, whose column sums round differently
    table = RawTable(names=list(columns), values=table.values.take(index, axis=1))
    if table.n_rows < 2:
        raise DataError(f"need at least 2 rows to standardize, got {table.n_rows}")
    z = table.values  # this copy is z-scored in place
    missing = np.argwhere(np.isnan(z))  # row-major order
    if len(missing):
        i, j = missing[0]
        raise DataError(f"row {i + 1}, column {table.names[j]!r}: missing value")
    constant = np.flatnonzero(is_constant(z))
    if constant.size:
        names = ", ".join(repr(table.names[j]) for j in constant)
        raise DataError(f"constant column(s): {names}")
    means, scales = center_columns(z)
    sds = np.sqrt(np.einsum("ij,ij->j", z, z) / (table.n_rows - 1))
    # scaled back by the power-of-two scales, the sds and the largest
    # distances from the means are exact unless they overflow a double or
    # fall below its normal range, where an sd may round to 0
    with np.errstate(over="ignore"):
        far = np.maximum(sds, np.maximum(z.max(axis=0), -z.min(axis=0))) * scales
        scaled_sds = sds * scales
    too_large = np.flatnonzero(np.isinf(far))
    if too_large.size:
        raise DataError(
            f"column {table.names[too_large[0]]!r} is too large to z-score: its sd or "
            "the distance of a value from its mean overflows a double"
        )
    too_small = np.flatnonzero(scaled_sds == 0.0)
    if too_small.size:
        raise DataError(
            f"column {table.names[too_small[0]]!r} is too small to z-score: its sd "
            "underflows to 0 in a double"
        )
    z /= sds
    return StandardizedMatrix(matrix=z, means=means, sds=scaled_sds, names=list(table.names))
