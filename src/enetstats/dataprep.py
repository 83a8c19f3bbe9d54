"""CSV ingestion, variable-subset selection, and z-score standardization.

The parser returns each table as one N x p float64 matrix with NaN for a
missing cell, which is unambiguous because every parsed cell must be
finite. Selecting a group is column indexing, and the missing-value check
is one ``np.isnan`` scan.

Column scaling lives here and only here: every downstream solver consumes
the standardized matrices exactly as produced (no internal rescaling), so
one module owns the scaling convention. Standardization uses the sample
standard deviation (divisor N - 1), and the per-column means and SDs are
kept, so ``matrix * sds + means`` maps the values back.

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
import io
import math
import warnings
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import is_constant

__all__ = [
    "DataError",
    "CsvFormatError",
    "ConfigError",
    "UnknownColumnError",
    "MissingValueError",
    "ConstantColumnError",
    "RawTable",
    "SubsetConfig",
    "StandardizedMatrix",
    "load_csv",
    "select_variables",
    "standardize",
]

DEFAULT_MISSING_TOKENS = ("NA", "")

ROLE_PREDICTOR = "predictor"
ROLE_RESPONSE = "response"
_VALID_ROLES = (ROLE_PREDICTOR, ROLE_RESPONSE)


class DataError(ValueError):
    """Base class for all ingestion and preparation failures."""


class CsvFormatError(DataError):
    """Malformed CSV input: ragged row, bad header, or unparseable cell."""


class ConfigError(DataError):
    """Malformed subset-configuration file."""


class UnknownColumnError(DataError):
    """A configured column does not exist in the table."""


class MissingValueError(DataError):
    """A missing cell reached a stage that requires complete data."""


class ConstantColumnError(DataError):
    """A column has zero sample variance and cannot be standardized."""


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
                raise ConfigError(f"group {group!r} lists a column twice")
        for group, role in self.roles.items():
            if role not in _VALID_ROLES:
                raise ConfigError(f"invalid role {role!r} for group {group!r}")

    @classmethod
    def from_text(cls, text: str) -> "SubsetConfig":
        groups: dict[str, list[str]] = {}
        roles: dict[str, str] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not _is_utf8(line):
                raise ConfigError(f"line {lineno}: {line!r} is not valid UTF-8")
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected '<group>.<key> = <value>'")
            lhs, value = line.split("=", 1)
            lhs = lhs.strip()
            value = value.strip()
            if "." not in lhs:
                raise ConfigError(f"line {lineno}: expected '<group>.<key>' before '='")
            group, key = lhs.rsplit(".", 1)
            group = group.strip()
            key = key.strip()
            if not group:
                raise ConfigError(f"line {lineno}: empty group name")
            if key == "column":
                if not value:
                    raise ConfigError(f"line {lineno}: empty column name")
                columns = groups.setdefault(group, [])
                if value in columns:
                    raise ConfigError(
                        f"line {lineno}: column {value!r} listed twice in group {group!r}"
                    )
                columns.append(value)
            elif key == "role":
                if value not in _VALID_ROLES:
                    raise ConfigError(
                        f"line {lineno}: role must be one of {_VALID_ROLES}, got {value!r}"
                    )
                if group in roles:
                    raise ConfigError(f"line {lineno}: role already set for group {group!r}")
                roles[group] = value
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        for group in roles:
            if group not in groups:
                raise ConfigError(f"group {group!r} has a role but no columns")
        if not groups:
            raise ConfigError("configuration defines no groups")
        return cls(groups=groups, roles=roles)

    @classmethod
    def load(cls, path: str | Path) -> "SubsetConfig":
        # surrogateescape carries a byte that is not UTF-8 into its line,
        # so the error names that line
        return cls.from_text(Path(path).read_text(encoding="utf-8", errors="surrogateescape"))

    def group_with_role(self, role: str) -> str:
        matches = [g for g, r in self.roles.items() if r == role]
        if len(matches) != 1:
            raise ConfigError(
                f"expected exactly one group with role {role!r}, found {len(matches)}"
            )
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


def _parse_cell(text: str, missing_tokens: tuple[str, ...]) -> float:
    cell = text.strip()
    if cell in missing_tokens:
        return math.nan
    try:
        value = float(cell)
    except ValueError:
        if not _is_utf8(cell):
            raise CsvFormatError(f"cell {cell!r} is not valid UTF-8") from None
        raise CsvFormatError(f"unparseable cell {cell!r}") from None
    if not math.isfinite(value):  # float() accepts nan, inf and overflow
        raise CsvFormatError(f"non-finite cell {cell!r}")
    return value


def _records(reader):
    """Number ``reader``'s records from 0 (the header) and its data rows
    from 1, skipping blank lines as :func:`standardize`'s row numbers do,
    and re-raise a ``csv.Error`` as a CsvFormatError that names the row."""
    i = 0
    while True:
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise CsvFormatError(f"row {i}: {exc}" if i else f"header row: {exc}") from None
        if record or not i:
            yield i, record
            i += 1


def _parses_as_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _rewind_point(stream):
    """Where ``stream`` can be rewound to, or None when it cannot be."""
    try:
        return stream.tell() if stream.seekable() else None
    except OSError:  # a text file iterated with next() cannot tell
        return None


def _header(records) -> list[str]:
    """The column names from the first of ``records``, checked."""
    _, header = next(records, (0, None))
    if header is None:
        raise CsvFormatError("input is empty; expected a header row")
    names = [h.strip() for h in header]
    seen: set[str] = set()
    for j, name in enumerate(names, start=1):
        if not name:
            raise CsvFormatError("header contains an empty column name")
        if not _is_utf8(name):
            raise CsvFormatError(f"header row, column {j}: name {name!r} is not valid UTF-8")
        if name in seen:
            raise CsvFormatError(f"duplicate header column {name!r}")
        seen.add(name)
    return names


def _single_lines(stream):
    """``stream``'s lines, with a ValueError at one the csv module could
    reject whatever its cells hold: one longer than its field-size limit,
    or one with a line break before its end (a text stream that splits
    lines at "\n" only keeps a lone "\r", where the C reader would split)."""
    limit = csv.field_size_limit()
    for line in stream:
        body = line.rstrip("\r\n")
        if len(body) > limit or "\r" in body or "\n" in body:
            raise ValueError("line is not a single record of bounded fields")
        yield line


def _c_values(stream, delimiter: str, width: int) -> np.ndarray | None:
    """The rest of ``stream`` read by numpy's C ``loadtxt``, or None unless
    that gives at least one row of ``width`` finite numbers.

    ``loadtxt`` is given no quote character, so a quote fails its parse
    and every quoted cell is left to the csv module; a missing token fails
    it too, as ``float()`` rejects it. Both readers skip blank lines.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(
                _single_lines(stream), delimiter=delimiter, comments=None, ndmin=2, dtype=float
            )
    except ValueError:
        return None
    if len(values) == 0 or values.shape[1] != width:
        return None
    # a NaN makes both extremes NaN, an inf one of them; no temporary array
    if not (math.isfinite(values.min()) and math.isfinite(values.max())):
        return None
    return values


def load_csv(
    source,
    delimiter: str = ",",
    missing_tokens: tuple[str, ...] = DEFAULT_MISSING_TOKENS,
) -> RawTable:
    """Read a delimited table (RFC-4180-style quoting) into a RawTable.

    ``source`` may be a path, bytes, or an open text/byte stream; paths,
    bytes and byte streams are decoded as UTF-8 with any line ending. The
    first record is the header. Cells matching a missing token become NaN;
    all other cells must parse as finite decimal numbers (``nan``, ``inf``
    and overflowing literals are rejected). Errors name the offending data
    row (1-based) and column, also for a byte that is not valid UTF-8.
    ``delimiter`` is one character other than a quote, CR or LF. A byte
    stream is left open.

    The header is always read by the csv module. When the source can be
    rewound and ``float()`` rejects every missing token, the rows are
    first read by numpy's C ``loadtxt``, streamed from the open source;
    its matrix is kept only when every row holds one finite number per
    column. A quoted cell, a missing or unparseable cell, a NaN or inf, a
    ragged row or an overlong line makes it give up, and the source is
    read again from the start by the Python parser, the reference: every
    error, every NaN for a missing cell, and every row and column name in
    a message come from it. Bytes and paths can be rewound; a stream that
    cannot is read by the Python parser alone.
    """
    if not (isinstance(delimiter, str) and len(delimiter) == 1) or delimiter in '"\r\n':
        raise ValueError(
            f"delimiter must be one character other than '\"', '\\r' and '\\n', "
            f"got {delimiter!r}"
        )
    # surrogateescape carries a bad byte into the cell that holds it, so the
    # error names that cell; a strict decoder fails while reading ahead, on
    # a chunk that may start rows earlier
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
            return load_csv(handle, delimiter=delimiter, missing_tokens=missing_tokens)
    if isinstance(source, (bytes, bytearray)):
        source = io.StringIO(source.decode("utf-8", "surrogateescape"), newline="")
    elif hasattr(source, "read") and isinstance(source.read(0), bytes):
        text = io.TextIOWrapper(source, encoding="utf-8", errors="surrogateescape", newline="")
        try:
            return load_csv(text, delimiter=delimiter, missing_tokens=missing_tokens)
        finally:
            text.detach()  # a collected wrapper would close the caller's stream

    start = None if any(map(_parses_as_float, missing_tokens)) else _rewind_point(source)
    if start is not None:
        names = _header(_records(csv.reader(source, delimiter=delimiter)))
        values = _c_values(source, delimiter, len(names))
        if values is not None:
            return RawTable(names=names, values=values)
        source.seek(start)

    records = _records(csv.reader(source, delimiter=delimiter))
    names = _header(records)
    values = array("d")  # the cells row by row, 8 bytes each
    for i, record in records:
        if len(record) != len(names):
            raise CsvFormatError(
                f"row {i} has {len(record)} cells, expected {len(names)}"
            )
        for name, cell in zip(names, record):
            try:
                values.append(_parse_cell(cell, missing_tokens))
            except CsvFormatError as exc:
                raise CsvFormatError(f"row {i}, column {name!r}: {exc}") from None
    if not values:
        raise CsvFormatError("no data rows after the header")
    return RawTable(names=names, values=np.frombuffer(values).reshape(-1, len(names)))


def select_variables(table: RawTable, config: SubsetConfig, group: str) -> RawTable:
    """Project ``table`` onto the columns of one configured group, in config order."""
    if group not in config.groups:
        raise ConfigError(f"unknown group {group!r}")
    wanted = config.groups[group]
    missing = [name for name in wanted if name not in table.names]
    if missing:
        raise UnknownColumnError(
            "columns not present in the table: " + ", ".join(repr(m) for m in missing)
        )
    index = [table.names.index(name) for name in wanted]
    # take returns C order like the parser; values[:, index] would return
    # Fortran order, whose column sums in standardize round differently
    return RawTable(names=list(wanted), values=table.values.take(index, axis=1))


def standardize(table: RawTable) -> StandardizedMatrix:
    """Z-score every column of a complete numeric table.

    Uses the sample standard deviation (divisor N - 1). Missing cells are a
    hard error; this toolkit does not impute.
    """
    if table.n_rows < 2:
        raise DataError(f"need at least 2 rows to standardize, got {table.n_rows}")
    values = table.values
    missing = np.argwhere(np.isnan(values))  # row-major order
    if len(missing):
        i, j = missing[0]
        raise MissingValueError(f"row {i + 1}, column {table.names[j]!r}: missing value")
    means = values.mean(axis=0)
    sds = values.std(axis=0, ddof=1)
    # a spread below ~1e-154 still squares to an sd of 0
    constant = np.flatnonzero(is_constant(values) | (sds == 0.0))
    if constant.size:
        names = ", ".join(repr(table.names[j]) for j in constant)
        raise ConstantColumnError(f"constant column(s): {names}")
    z = (values - means) / sds
    return StandardizedMatrix(matrix=z, means=means, sds=sds, names=list(table.names))
