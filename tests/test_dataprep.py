import csv
import gc
import io
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from enetstats.dataprep import (
    ConfigError,
    ConstantColumnError,
    CsvFormatError,
    MissingValueError,
    DataError,
    RawTable,
    StandardizedMatrix,
    SubsetConfig,
    UnknownColumnError,
    load_csv,
    select_variables,
    standardize,
)


DEMO_CSV = Path(__file__).resolve().parent.parent / "data" / "demo_lifestyle.csv"


def table(text, **kwargs):
    return load_csv(io.StringIO(text), **kwargs)


class TestLoadCsv:
    def test_minimal(self):
        t = table("a,b\n1,2\n")
        assert t.names == ["a", "b"]
        assert t.n_rows == 1
        assert t.values.dtype == np.float64
        assert t.values.tolist() == [[1.0, 2.0]]

    def test_missing_token(self):
        t = table("a,b\nNA,2\n")
        assert np.isnan(t.values[0, 0]) and t.values[0, 1] == 2.0

    def test_custom_missing_token(self):
        t = table("a\n?\n", missing_tokens=("?",))
        assert np.isnan(t.values[0, 0])

    def test_ragged_row(self):
        with pytest.raises(CsvFormatError, match="row 1"):
            table("a,b\n1,2,3\n")

    def test_duplicate_header(self):
        with pytest.raises(CsvFormatError, match="duplicate"):
            table("a,a\n1,2\n")

    def test_unparseable_cell_names_row_and_column(self):
        with pytest.raises(CsvFormatError, match="row 2.*'b'"):
            table("a,b\n1,2\n3,oops\n")

    def test_blank_line_is_not_a_data_row(self):
        # the parser numbers rows as standardize does, so both name row 2
        text = "a,b\n1,2\n\n3,{}\n5,6\n"
        with pytest.raises(MissingValueError, match=r"^row 2, column 'b'"):
            standardize(table(text.format("NA")))
        with pytest.raises(CsvFormatError, match=r"^row 2, column 'b'"):
            table(text.format("x"))
        with pytest.raises(CsvFormatError, match=r"^row 2: field larger"):
            table(text.format('"' + "x" * 200_000 + '"'))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_cell_names_row_and_column(self, cell):
        with pytest.raises(CsvFormatError, match=r"row 2, column 'b': non-finite cell"):
            table(f"a,b\n1,2\n3,{cell}\n")

    def test_quoted_header(self):
        t = table('"a,b",c\n1,2\n')
        assert t.names == ["a,b", "c"]

    def test_alternate_delimiter(self):
        t = table("a;b\n1;2\n", delimiter=";")
        assert t.values.tolist() == [[1.0, 2.0]]

    def test_empty_input(self):
        with pytest.raises(CsvFormatError):
            table("")

    def test_header_only(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no warning from numpy's reader
            with pytest.raises(CsvFormatError, match="no data rows"):
                table("a,b\n")

    def test_reads_path(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a\n1\n2\n", encoding="utf-8")
        assert load_csv(f).n_rows == 2

    def test_bytes_with_cr_line_endings(self, tmp_path):
        data = b"a,b\r1,2\r3,4\r"
        f = tmp_path / "cr.csv"
        f.write_bytes(data)
        assert load_csv(data).values.tolist() == load_csv(f).values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("kind", ["path", "bytes", "stream"])
    def test_non_utf8_byte_in_cell_names_row_and_column(self, tmp_path, kind):
        # the bad byte sits past the first 8 KiB, so a strict decoder reading
        # in chunks would fail rows before the one that holds it
        data = b"a,b\n" + b"1.5,2.5\n" * 2000 + b"3,4\xff5\n" + b"6,7\n"
        assert data.index(b"\xff") > 8192
        with pytest.raises(CsvFormatError, match=r"^row 2001, column 'b': .*not valid UTF-8"):
            load_csv(self._source(tmp_path, data, kind))

    @pytest.mark.parametrize("kind", ["path", "bytes", "stream"])
    def test_non_utf8_byte_in_header_names_column(self, tmp_path, kind):
        data = b"a,b\xff\n1,2\n"
        with pytest.raises(CsvFormatError, match=r"^header row, column 2: .*not valid UTF-8"):
            load_csv(self._source(tmp_path, data, kind))

    @pytest.mark.parametrize("delimiter", [";;", "", '"', "\r", "\n", None])
    def test_bad_delimiter_rejected_before_reading(self, tmp_path, delimiter):
        # the file does not exist, so a parser that opened it would raise
        # FileNotFoundError, which is not a ValueError
        with pytest.raises(ValueError, match=f"^delimiter .*, got {re.escape(repr(delimiter))}$"):
            load_csv(tmp_path / "absent.csv", delimiter=delimiter)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a\n1\r2\n", r"^row 1: new-line character seen in unquoted field"),
            ("a\n1\n0." + "0" * 200_000 + "1\n", r"^row 2: field larger than field limit"),
            ('a\n"1' + "\n" * 200_000 + '"\n', r"^row 1: field larger than field limit"),
        ],
        ids=["lone_cr_in_line", "overlong_number", "overlong_quoted_number"],
    )
    def test_csv_module_errors_survive_the_c_reader(self, text, message):
        # numpy's reader would take all three: it splits lines at a lone CR,
        # and it has no field-size limit, also not for a quoted cell spread
        # over short lines
        with pytest.raises(CsvFormatError, match=message):
            table(text)

    @staticmethod
    def _source(tmp_path, data, kind):
        if kind == "bytes":
            return data
        if kind == "stream":
            return io.BytesIO(data)
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        return path


@st.composite
def written_tables(draw):
    """(delimiter, names, rows, text): a table written by ``csv.writer``
    with names holding the delimiter, quotes and spaces, ``repr``-written
    finite floats, and missing cells (None) written as "NA" or ""."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    name = st.text(alphabet=f"ab \"'\n{delimiter}", min_size=1, max_size=6).map(str.strip)
    names = draw(st.lists(name.filter(bool), min_size=1, max_size=5, unique=True))
    cell = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(["NA", ""]))
    written = draw(
        st.lists(st.lists(cell, min_size=len(names), max_size=len(names)), min_size=1, max_size=8)
    )
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter)
    writer.writerow(names)
    writer.writerows([repr(c) if isinstance(c, float) else c for c in row] for row in written)
    rows = [[c if isinstance(c, float) else None for c in row] for row in written]
    return delimiter, names, rows, buf.getvalue()


@st.composite
def csv_like(draw):
    """Text near the CSV grammar: a header and rows of one width, some
    tokens and line endings that must fail."""
    width = draw(st.integers(1, 3))
    header = st.sampled_from(["a", "b", '"a,b"', " c ", "", '"'])
    cell = st.sampled_from(["1", "-2.5e3", " 7 ", '"4"', "NA", "", "nan", "x", '"'])
    lines = [draw(st.lists(header, min_size=width, max_size=width, unique=True))]
    lines += draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=3))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(map(",".join, lines))


# text near the config grammar, so that many examples parse
CONFIG_LIKE = st.lists(
    st.one_of(
        st.sampled_from(["", "# note", "g.column = a", "h.column = b", "h.role = response"]),
        st.builds(
            "{}.{} = {}".format,
            st.sampled_from(["g", "h", " g ", "", "a.b"]),
            st.sampled_from(["column", "role", "other", ""]),
            st.sampled_from(["a", "b", "", "predictor", "response", "x = y"]),
        ),
    ),
    max_size=6,
).map("\n".join)


class TestParserProperties:
    @settings(max_examples=300)
    @given(st.one_of(st.text(), csv_like()))
    @example("a\r1")
    def test_any_text_loads_or_raises_data_error(self, text):
        try:
            t = load_csv(io.StringIO(text))
        except DataError:
            return
        assert isinstance(t, RawTable) and t.n_rows >= 1

    @settings(max_examples=300)
    @given(st.one_of(st.text(), CONFIG_LIKE))
    def test_any_config_text_parses_or_raises_config_error(self, text):
        try:
            cfg = SubsetConfig.from_text(text)
        except ConfigError:
            return
        assert cfg.groups and all(cfg.groups.values())

    @settings(max_examples=200)
    @given(written_tables())
    def test_csv_writer_round_trip(self, case):
        delimiter, names, rows, text = case
        t = load_csv(text.encode("utf-8"), delimiter=delimiter)
        assert t.names == names
        assert t.values.shape == (len(rows), len(names))
        # float.hex is exact, so equal hex strings are bit-identical values;
        # NaN must sit exactly at the missing tokens
        hexed = [[None if math.isnan(c) else c.hex() for c in row] for row in t.values.tolist()]
        assert hexed == [[None if c is None else float(repr(c)).hex() for c in row] for row in rows]


class _Unseekable(io.BytesIO):
    """Bytes behind a stream that cannot be rewound, which load_csv reads
    with the Python parser alone."""

    def seekable(self):
        return False


def _outcome(source, delimiter=","):
    """The names, shape and matrix bytes (NaNs included, bit for bit) that
    load_csv reads from ``source``, or the type and message it raises."""
    try:
        t = load_csv(source, delimiter=delimiter)
    except Exception as exc:
        return type(exc), str(exc)
    return t.names, t.values.shape, t.values.tobytes()


@st.composite
def delimited_bytes(draw):
    """(delimiter, data): a header and rows of numbers both readers take,
    or, in about half the examples, with the cells, lines and bytes where
    numpy's C reader and the csv module could disagree."""
    delimiter = draw(st.sampled_from([",", ";", "\t", " "]))
    width = draw(st.integers(1, 3))
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    clean = draw(st.booleans())
    odd = st.sampled_from(
        [
            "1_0", "\uff11", " 7 ", "\u20037\u2003", "\x0c7\t", "0x1p3", "0x10",
            "nan", "-inf", "1e999", "-0", "5e-324", "NA", "", "x",
            '"4"', f'"1{delimiter}5"', '"2\n"', '"3\r\n5"', '"6""7"', '"8"9', ' "1"',
        ]
    )
    cell = number if clean else st.one_of(number, odd)
    row = st.lists(cell, min_size=width, max_size=width).map(delimiter.join)
    line = row if clean else st.one_of(
        row,
        row.map(lambda r: r + delimiter),  # a trailing delimiter
        st.lists(cell, max_size=width + 1).map(delimiter.join),  # ragged
        st.sampled_from(["", " ", "\t", delimiter]),  # blank or whitespace only
    )
    header = delimiter.join(f"c{j}" for j in range(width))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [header] + draw(st.lists(line, max_size=6))
    data = (ending.join(lines) + draw(st.sampled_from(["", ending]))).encode("utf-8")
    if not clean and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82"])) + data[at:]
    return delimiter, data


class TestIngestPaths:
    """load_csv's C fast path against the Python parser, its reference."""

    @settings(max_examples=400)
    @given(case=delimited_bytes())
    @example(case=(",", b"a\n1\n \n2\n"))  # a whitespace-only line is a missing cell
    @example(case=(" ", b"a b\n 1 2\n"))  # a leading delimiter is a third cell
    def test_c_reader_agrees_with_python_parser(self, tmp_path_factory, case):
        delimiter, data = case
        path = tmp_path_factory.getbasetemp() / "differential.csv"
        path.write_bytes(data)
        assert _outcome(path, delimiter) == _outcome(_Unseekable(data), delimiter)

    def test_clean_file_takes_the_c_reader(self, monkeypatch):
        parsed = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            parsed.append(loadtxt(*args, **kwargs))
            return parsed[-1]

        monkeypatch.setattr(np, "loadtxt", spy)
        t = load_csv(DEMO_CSV)
        assert len(parsed) == 1 and t.values is parsed[0]
        assert t.values.shape == (86, 11)
        monkeypatch.undo()
        assert _outcome(DEMO_CSV) == _outcome(_Unseekable(DEMO_CSV.read_bytes()))

    @pytest.mark.parametrize("stream", [io.BytesIO, _Unseekable])
    def test_byte_stream_is_left_open(self, stream):
        # a seekable stream takes the C reader, an unseekable one the
        # Python parser; either way the caller's stream stays open
        good = stream(b"a,b\n1,2\n")
        assert load_csv(good).values.tolist() == [[1.0, 2.0]]
        bad = stream(b"a,b\n1,x\n")
        with pytest.raises(CsvFormatError):
            load_csv(bad)
        gc.collect()
        assert not good.closed and not bad.closed

    def test_iterated_text_file_reads_on_from_its_position(self, tmp_path):
        # a text file that next() has advanced cannot tell() where it is
        path = tmp_path / "preamble.csv"
        path.write_bytes(b"# preamble\na,b\n1,2\n")
        with open(path, encoding="utf-8", newline="") as handle:
            next(handle)
            t = load_csv(handle)
        assert t.names == ["a", "b"] and t.values.tolist() == [[1.0, 2.0]]

    def test_missing_token_that_parses_as_a_number(self, tmp_path, monkeypatch):
        def no_loadtxt(*args, **kwargs):
            raise AssertionError("float() takes the missing token, so the C reader must not run")

        monkeypatch.setattr(np, "loadtxt", no_loadtxt)
        path = tmp_path / "sentinel.csv"
        path.write_bytes(b"a,b\n1,-999\n-999.0, -999 \n")
        t = load_csv(path, missing_tokens=("-999",))
        assert np.isnan(t.values).tolist() == [[False, True], [False, True]]
        assert t.values[:, 0].tolist() == [1.0, -999.0]


class TestSubsetConfig:
    TEXT = """
    # demo
    g1.role = predictor
    g1.column = a
    g1.column = b
    g2.role = response
    g2.column = c
    """

    def test_parse(self):
        cfg = SubsetConfig.from_text(self.TEXT)
        assert cfg.groups == {"g1": ["a", "b"], "g2": ["c"]}
        assert cfg.roles == {"g1": "predictor", "g2": "response"}
        assert cfg.group_with_role("predictor") == "g1"

    def test_duplicate_column_rejected(self):
        with pytest.raises(ConfigError, match="twice"):
            SubsetConfig.from_text("g.column = a\ng.column = a\n")

    def test_bad_role(self):
        with pytest.raises(ConfigError, match="role"):
            SubsetConfig.from_text("g.column = a\ng.role = banana\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            SubsetConfig.from_text("g.thing = a\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            SubsetConfig.from_text("g.column a\n")

    def test_role_needs_columns(self):
        with pytest.raises(ConfigError, match="no columns"):
            SubsetConfig.from_text("g.role = predictor\nh.column = a\n")

    def test_non_utf8_byte_names_line(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"g.column = a\ng.column = b\xff\n")
        with pytest.raises(ConfigError, match=r"^line 2: .*not valid UTF-8"):
            SubsetConfig.load(path)

    def test_ambiguous_role_lookup(self):
        cfg = SubsetConfig.from_text("g.column = a\n")
        with pytest.raises(ConfigError):
            cfg.group_with_role("response")


class TestSelectVariables:
    def setup_method(self):
        self.table = RawTable(
            names=["a", "b", "c"],
            values=[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
        )

    def test_identity(self):
        cfg = SubsetConfig(groups={"all": ["a", "b", "c"]})
        out = select_variables(self.table, cfg, "all")
        assert out.names == self.table.names
        assert out.values.tolist() == self.table.values.tolist()

    def test_single_column(self):
        cfg = SubsetConfig(groups={"one": ["b"]})
        out = select_variables(self.table, cfg, "one")
        assert out.names == ["b"]
        assert out.values.tolist() == [[2.0], [5.0]]

    def test_config_order_wins(self):
        cfg = SubsetConfig(groups={"rev": ["c", "a"]})
        out = select_variables(self.table, cfg, "rev")
        assert out.names == ["c", "a"]
        assert out.values.tolist() == [[3.0, 1.0], [6.0, 4.0]]
        # row-major like the parser's output, so standardize's column
        # sums run in the same order for a selected and a parsed table
        assert out.values.flags.c_contiguous

    def test_absent_column_named(self):
        cfg = SubsetConfig(groups={"bad": ["a", "zz", "ww"]})
        with pytest.raises(UnknownColumnError, match="'zz'.*'ww'"):
            select_variables(self.table, cfg, "bad")

    def test_unknown_group(self):
        cfg = SubsetConfig(groups={"g": ["a"]})
        with pytest.raises(ConfigError):
            select_variables(self.table, cfg, "other")

    def test_preserves_row_order_and_count(self):
        cfg = SubsetConfig(groups={"g": ["b", "a"]})
        out = select_variables(self.table, cfg, "g")
        assert out.n_rows == self.table.n_rows
        assert out.values[:, 1].tolist() == [1.0, 4.0]


class TestStandardize:
    def test_two_point_column(self):
        # hand z-scores with divisor N-1: mean 2, sd sqrt(2)
        t = RawTable(names=["v"], values=[[1.0], [3.0]])
        sm = standardize(t)
        assert_allclose(sm.matrix[:, 0], [-0.7071068, 0.7071068], atol=1e-7)
        assert_allclose(sm.means, [2.0])
        assert_allclose(sm.sds, [1.4142136], atol=1e-7)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        t = RawTable(names=["v", "w"], values=rng.normal(size=(20, 2)))
        once = standardize(t)
        twice = standardize(RawTable(names=once.names, values=once.matrix))
        assert np.max(np.abs(twice.matrix - once.matrix)) <= 1e-10

    def test_constant_column(self):
        t = RawTable(names=["v"], values=[[5.0], [5.0], [5.0]])
        with pytest.raises(ConstantColumnError, match="'v'"):
            standardize(t)

    def test_constant_column_with_inexact_mean(self):
        # mean(0.1, 0.1, 0.1) is not 0.1 exactly, so the sd comes out 1.7e-17
        t = RawTable(names=["a", "b"], values=[[1.0, 0.1], [2.0, 0.1], [4.0, 0.1]])
        with pytest.raises(ConstantColumnError, match=r"^constant column\(s\): 'b'$"):
            standardize(t)

    def test_sd_underflow_counts_as_constant(self):
        # max != min, but the spread squares below the smallest double
        t = RawTable(names=["v"], values=[[0.0], [1e-200], [0.0]])
        with pytest.raises(ConstantColumnError, match="'v'"):
            standardize(t)

    def test_missing_cell(self):
        t = RawTable(names=["v"], values=[[1.0], [np.nan]])
        with pytest.raises(MissingValueError, match=r"^row 2, column 'v': missing value$"):
            standardize(t)

    def test_first_missing_cell_in_row_major_order(self):
        # column-major order would name row 3, column 'a'
        t = RawTable(names=["a", "b"], values=[[1.0, 2.0], [3.0, np.nan], [np.nan, 4.0]])
        with pytest.raises(MissingValueError, match=r"^row 2, column 'b': missing value$"):
            standardize(t)

    def test_too_few_rows(self):
        t = RawTable(names=["v"], values=[[1.0]])
        with pytest.raises(Exception, match="at least 2"):
            standardize(t)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        values = rng.normal(loc=50.0, scale=7.0, size=(30, 3))
        t = RawTable(names=["a", "b", "c"], values=values)
        sm = standardize(t)
        assert_allclose(sm.matrix * sm.sds + sm.means, values, rtol=1e-10)

    def test_columns_standardized(self):
        rng = np.random.default_rng(2)
        t = RawTable(names=["a", "b"], values=rng.normal(5, 3, size=(40, 2)))
        sm = standardize(t)
        assert np.max(np.abs(sm.matrix.mean(axis=0))) <= 1e-10
        assert np.max(np.abs(sm.matrix.std(axis=0, ddof=1) - 1)) <= 1e-10


class TestStandardizedMatrix:
    def test_nan_fails_the_tolerance_check(self):
        z = np.array([[-1.0, np.nan], [1.0, 0.0]]) / np.sqrt(2.0)
        with pytest.raises(DataError, match="not standardized"):
            StandardizedMatrix(matrix=z, means=[0.0, 0.0], sds=[1.0, 1.0], names=["a", "b"])

    def test_nan_sd_rejected(self):
        z = np.array([[-1.0], [1.0]]) / np.sqrt(2.0)
        with pytest.raises(DataError, match="strictly positive"):
            StandardizedMatrix(matrix=z, means=[0.0], sds=[np.nan], names=["a"])


class TestRawTable:
    def test_rejects_duplicate_names(self):
        with pytest.raises(Exception, match="duplicate"):
            RawTable(names=["a", "a"], values=[[1.0, 2.0]])

    def test_rejects_ragged(self):
        with pytest.raises(Exception, match="cells"):
            RawTable(names=["a", "b"], values=[[1.0]])
