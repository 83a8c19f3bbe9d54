import contextlib
import csv
import io
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from enetstats import dataprep
from enetstats.dataprep import (
    DataError,
    RawTable,
    StandardizedMatrix,
    SubsetConfig,
    load_csv,
    standardize,
)


DEMO_CSV = Path(__file__).resolve().parent.parent / "data" / "demo_lifestyle.csv"
BOM = b"\xef\xbb\xbf"


def table(text):
    """load_csv on a file that holds ``text`` (a str, UTF-8 encoded, or
    bytes) exactly."""
    data = text if isinstance(text, bytes) else text.encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(data)
        return load_csv(path)


def spy_c_values(monkeypatch):
    """The list each later ``_c_values`` call appends its result to."""
    results = []
    c_values = dataprep._c_values

    def spy(*args):
        results.append(c_values(*args))
        return results[-1]

    monkeypatch.setattr(dataprep, "_c_values", spy)
    return results


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

    def test_ragged_row(self):
        with pytest.raises(DataError, match="row 1"):
            table("a,b\n1,2,3\n")

    def test_duplicate_header(self):
        with pytest.raises(DataError, match="duplicate"):
            table("a,a\n1,2\n")

    def test_unparseable_cell_names_row_and_column(self):
        with pytest.raises(DataError, match="row 2.*'b'"):
            table("a,b\n1,2\n3,oops\n")

    def test_blank_line_is_not_a_data_row(self):
        # the parser numbers rows as standardize does, so both name row 2
        text = "a,b\n1,2\n\n3,{}\n5,6\n"
        with pytest.raises(DataError, match=r"^row 2, column 'b'"):
            standardize(table(text.format("NA")), ["a", "b"])
        with pytest.raises(DataError, match=r"^row 2, column 'b'"):
            table(text.format("x"))
        with pytest.raises(DataError, match=r"^row 2: field larger"):
            table(text.format('"' + "x" * 200_000 + '"'))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_cell_names_row_and_column(self, cell):
        with pytest.raises(DataError, match=r"row 2, column 'b': non-finite cell"):
            table(f"a,b\n1,2\n3,{cell}\n")

    def test_quoted_header(self):
        t = table('"a,b",c\n1,2\n')
        assert t.names == ["a,b", "c"]

    @pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\r\nb", "a\rb"])
    def test_tab_or_line_break_in_a_name_names_the_column(self, name):
        # either would split a TSV header cell or line in two
        with pytest.raises(DataError, match=r"^header row, column 2: .* holds a tab or line break$"):
            table(f'c,"{name}"\n1,2\n')

    def test_empty_input(self):
        with pytest.raises(DataError, match="^input is empty; expected a header row$"):
            table("")

    def test_header_only(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no warning from numpy's reader
            with pytest.raises(DataError, match="no data rows"):
                table("a,b\n")

    def test_reads_path(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a\n1\n2\n", encoding="utf-8")
        assert load_csv(f).n_rows == 2

    def test_bytes_with_cr_line_endings(self):
        assert table(b"a,b\r1,2\r3,4\r").values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("kind", ["path", "str"])
    def test_non_utf8_byte_in_cell_names_row_and_column(self, tmp_path, kind):
        # the bad byte sits past the first 8 KiB, so a strict decoder reading
        # in chunks would fail rows before the one that holds it
        data = b"a,b\n" + b"1.5,2.5\n" * 2000 + b"3,4\xff5\n" + b"6,7\n"
        assert data.index(b"\xff") > 8192
        with pytest.raises(DataError, match=r"^row 2001, column 'b': .*not valid UTF-8"):
            load_csv(self._path(tmp_path, data, kind))

    @pytest.mark.parametrize("kind", ["path", "str"])
    def test_non_utf8_byte_in_header_names_column(self, tmp_path, kind):
        data = b"a,b\xff\n1,2\n"
        with pytest.raises(DataError, match=r"^header row, column 2: .*not valid UTF-8"):
            load_csv(self._path(tmp_path, data, kind))

    @pytest.mark.parametrize(
        "data, reader",
        [(b"a,b\r\n1,2\r\n3,4\r\n", "c"), (b"a,b\r\n1,NA\r\n3,4\r\n", "python")],
        ids=["c_reader", "python_parser"],
    )
    def test_byte_order_mark_is_not_part_of_the_first_name(self, monkeypatch, data, reader):
        # a spreadsheet's "CSV UTF-8" export starts with one; the Python
        # parser rereads the file from its start, mark included
        c_results = spy_c_values(monkeypatch)
        t = table(BOM + data)
        assert t.names == ["a", "b"]
        assert (c_results[0] is not None) == (reader == "c")
        assert np.isnan(t.values).any() == (reader == "python")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a\n1\n0." + "0" * 200_000 + "1\n", r"^row 2: field larger than field limit"),
            ('a\n"1' + "\n" * 200_000 + '"\n', r"^row 1: field larger than field limit"),
        ],
        ids=["overlong_number", "overlong_quoted_number"],
    )
    def test_csv_module_errors_survive_the_c_reader(self, text, message):
        # numpy's reader would take both: it has no field-size limit, also
        # not for a quoted cell spread over short lines
        with pytest.raises(DataError, match=message):
            table(text)

    @staticmethod
    def _path(tmp_path, data, kind):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        return str(path) if kind == "str" else path


@st.composite
def written_tables(draw):
    """(names, rows, text): a table written by ``csv.writer`` with names
    holding commas, quotes, spaces and line breaks, ``repr``-written finite
    floats, and missing cells (None) written as "NA" or ""."""
    name = st.text(alphabet="ab \"'\n,", min_size=1, max_size=6).map(str.strip)
    names = draw(st.lists(name.filter(bool), min_size=1, max_size=5, unique=True))
    cell = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(["NA", ""]))
    written = draw(
        st.lists(st.lists(cell, min_size=len(names), max_size=len(names)), min_size=1, max_size=8)
    )
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(names)
    writer.writerows([repr(c) if isinstance(c, float) else c for c in row] for row in written)
    rows = [[c if isinstance(c, float) else None for c in row] for row in written]
    return names, rows, buf.getvalue()


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
            t = table(text)
        except DataError:
            return
        assert isinstance(t, RawTable) and t.n_rows >= 1

    @settings(max_examples=300)
    @given(st.one_of(st.text(), CONFIG_LIKE))
    def test_any_config_text_parses_or_raises_config_error(self, text):
        try:
            cfg = SubsetConfig.from_text(text)
        except DataError:
            return
        assert cfg.groups and all(cfg.groups.values())

    @settings(max_examples=200)
    @given(written_tables())
    def test_csv_writer_round_trip(self, case):
        names, rows, text = case
        if any("\n" in name for name in names):  # a line break would break the TSVs
            with pytest.raises(DataError, match=r"^header row, column \d+: .* line break$"):
                table(text)
            return
        t = table(text)
        assert t.names == names
        assert t.values.shape == (len(rows), len(names))
        # float.hex is exact, so equal hex strings are bit-identical values;
        # NaN must sit exactly at the missing tokens
        hexed = [[None if math.isnan(c) else c.hex() for c in row] for row in t.values.tolist()]
        assert hexed == [[None if c is None else float(repr(c)).hex() for c in row] for row in rows]


def _outcome(path, c_reader=True):
    """The names, shape and matrix bytes (NaNs included, bit for bit) that
    load_csv reads from ``path``, or the type and message it raises; with
    ``c_reader`` false the C reader gives up at once, so the Python parser
    reads the file alone."""
    c_off = mock.patch.object(dataprep, "_c_values", lambda *args: None)
    with contextlib.nullcontext() if c_reader else c_off:
        try:
            t = load_csv(path)
        except Exception as exc:
            return type(exc), str(exc)
    return t.names, t.values.shape, t.values.tobytes()


@st.composite
def csv_bytes(draw):
    """(clean, data): a header and one or more rows of numbers both readers
    take, or, in about half the examples, with the cells, lines and bytes
    where numpy's C reader and the csv module could disagree; either may
    start with a byte-order mark."""
    width = draw(st.integers(1, 3))
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    clean = draw(st.booleans())
    odd = st.sampled_from(
        [
            "1_0", "\uff11", " 7 ", "\u20037\u2003", "\x0c7\t", "0x1p3", "0x10",
            "nan", "-inf", "1e999", "-0", "5e-324", "NA", "", "x",
            '"4"', '"1,5"', '"2\n"', '"3\r\n5"', '"6""7"', '"8"9', ' "1"',
        ]
    )
    cell = number if clean else st.one_of(number, odd)
    row = st.lists(cell, min_size=width, max_size=width).map(",".join)
    line = row if clean else st.one_of(
        row,
        row.map(lambda r: r + ","),  # a trailing delimiter
        st.lists(cell, max_size=width + 1).map(",".join),  # ragged
        st.sampled_from(["", " ", "\t", ","]),  # blank or whitespace only
    )
    header = ",".join(f"c{j}" for j in range(width))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [header] + draw(st.lists(line, min_size=1 if clean else 0, max_size=6))
    data = (ending.join(lines) + draw(st.sampled_from(["", ending]))).encode("utf-8")
    if not clean and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82"])) + data[at:]
    return clean, draw(st.sampled_from([b"", BOM])) + data


class TestIngestPaths:
    """load_csv's C fast path against the Python parser, its reference."""

    @settings(max_examples=400)
    @given(case=csv_bytes())
    @example(case=(False, b"a\n1\n \n2\n"))  # a whitespace-only line is a missing cell
    @example(case=(False, b"a,b\n,1,2\n"))  # a leading delimiter is a third cell
    def test_c_reader_agrees_with_python_parser(self, tmp_path_factory, case):
        clean, data = case
        path = tmp_path_factory.getbasetemp() / "differential.csv"
        path.write_bytes(data)
        got = _outcome(path)
        assert got == _outcome(path, c_reader=False)
        if clean:
            assert isinstance(got[0], list), got

    def test_long_lines_of_short_fields_take_the_c_reader(self, tmp_path, monkeypatch):
        # the csv module's field-size limit bounds a field, not a line
        limit = csv.field_size_limit()
        width = limit // 4 + 1  # 4 characters per "1.5,"
        row = ",".join(["1.5"] * width)
        assert len(row) > limit
        path = tmp_path / "wide.csv"
        header = ",".join(f"c{j}" for j in range(width))
        path.write_text(f"{header}\n{row}\n{row}\n", encoding="utf-8")
        c_results = spy_c_values(monkeypatch)
        t = load_csv(path)
        assert c_results[0] is not None and t.values is c_results[0]
        assert t.values.shape == (2, width) and np.all(t.values == 1.5)

    @pytest.mark.parametrize("last", ["3", "NA"], ids=["c_reader", "python_parser"])
    @pytest.mark.parametrize("extra", [0, 1], ids=["at_the_limit", "one_over"])
    def test_field_size_limit_is_the_csv_modules(self, monkeypatch, extra, last):
        # both readers take a field of exactly the limit and refuse one
        # character more: the C reader gives up on it and the csv module
        # names its row
        cell = "5".rjust(csv.field_size_limit() + extra, "0")
        c_results = spy_c_values(monkeypatch)
        text = f"a,b\n{cell},1\n2,{last}\n"
        if extra:
            with pytest.raises(DataError, match=r"^row 1: field larger than field limit"):
                table(text)
            assert c_results == [None]
        else:
            assert table(text).values[0].tolist() == [5.0, 1.0]
            assert (c_results[0] is not None) == (last == "3")

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
        assert _outcome(DEMO_CSV) == _outcome(DEMO_CSV, c_reader=False)


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
        with pytest.raises(DataError, match="twice"):
            SubsetConfig.from_text("g.column = a\ng.column = a\n")

    def test_bad_role(self):
        with pytest.raises(DataError, match="role"):
            SubsetConfig.from_text("g.column = a\ng.role = banana\n")

    def test_unknown_key(self):
        with pytest.raises(DataError, match="unknown key"):
            SubsetConfig.from_text("g.thing = a\n")

    def test_missing_equals(self):
        with pytest.raises(DataError, match="^line 1: expected '<group>.<key> = <value>'$"):
            SubsetConfig.from_text("g.column a\n")

    @pytest.mark.parametrize("char", list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_only_cr_and_lf_break_a_line(self, char):
        # str.splitlines breaks at each of these too, which split a column
        # name the CSV header accepts in two
        cfg = SubsetConfig.from_text(f"g.column = a{char}b\n")
        assert cfg.groups == {"g": [f"a{char}b"]}
        cfg = SubsetConfig.from_text(f"g.column = a\n# x{char}y\nh.column = b\n")
        assert cfg.groups == {"g": ["a"], "h": ["b"]}

    def test_line_numbers_count_only_line_breaks(self):
        with pytest.raises(DataError, match="^line 3: expected '<group>.<key> = <value>'$"):
            SubsetConfig.from_text("g.column = a\x0cb\n# x\x85y\r\nbad\n")
        with pytest.raises(DataError, match="^line 4: unknown key 'thing'$"):
            SubsetConfig.from_text("g.column = a\r\n\rh.column = b\u2028c\ng.thing = c")

    def test_role_needs_columns(self):
        with pytest.raises(DataError, match="no columns"):
            SubsetConfig.from_text("g.role = predictor\nh.column = a\n")

    def test_non_utf8_byte_names_line(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"g.column = a\ng.column = b\xff\n")
        with pytest.raises(DataError, match=r"^line 2: .*not valid UTF-8"):
            SubsetConfig.load(path)

    def test_byte_order_mark_is_not_part_of_the_first_line(self, tmp_path):
        path = tmp_path / "excel.cfg"
        path.write_bytes(BOM + b"g.role = predictor\ng.column = a\n")
        cfg = SubsetConfig.load(path)
        assert cfg.groups == {"g": ["a"]} and cfg.roles == {"g": "predictor"}

    def test_ambiguous_role_lookup(self):
        cfg = SubsetConfig.from_text("g.column = a\n")
        message = "^expected exactly one group with role 'response', found 0$"
        with pytest.raises(DataError, match=message):
            cfg.group_with_role("response")

    def test_direct_construction_rejects_a_repeated_column(self):
        with pytest.raises(DataError, match="^group 'g' lists a column twice$"):
            SubsetConfig(groups={"g": ["a", "b", "a"]})

    def test_direct_construction_rejects_a_bad_role(self):
        with pytest.raises(DataError, match="^invalid role 'banana' for group 'g'$"):
            SubsetConfig(groups={"g": ["a"]}, roles={"g": "banana"})


class TestSelectVariables:
    """standardize(table, columns) picks the named columns, in the order
    given, out of the table before it z-scores them."""

    def setup_method(self):
        self.table = RawTable(
            names=["a", "b", "c"],
            values=[[1.0, 2.0, 30.0], [4.0, 8.0, 60.0], [7.0, 5.0, 10.0]],
        )

    def test_identity(self):
        out = standardize(self.table, self.table.names)
        assert out.names == self.table.names
        assert_allclose(out.matrix * out.sds + out.means, self.table.values, rtol=1e-15)

    def test_single_column(self):
        alone = RawTable(names=["b"], values=self.table.values[:, [1]])
        out = standardize(self.table, ["b"])
        assert out.names == ["b"]
        assert out.matrix.tobytes() == standardize(alone, ["b"]).matrix.tobytes()

    def test_config_order_wins(self):
        out = standardize(self.table, ["c", "a"])
        assert out.names == ["c", "a"]
        assert_allclose(out.means, [100.0 / 3.0, 4.0])
        assert_allclose(out.matrix[:, 1], [-1.0, 0.0, 1.0])
        # row-major like the parser's output, so the column sums run in the
        # same order for a selected and a parsed table
        assert out.matrix.flags.c_contiguous

    def test_absent_column_named(self):
        with pytest.raises(DataError, match="^columns not present in the table: 'zz', 'ww'$"):
            standardize(self.table, ["a", "zz", "ww"])

    def test_absent_column_is_named_before_a_missing_cell(self):
        t = RawTable(names=["a", "b"], values=[[1.0, np.nan], [2.0, 3.0]])
        with pytest.raises(DataError, match="^columns not present in the table: 'c'$"):
            standardize(t, ["b", "c"])

    def test_empty_column_list(self):
        with pytest.raises(DataError, match="^table must have at least one column$"):
            standardize(self.table, [])

    def test_repeated_column(self):
        with pytest.raises(DataError, match="^duplicate column name 'a'$"):
            standardize(self.table, ["a", "b", "a"])

    def test_preserves_row_order_and_count(self):
        out = standardize(self.table, ["b", "a"])
        assert out.matrix.shape == (self.table.n_rows, 2)
        assert_allclose(out.matrix[:, 1] * out.sds[1] + out.means[1], [1.0, 4.0, 7.0])

    def test_table_is_left_unchanged(self):
        values = np.random.default_rng(3).normal(7.0, 1e3, size=(25, 4))
        t = RawTable(names=["a", "b", "c", "d"], values=values.copy())
        sm = standardize(t, t.names)
        assert t.values.tobytes() == values.tobytes()
        assert not np.shares_memory(sm.matrix, t.values)
        standardize(t, ["d", "b"])
        assert t.values.tobytes() == values.tobytes()


class TestStandardize:
    def test_two_point_column(self):
        # hand z-scores with divisor N-1: mean 2, sd sqrt(2)
        t = RawTable(names=["v"], values=[[1.0], [3.0]])
        sm = standardize(t, t.names)
        assert_allclose(sm.matrix[:, 0], [-0.7071068, 0.7071068], atol=1e-7)
        assert_allclose(sm.means, [2.0])
        assert_allclose(sm.sds, [1.4142136], atol=1e-7)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        t = RawTable(names=["v", "w"], values=rng.normal(size=(20, 2)))
        once = standardize(t, t.names)
        twice = standardize(RawTable(names=once.names, values=once.matrix), once.names)
        assert np.max(np.abs(twice.matrix - once.matrix)) <= 1e-10

    def test_constant_column(self):
        t = RawTable(names=["v"], values=[[5.0], [5.0], [5.0]])
        with pytest.raises(DataError, match="'v'"):
            standardize(t, t.names)

    def test_constant_column_with_inexact_mean(self):
        # mean(0.1, 0.1, 0.1) is not 0.1 exactly, so the sd comes out 1.7e-17
        t = RawTable(names=["a", "b"], values=[[1.0, 0.1], [2.0, 0.1], [4.0, 0.1]])
        with pytest.raises(DataError, match=r"^constant column\(s\): 'b'$"):
            standardize(t, t.names)

    def test_sd_underflow_is_rescaled(self):
        # max != min, but the spread squares below the smallest double; the
        # z-scores do not depend on the scale, so they are those of 0, 1, 0
        t = RawTable(names=["v"], values=[[0.0], [1e-200], [0.0]])
        sm = standardize(t, t.names)
        assert_allclose(sm.matrix[:, 0], np.array([-1.0, 2.0, -1.0]) / math.sqrt(3.0), rtol=1e-15)
        assert_allclose(sm.sds, [1e-200 / math.sqrt(3.0)], rtol=1e-15)

    def test_sd_overflow_is_rescaled(self):
        # the spread's square overflows a double, and std would warn
        t = RawTable(names=["a", "v"], values=[[1.0, 0.0], [2.0, 1e200], [4.0, 0.0]])
        sm = standardize(t, t.names)
        assert_allclose(sm.matrix[:, 1], np.array([-1.0, 2.0, -1.0]) / math.sqrt(3.0), rtol=1e-15)
        assert_allclose(sm.sds, [math.sqrt(7.0 / 3.0), 1e200 / math.sqrt(3.0)], rtol=1e-15)

    def test_subnormal_squares_are_rescaled(self):
        # at 1e-155 the squares inside a plain sd are subnormal and lose
        # bits, enough to move these z-scores by ~1e-14
        x = np.random.default_rng(11).normal(size=20)
        sm = standardize(RawTable(names=["v"], values=(x * 1e-155)[:, None]), ["v"])
        want = standardize(RawTable(names=["v"], values=x[:, None]), ["v"])
        assert_allclose(sm.matrix, want.matrix, rtol=0.0, atol=1e-15)
        assert_allclose(sm.sds, want.sds * 1e-155, rtol=1e-15)

    def test_mean_overflow_is_rescaled(self):
        # the column's sum exceeds the largest double, and mean would warn
        t = RawTable(names=["v"], values=[[1.0e308], [1.5e308], [1.7e308]])
        sm = standardize(t, t.names)
        want = standardize(RawTable(names=["v"], values=[[1.0], [1.5], [1.7]]), ["v"])
        assert_allclose(sm.matrix, want.matrix, rtol=1e-14)
        assert_allclose(sm.means, want.means * 1e308, rtol=1e-14)

    @pytest.mark.parametrize("mean", [1e6, -3e12, 1e300, -1e-290])
    def test_tiny_spread_on_a_large_mean(self, mean):
        # the values are the mean plus -200..200 units in its last place, so
        # their z-scores are exactly those of the integers; the mean's
        # rounding alone used to move the z-scores' mean by ~0.1, and the
        # run stopped at "matrix columns are not standardized to tolerance"
        k = np.random.default_rng(4).integers(-200, 201, size=15).astype(float)
        ulp = np.spacing(abs(mean))
        sm = standardize(RawTable(names=["v"], values=(mean + k * ulp)[:, None]), ["v"])
        assert_allclose(sm.matrix[:, 0], (k - k.mean()) / k.std(ddof=1), rtol=1e-12, atol=1e-13)
        assert_allclose(sm.sds, [k.std(ddof=1) * ulp], rtol=1e-12)
        assert_allclose(sm.means, [mean + k.mean() * ulp], rtol=1e-15)

    def test_second_pass_recovers_the_exact_mean(self):
        # c + k ulp with sum(k) = 0 has the exact mean c; the first pass's
        # mean misses it by an ulp here, and the second pass recovers it, as
        # the differences from the first mean and their sum are exact
        k = np.random.default_rng(2).integers(-1000, 1001, size=999)
        k = np.append(k, -k.sum()).astype(float)
        c = -7.3e-5
        values = (c + k * np.spacing(abs(c)))[:, None]
        sm = standardize(RawTable(names=["v"], values=values), ["v"])
        assert sm.means[0] == c
        assert_allclose(sm.matrix[:, 0], k / k.std(ddof=1), rtol=1e-13, atol=1e-15)

    def test_missing_cell(self):
        t = RawTable(names=["v"], values=[[1.0], [np.nan]])
        with pytest.raises(DataError, match=r"^row 2, column 'v': missing value$"):
            standardize(t, t.names)

    def test_first_missing_cell_in_row_major_order(self):
        # column-major order would name row 3, column 'a'
        t = RawTable(names=["a", "b"], values=[[1.0, 2.0], [3.0, np.nan], [np.nan, 4.0]])
        with pytest.raises(DataError, match=r"^row 2, column 'b': missing value$"):
            standardize(t, t.names)

    def test_too_few_rows(self):
        t = RawTable(names=["v"], values=[[1.0]])
        with pytest.raises(Exception, match="at least 2"):
            standardize(t, t.names)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        values = rng.normal(loc=50.0, scale=7.0, size=(30, 3))
        t = RawTable(names=["a", "b", "c"], values=values)
        sm = standardize(t, t.names)
        assert_allclose(sm.matrix * sm.sds + sm.means, values, rtol=1e-10)

    def test_columns_standardized(self):
        rng = np.random.default_rng(2)
        t = RawTable(names=["a", "b"], values=rng.normal(5, 3, size=(40, 2)))
        sm = standardize(t, t.names)
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

    @pytest.mark.parametrize("moment", ["mean", "sd"])
    def test_tolerance_is_1e_10(self, moment):
        v = np.array([[-3.0], [-1.0], [1.0], [3.0]])
        z = v / v.std(ddof=1)  # mean 0 and sd 1 to the last bit

        def off_by(delta):
            return z + delta if moment == "mean" else z * (1.0 + delta)

        StandardizedMatrix(matrix=off_by(0.8e-10), means=[0.0], sds=[1.0], names=["a"])
        with pytest.raises(DataError, match="^matrix columns are not standardized to tolerance$"):
            StandardizedMatrix(matrix=off_by(1.2e-10), means=[0.0], sds=[1.0], names=["a"])

    def test_one_dimensional_matrix_rejected(self):
        with pytest.raises(DataError, match="^standardized matrix must be 2-D$"):
            StandardizedMatrix(matrix=[-1.0, 1.0], means=[0.0], sds=[1.0], names=["a"])

    def test_mismatched_means_rejected(self):
        z = np.array([[-1.0], [1.0]]) / np.sqrt(2.0)
        with pytest.raises(DataError, match="^means/sds/names must all match the column count$"):
            StandardizedMatrix(matrix=z, means=[0.0, 0.0], sds=[1.0], names=["a"])


class TestRawTable:
    def test_rejects_duplicate_names(self):
        with pytest.raises(Exception, match="duplicate"):
            RawTable(names=["a", "a"], values=[[1.0, 2.0]])

    def test_rejects_ragged(self):
        with pytest.raises(Exception, match="cells"):
            RawTable(names=["a", "b"], values=[[1.0]])

    def test_rejects_no_names(self):
        with pytest.raises(DataError, match="^table must have at least one column$"):
            RawTable(names=[], values=np.empty((1, 0)))

    def test_rejects_an_empty_name(self):
        with pytest.raises(DataError, match="^column names must be nonempty$"):
            RawTable(names=["a", ""], values=[[1.0, 2.0]])
