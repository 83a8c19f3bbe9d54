import io

import numpy as np
import pytest
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
    destandardize,
    load_csv,
    select_variables,
    standardize,
)


def table(text, **kwargs):
    return load_csv(io.StringIO(text), **kwargs)


class TestLoadCsv:
    def test_minimal(self):
        t = table("a,b\n1,2\n")
        assert t.names == ["a", "b"]
        assert t.n_rows == 1
        assert t.rows[0] == [1.0, 2.0]

    def test_missing_token(self):
        t = table("a,b\nNA,2\n")
        assert t.rows[0][0] is None

    def test_custom_missing_token(self):
        t = table("a\n?\n", missing_tokens=("?",))
        assert t.rows[0][0] is None

    def test_ragged_row(self):
        with pytest.raises(CsvFormatError, match="row 1"):
            table("a,b\n1,2,3\n")

    def test_duplicate_header(self):
        with pytest.raises(CsvFormatError, match="duplicate"):
            table("a,a\n1,2\n")

    def test_unparseable_cell_names_row_and_column(self):
        with pytest.raises(CsvFormatError, match="row 2.*'b'"):
            table("a,b\n1,2\n3,oops\n")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_cell_names_row_and_column(self, cell):
        with pytest.raises(CsvFormatError, match=r"row 2, column 'b': non-finite cell"):
            table(f"a,b\n1,2\n3,{cell}\n")

    def test_quoted_header(self):
        t = table('"a,b",c\n1,2\n')
        assert t.names == ["a,b", "c"]

    def test_alternate_delimiter(self):
        t = table("a;b\n1;2\n", delimiter=";")
        assert t.rows[0] == [1.0, 2.0]

    def test_empty_input(self):
        with pytest.raises(CsvFormatError):
            table("")

    def test_header_only(self):
        with pytest.raises(CsvFormatError, match="no data rows"):
            table("a,b\n")

    def test_reads_path(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a\n1\n2\n", encoding="utf-8")
        assert load_csv(f).n_rows == 2


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

    def test_ambiguous_role_lookup(self):
        cfg = SubsetConfig.from_text("g.column = a\n")
        with pytest.raises(ConfigError):
            cfg.group_with_role("response")


class TestSelectVariables:
    def setup_method(self):
        self.table = RawTable(
            names=["a", "b", "c"],
            rows=[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
        )

    def test_identity(self):
        cfg = SubsetConfig(groups={"all": ["a", "b", "c"]})
        out = select_variables(self.table, cfg, "all")
        assert out.names == self.table.names
        assert out.rows == self.table.rows

    def test_single_column(self):
        cfg = SubsetConfig(groups={"one": ["b"]})
        out = select_variables(self.table, cfg, "one")
        assert out.names == ["b"]
        assert out.rows == [[2.0], [5.0]]

    def test_config_order_wins(self):
        cfg = SubsetConfig(groups={"rev": ["c", "a"]})
        out = select_variables(self.table, cfg, "rev")
        assert out.names == ["c", "a"]
        assert out.rows == [[3.0, 1.0], [6.0, 4.0]]

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
        assert [r[1] for r in out.rows] == [1.0, 4.0]


class TestStandardize:
    def test_two_point_column(self):
        # hand z-scores with divisor N-1: mean 2, sd sqrt(2)
        t = RawTable(names=["v"], rows=[[1.0], [3.0]])
        sm = standardize(t)
        assert_allclose(sm.matrix[:, 0], [-0.7071068, 0.7071068], atol=1e-7)
        assert_allclose(sm.means, [2.0])
        assert_allclose(sm.sds, [1.4142136], atol=1e-7)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        t = RawTable(names=["v", "w"], rows=rng.normal(size=(20, 2)).tolist())
        once = standardize(t)
        twice = standardize(
            RawTable(names=once.names, rows=once.matrix.tolist())
        )
        assert np.max(np.abs(twice.matrix - once.matrix)) <= 1e-10

    def test_constant_column(self):
        t = RawTable(names=["v"], rows=[[5.0], [5.0], [5.0]])
        with pytest.raises(ConstantColumnError, match="'v'"):
            standardize(t)

    def test_missing_cell(self):
        t = RawTable(names=["v"], rows=[[1.0], [None]])
        with pytest.raises(MissingValueError, match="row 2"):
            standardize(t)

    def test_too_few_rows(self):
        t = RawTable(names=["v"], rows=[[1.0]])
        with pytest.raises(Exception, match="at least 2"):
            standardize(t)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        values = rng.normal(loc=50.0, scale=7.0, size=(30, 3))
        t = RawTable(names=["a", "b", "c"], rows=values.tolist())
        sm = standardize(t)
        back = destandardize(sm)
        assert_allclose(back, values, rtol=1e-10)

    def test_columns_standardized(self):
        rng = np.random.default_rng(2)
        t = RawTable(names=["a", "b"], rows=rng.normal(5, 3, size=(40, 2)).tolist())
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
            RawTable(names=["a", "a"], rows=[[1.0, 2.0]])

    def test_rejects_ragged(self):
        with pytest.raises(Exception, match="cells"):
            RawTable(names=["a", "b"], rows=[[1.0]])
