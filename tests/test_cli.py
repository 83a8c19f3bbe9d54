import contextlib
import errno
import gc
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

import enetstats.cli
from enetstats.cli import _GROUP, Pipeline, _g17, _tsv, _write_files, build_parser, main, stars
from enetstats.cv import make_folds
from enetstats.dataprep import RawTable, SubsetConfig, load_csv, standardize
from enetstats.enet import EnetConfig, default_lambda_grid, fit_mgaussian_path
from enetstats.inference import fit_mlm, manova_table, univariate_summary, vif

from oracles import cv_refit_loop, vif_auxiliary

DATA = Path(__file__).resolve().parent.parent / "data"
DEMO_CSV = DATA / "demo_lifestyle.csv"
DEMO_CFG = DATA / "demo_subsets.cfg"
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def run(*argv):
    return main([str(a) for a in argv])


def read_tsv(path):
    *lines, end = Path(path).read_text(encoding="utf-8").split("\n")
    assert end == ""  # every line ends in LF
    header = lines[0].split("\t")
    rows = [line.split("\t") for line in lines[1:]]
    return header, rows


def write_small_dataset(tmp_path, n=12, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y1 = x @ np.array([1.0, -0.5]) + 0.4 * rng.normal(size=n)
    y2 = -y1 + 0.3 * rng.normal(size=n)
    csv = tmp_path / "small.csv"
    with open(csv, "w", encoding="utf-8", newline="") as handle:
        handle.write("a,b,y1,y2\n")
        for i in range(n):
            handle.write(f"{x[i,0]:.9f},{x[i,1]:.9f},{y1[i]:.9f},{y2[i]:.9f}\n")
    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        "pred.role = predictor\npred.column = a\npred.column = b\n"
        "resp.role = response\nresp.column = y1\nresp.column = y2\n",
        encoding="utf-8",
    )
    return csv, cfg


class TestStars:
    @pytest.mark.parametrize(
        "p,want",
        [
            (0.0005, "***"), (0.005, "**"), (0.03, "*"), (0.2, "NS"),
            (0.001, "**"), (0.01, "*"), (0.05, "NS"),
        ],
    )
    def test_codes(self, p, want):
        assert stars(p) == want


class TestTsvEgress:
    @settings(max_examples=300)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
    @example([-0.0, 0.0, 5e-324, 1e-310, 2.225073858507201e-308, 0.1, 1e16, 123456789.125])
    @example([1.7976931348623157e308, -1.7976931348623157e308, -5e-324])
    def test_row_format_matches_per_cell_format(self, values):
        header = [f"c{j}" for j in range(len(values))]
        want = "\t".join(header) + "\n" + "\t".join(format(v, ".17g") for v in values) + "\n"
        sink = io.BytesIO()
        _tsv(sink, _GROUP, [[v] for v in values], header)
        assert sink.getvalue() == want.encode()

    @staticmethod
    def g17_cells(values):
        text, keep = _g17(np.asarray(values, dtype=float))
        cells = [bytes(row[kept]).decode() for row, kept in zip(text, keep)]
        assert all(cell.endswith("\t") for cell in cells)
        return [cell[:-1] for cell in cells]

    def test_g17_matches_python_on_a_sweep(self):
        """Every power of ten with the 40 doubles on each side, exact ties
        odd * 2^-(k+1) whose 17th digit is a half, and the extremes."""
        powers = np.array([float(f"1e{j}") for j in range(-323, 309)])
        steps = np.arange(-40, 41)
        near = (powers.view(np.int64)[:, None] + steps).view(np.float64).ravel()
        near = near[(near > 0) & np.isfinite(near)]
        rng = np.random.default_rng(30)
        ties = []
        for k in range(1, 23):
            # x = odd / 2^(k+1) in [10^(16-k), 10^(17-k)): x * 10^k ends in .5
            # (none for k = 0, where such an x needs more than 53 bits)
            low = -(-(10**16) * 2**k // 10**k)
            high = min(10**17 * 2**k // 10**k, 2**52)
            ties.append((2 * rng.integers(low, high, size=2000) + 1) / 2.0 ** (k + 1))
        extremes = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, np.inf]
        values = np.concatenate([near, *ties, extremes])
        values = np.concatenate([values, -values, [np.nan]])
        assert self.g17_cells(values) == [format(v, ".17g") for v in values.tolist()]

    @settings(max_examples=300)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_g17_matches_python(self, values):
        assert self.g17_cells(values) == [format(v, ".17g") for v in values]

    def test_percent_in_response_name_written_verbatim(self, tmp_path, capsys):
        """Names pass through the writer byte for byte: a NUL, a non-ASCII
        letter and %-format text, in headers, name columns and file names."""
        predictors, responses = ["x\x002", "wasser_\u00e4", "100%"], ["y%d", "\u00fc"]
        rng = np.random.default_rng(11)
        x = rng.normal(size=(12, 3))
        y = x @ rng.normal(size=(3, 2)) + rng.normal(size=(12, 2))
        csv, cfg = tmp_path / "names.csv", tmp_path / "names.cfg"
        lines = [",".join(predictors + responses)]
        lines += [",".join(f"{v:.9f}" for v in row) for row in np.column_stack([x, y])]
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg.write_text(
            "p.role = predictor\n" + "".join(f"p.column = {n}\n" for n in predictors)
            + "r.role = response\n" + "".join(f"r.column = {n}\n" for n in responses),
            encoding="utf-8",
        )

        def cells(path, column=0):
            *lines, end = path.read_bytes().split(b"\n")
            assert end == b""
            return lines[0].split(b"\t"), [line.split(b"\t")[column] for line in lines[1:]]

        def encoded(names):
            return [name.encode("utf-8") for name in names]

        out = tmp_path / "prep"
        assert run("prep", "--input", csv, "--subsets", cfg, "--out", out) == 0
        for group, names in (("p", predictors), ("r", responses)):
            assert cells(out / f"{group}.tsv")[0] == encoded(names)
            assert cells(out / f"{group}_scale.tsv")[1] == encoded(names)
        out = tmp_path / "mlm"
        flag = ",".join(predictors)
        assert run("mlm", "--input", csv, "--subsets", cfg, "--out", out, "--predictors", flag) == 0
        capsys.readouterr()
        assert cells(out / "vif.tsv")[1] == encoded(predictors)
        for response in responses:
            assert cells(out / f"uni_{response}.tsv")[1][1:4] == encoded(predictors)
        assert cells(out / "residuals.tsv")[1] == encoded(responses) * 12


class TestPrep:
    def test_demo_writes_three_groups(self, tmp_path):
        out = tmp_path / "out"
        assert run("prep", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out) == 0
        for group in ("demographic", "health", "food"):
            assert (out / f"{group}.tsv").exists()
            assert (out / f"{group}_scale.tsv").exists()
        header, rows = read_tsv(out / "demographic.tsv")
        assert header[0] == "fertility_rate"
        values = np.array([[float(c) for c in row] for row in rows])
        assert values.shape == (86, 6)
        assert np.max(np.abs(values.mean(axis=0))) <= 1e-10
        assert np.max(np.abs(values.std(axis=0, ddof=1) - 1.0)) <= 1e-10
        table, cfg = load_csv(DEMO_CSV), SubsetConfig.load(DEMO_CFG)
        sm = standardize(table, cfg.groups["demographic"])
        assert rows == [[f"{v:.17g}" for v in row] for row in sm.matrix.tolist()]

    def test_scale_sidecar_round_trips(self, tmp_path):
        out = tmp_path / "out"
        run("prep", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out)
        _, rows = read_tsv(out / "health_scale.tsv")
        assert [r[0] for r in rows] == ["yll_communicable", "yll_noncommunicable"]
        for row in rows:
            assert float(row[2]) > 0

    @pytest.mark.parametrize(
        "column",
        [
            # the sd is finite, and 1.7e308 lies more than a double from the mean
            [1.7e308, -1.7e308, -1.7e308, 5.0],
            # each value lies 1.3e308 from the mean, and the sd overflows
            [1.3e308, -1.3e308],
        ],
    )
    def test_column_too_large_to_z_score_exits_2_naming_it(self, tmp_path, capsys, column):
        csv = tmp_path / "h.csv"
        rows = "".join(f"{v!r},{i}\n" for i, v in enumerate(column))
        csv.write_text("a,b\n" + rows, encoding="utf-8")
        cfg = tmp_path / "h.cfg"
        cfg.write_text("g.column = a\ng.column = b\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run("prep", "--input", csv, "--subsets", cfg, "--out", out) == 2
        captured = capsys.readouterr()
        assert "'a'" in captured.err and "too large" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_column_too_small_to_z_score_exits_2_naming_it(self, tmp_path, capsys):
        # one 5e-324 among 19 zeros: the sd, 0.22 times the smallest
        # subnormal, rounds to 0 once scaled back
        csv = tmp_path / "t.csv"
        rows = "".join(f"{'5e-324' if i == 0 else '0'},{i}\n" for i in range(20))
        csv.write_text("a,b\n" + rows, encoding="utf-8")
        cfg = tmp_path / "t.cfg"
        cfg.write_text("g.column = a\ng.column = b\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run("prep", "--input", csv, "--subsets", cfg, "--out", out) == 2
        captured = capsys.readouterr()
        assert "'a'" in captured.err and "too small" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_missing_column_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("g.column = not_there\n", encoding="utf-8")
        code = run("prep", "--input", DEMO_CSV, "--subsets", cfg, "--out", tmp_path / "o")
        assert code == 2
        assert "not_there" in capsys.readouterr().err

    def test_constant_column_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "c.csv"
        csv.write_text("a,b\n1,5\n2,5\n3,5\n", encoding="utf-8")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("g.column = a\ng.column = b\n", encoding="utf-8")
        code = run("prep", "--input", csv, "--subsets", cfg, "--out", tmp_path / "o")
        assert code == 2
        assert "'b'" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e300, 1e-300, 1e-158, 1e-160])
    def test_extreme_column_scale_standardizes(self, tmp_path, scale):
        # the squares inside the sd overflow (1e300), underflow to 0
        # (1e-300) or are subnormal and lose bits (1e-158, 1e-160); z-scores
        # do not depend on a column's scale, so b's are those of the
        # unscaled column and no warning escapes
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=(2, 20)).tolist()
        csv = tmp_path / "s.csv"
        rows = "".join(f"{u!r},{v * scale!r}\n" for u, v in zip(a, b))
        csv.write_text("a,b\n" + rows, encoding="utf-8")
        cfg = tmp_path / "s.cfg"
        cfg.write_text("g.column = a\ng.column = b\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run("prep", "--input", csv, "--subsets", cfg, "--out", out) == 0
        _, rows = read_tsv(out / "g.tsv")
        z = np.array([[float(c) for c in row] for row in rows])
        assert_allclose(z[:, 1], (np.array(b) - np.mean(b)) / np.std(b, ddof=1), rtol=1e-12)
        _, scale_rows = read_tsv(out / "g_scale.tsv")
        assert math.isclose(float(scale_rows[1][2]), np.std(b, ddof=1) * scale, rel_tol=1e-12)

    def test_non_finite_cell_exits_2_before_out(self, tmp_path, capsys):
        csv = tmp_path / "n.csv"
        csv.write_text("a,b\n1,5\n2,nan\n3,4\n", encoding="utf-8")
        cfg = tmp_path / "n.cfg"
        cfg.write_text("g.column = a\ng.column = b\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run("prep", "--input", csv, "--subsets", cfg, "--out", out) == 2
        assert "row 2, column 'b': non-finite cell" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_byte_exits_2_naming_row_and_column(self, tmp_path, capsys):
        csv = tmp_path / "latin1.csv"
        csv.write_bytes(b"a,b\n1,2\n3,\xff\n")
        cfg = tmp_path / "latin1.cfg"
        cfg.write_text("g.column = a\ng.column = b\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run("prep", "--input", csv, "--subsets", cfg, "--out", out) == 2
        assert "row 2, column 'b': cell '\\udcff' is not valid UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_tab_in_column_name_exits_2_before_out(self, tmp_path, capsys):
        # x.tsv's header would hold 3 fields over 2 value columns
        csv = tmp_path / "tab.csv"
        csv.write_text('"a\tb",c,y1,y2\n1,2,3,4\n2,1,4,3\n3,5,1,2\n', encoding="utf-8")
        cfg = tmp_path / "tab.cfg"
        cfg.write_text("x.column = a\tb\nx.column = c\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run("prep", "--input", csv, "--subsets", cfg, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == "error: header row, column 1: name 'a\\tb' holds a tab or line break\n"
        assert not out.exists()

    def test_non_utf8_byte_in_config_exits_2_naming_line(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"g.column = water_access\ng.column = a\xff\n")
        out = tmp_path / "o"
        assert run("prep", "--input", DEMO_CSV, "--subsets", cfg, "--out", out) == 2
        assert "line 2: 'g.column = a\\udcff' is not valid UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_order_marks_are_skipped(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
        bom = b"\xef\xbb\xbf"
        csv = tmp_path / "excel.csv"
        csv.write_bytes(bom + b"a,b\r\n1,2\r\n2,5\r\n4,6\r\n")
        cfg = tmp_path / "excel.cfg"
        cfg.write_bytes(bom + b"g.role = predictor\r\ng.column = a\r\ng.column = b\r\n")
        out = tmp_path / "o"
        assert run("prep", "--input", csv, "--subsets", cfg, "--out", out) == 0
        header, rows = read_tsv(out / "g.tsv")
        assert header == ["a", "b"] and len(rows) == 3

    def test_column_name_with_a_form_feed_is_selected(self, tmp_path):
        # the header accepts the name, and the config line holding it stays
        # one line: only CR and LF break a line
        csv = tmp_path / "ff.csv"
        csv.write_text('"a\x0cb",c\n1,2\n2,5\n4,6\n', encoding="utf-8")
        cfg = tmp_path / "ff.cfg"
        cfg.write_text("g.column = a\x0cb\ng.column = c\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run("prep", "--input", csv, "--subsets", cfg, "--out", out) == 0
        header, rows = read_tsv(out / "g.tsv")
        assert header == ["a\x0cb", "c"] and len(rows) == 3
        _, rows = read_tsv(out / "g_scale.tsv")
        assert [r[0] for r in rows] == ["a\x0cb", "c"]

    def test_overlong_quoted_cell_exits_2_before_out(self, tmp_path, capsys):
        # the csv module refuses fields above 131,072 characters
        csv = tmp_path / "long.csv"
        csv.write_text('a,b\n1,2\n3,"' + "x" * 200_000 + '"\n', encoding="utf-8")
        cfg = tmp_path / "long.cfg"
        cfg.write_text("g.column = a\ng.column = b\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run("prep", "--input", csv, "--subsets", cfg, "--out", out) == 2
        assert "row 2: field larger than field limit" in capsys.readouterr().err
        assert not out.exists()

    def test_group_name_with_path_separator_exits_2_before_out(self, tmp_path, capsys):
        cfg = tmp_path / "slash.cfg"
        cfg.write_text("g.column = water_access\na/b.column = fertility_rate\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run("prep", "--input", DEMO_CSV, "--subsets", cfg, "--out", out) == 2
        assert "'a/b.tsv'" in capsys.readouterr().err
        assert not out.exists()

    def test_group_named_like_a_scale_sidecar_exits_2_before_out(self, tmp_path, capsys):
        # group "demographic_scale" would overwrite demographic's sidecar
        cfg = tmp_path / "clash.cfg"
        text = DEMO_CFG.read_text(encoding="utf-8").replace("food.", "demographic_scale.")
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert run("prep", "--input", DEMO_CSV, "--subsets", cfg, "--out", out) == 2
        assert "'demographic_scale.tsv'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        # a missing file, a path under a regular file (NotADirectoryError)
        # and a name over NAME_MAX (ENAMETOOLONG), each as either input
        out = tmp_path / "o"
        for bad in (tmp_path / "nope.csv", DEMO_CSV / "x", tmp_path / ("n" * 300 + ".csv")):
            for flag in ("--input", "--subsets"):
                paths = {"--input": DEMO_CSV, "--subsets": DEMO_CFG, flag: bad}
                argv = [item for pair in paths.items() for item in pair]
                assert run("prep", *argv, "--out", out) == 2, (flag, bad)
                err = capsys.readouterr().err
                assert err.startswith("error: ") and repr(str(bad)) in err, (flag, err)
                assert not out.exists()


class TestModuleEntryPoint:
    """``python -m enetstats`` is ``main`` with the process's exit code."""

    @staticmethod
    def run_module(*argv):
        src = str(Path(enetstats.cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "enetstats", *map(str, argv)],
            env=env, capture_output=True, check=False,
        )

    def test_prep_matches_main(self, tmp_path, capsys):
        flags = ["--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out"]
        child = self.run_module("prep", *flags, tmp_path / "module")
        assert child.returncode == 0, child.stderr
        assert run("prep", *flags, tmp_path / "main") == 0
        assert child.stdout == capsys.readouterr().out.encode("utf-8")
        names = sorted(p.name for p in (tmp_path / "main").iterdir())
        assert sorted(p.name for p in (tmp_path / "module").iterdir()) == names
        for name in names:
            assert (tmp_path / "module" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()

    def test_bad_flag_exits_2(self, tmp_path):
        out = tmp_path / "out"
        child = self.run_module(
            "prep", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out, "--alpha", "1.5"
        )
        assert child.returncode == 2
        assert b"--alpha" in child.stderr
        assert not out.exists()


class TestEnet:
    def test_path_file(self, tmp_path):
        out = tmp_path / "out"
        assert run("enet", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out) == 0
        header, rows = read_tsv(out / "path.tsv")
        assert header == ["lambda", "dev_ratio", "nonzero"]
        lams = np.array([float(r[0]) for r in rows])
        dev = np.array([float(r[1]) for r in rows])
        assert len(lams) == 100
        assert np.all(np.diff(lams) < 0)
        assert np.all(np.diff(dev) >= -1e-8)

        # head of the grid equals lambda_max computed from the prepared data
        table = load_csv(DEMO_CSV)
        cfg = SubsetConfig.load(DEMO_CFG)
        x = standardize(table, cfg.groups["demographic"]).matrix
        y = standardize(table, cfg.groups["health"]).matrix
        g = (x - x.mean(0)).T @ (y - y.mean(0)) / x.shape[0]
        lam_max = float(np.sqrt((g * g).sum(axis=1)).max()) / 0.5
        assert math.isclose(lams[0], lam_max, rel_tol=1e-15)

    def test_noise_predictor_removed(self, tmp_path):
        for digits in (17, 6, 3):
            out = tmp_path / f"out{digits}"
            argv = ["enet", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out]
            run(*argv, "--digits", digits)
            coef_files = list(out.glob("coef_*.tsv"))
            assert len(coef_files) == 1
            header, rows = read_tsv(coef_files[0])
            assert header == ["predictor", "yll_communicable", "yll_noncommunicable"]
            by_name = {r[0]: r[1:] for r in rows}
            assert by_name["water_access"] == ["removed", "removed"]
            # the informative predictors stay, in scientific form at --digits
            sci = re.compile(rf"-?\d\.\d{{{digits - 1}}}e[+-]\d\d")
            kept = [c for name, cells in by_name.items() if name != "water_access" for c in cells]
            assert kept and all(sci.fullmatch(c) for c in kept), kept

    def test_numbers_round_trip(self, tmp_path):
        out = tmp_path / "out"
        run("enet", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out)
        _, rows = read_tsv(out / "path.tsv")
        for row in rows:
            v = float(row[0])
            assert float(format(v, ".17g")) == v


class TestCv:
    def test_deterministic_and_rule_ordering(self, tmp_path, capsys):
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert run("cv", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out1, "--seed", 9) == 0
        first = capsys.readouterr().out
        assert run("cv", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out2, "--seed", 9) == 0
        second = capsys.readouterr().out
        assert first == second
        assert (out1 / "cv.tsv").read_bytes() == (out2 / "cv.tsv").read_bytes()
        lam_min = float(first.splitlines()[0].split("=")[1])
        lam_1se = float(first.splitlines()[1].split("=")[1])
        assert lam_1se >= lam_min

    def test_constant_predictor_in_a_training_slice_exits_3_naming_it(self, tmp_path, capsys):
        csv = write_fold_constant_csv(tmp_path)
        assert run("cv", "--input", csv, "--subsets", DEMO_CFG, "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err == "error: fold 0: training slice: predictor 'water_access' is constant\n"

    def test_small_dataset_matches_oracle(self, tmp_path, capsys):
        csv, cfgfile = write_small_dataset(tmp_path)
        out = tmp_path / "out"
        assert run(
            "cv", "--input", csv, "--subsets", cfgfile, "--out", out,
            "--folds", 3, "--seed", 17, "--nlambda", 20,
        ) == 0
        capsys.readouterr()
        header, rows = read_tsv(out / "cv.tsv")
        got_mean = np.array([float(r[1]) for r in rows])
        got_se = np.array([float(r[2]) for r in rows])

        table = load_csv(csv)
        cfg = SubsetConfig.load(cfgfile)
        x = standardize(table, cfg.groups["pred"]).matrix
        y = standardize(table, cfg.groups["resp"]).matrix
        econf = EnetConfig(alpha=0.5, nlambda=20)
        lambdas = default_lambda_grid(x, y, econf)
        folds = make_folds(12, 3, 17)
        mean_e, se_e, _, _ = cv_refit_loop(
            x, y, folds.assignment, 3, lambdas,
            lambda xt, yt, lams: fit_mgaussian_path(xt, yt, econf, lambdas=lams),
        )
        assert_allclose(got_mean, mean_e, atol=1e-10)
        assert_allclose(got_se, se_e, atol=1e-10)


    def test_demo_selection_matches_benchmark_reference(self, tmp_path, capsys):
        # perfbench/reference.json stores the lambda index each fold seed
        # selected when the benchmark was recorded; a solver change must
        # not move the CV argmin on the demo data
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["demo_report"]
        for seed in range(20):
            out = tmp_path / f"seed{seed}"
            assert run("cv", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out, "--seed", seed) == 0
            _, rows = read_tsv(out / "cv.tsv")
            chosen = int(np.argmin([float(r[1]) for r in rows]))
            assert chosen == reference[str(seed)]["lambda_index"], seed
        capsys.readouterr()


class TestMlm:
    def test_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("mlm", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out) == 0
        captured = capsys.readouterr().out

        header, rows = read_tsv(out / "manova.tsv")
        assert header == ["term", "df", "pillai", "approx_f", "num_df", "den_df", "p", "stars"]
        terms = [r[0] for r in rows]
        assert "water_access" not in terms
        assert all(r[4] == "2" for r in rows)  # num_df = K
        assert all(r[5] == "79" for r in rows)  # den_df = 80 - 2 + 1

        # residual records: one per observation and response, observation-major
        # (responses cycle fastest), written from the fit's own arrays
        _, rrows = read_tsv(out / "residuals.tsv")
        assert len(rrows) == 86 * 2
        table, cfg = load_csv(DEMO_CSV), SubsetConfig.load(DEMO_CFG)
        x = standardize(table, cfg.groups[cfg.group_with_role("predictor")])
        y = standardize(table, cfg.groups[cfg.group_with_role("response")])
        kept = x.matrix[:, [x.names.index(t) for t in terms]]
        fit = fit_mlm(kept, y.matrix)
        assert [r[0] for r in rrows] == y.names * 86
        assert rrows == [
            [name, f"{fit.fitted[i, k]:.17g}", f"{fit.residuals[i, k]:.17g}"]
            for i in range(86)
            for k, name in enumerate(y.names)
        ]

        # every printed number against an independent least-squares fit, at
        # the benchmark oracle's tolerances (perfbench/check.py)
        n, p = kept.shape
        df_error = n - p - 1
        assert (p, df_error) == (5, 80)
        design = np.column_stack([np.ones(n), kept])
        want_fitted = design @ np.linalg.lstsq(design, y.matrix, rcond=None)[0]
        fitted = np.array([float(r[1]) for r in rrows]).reshape(n, 2)
        resid = np.array([float(r[2]) for r in rrows]).reshape(n, 2)
        assert_allclose(fitted, want_fitted, rtol=0.0, atol=1e-10)
        assert_allclose(resid, y.matrix - want_fitted, rtol=0.0, atol=1e-10)
        for k in range(2):
            assert abs(resid[:, k].mean()) <= 1e-10
            assert abs(float(fitted[:, k] @ resid[:, k])) <= 1e-8
        shown = [l for l in captured.splitlines() if l.startswith(f"F({p},{df_error})=")]
        assert len(shown) == 2
        for k, name in enumerate(y.names):
            e = y.matrix[:, k] - want_fitted[:, k]
            centered = y.matrix[:, k] - y.matrix[:, k].mean()
            rss, tss = float(e @ e), float(centered @ centered)
            r2 = 1.0 - rss / tss
            uni = (out / f"uni_{name}.tsv").read_text(encoding="utf-8")
            footer = dict(cell.split("=") for cell in uni.splitlines()[-1].split())
            assert float(footer[f"F({p},{df_error})"]) == pytest.approx(
                r2 / p / ((1.0 - r2) / df_error), rel=1e-10, abs=0.0
            )
            assert float(footer["R2"]) == pytest.approx(r2, rel=1e-12, abs=1e-12)
            assert float(footer["R2adj"]) == pytest.approx(
                1.0 - (1.0 - r2) * (n - 1) / df_error, rel=1e-12, abs=1e-12
            )
            # stdout prints sigma at 4 significant digits
            sigma = float(shown[k].split("sigma=")[1])
            assert sigma == pytest.approx(math.sqrt(rss / df_error), rel=5e-4, abs=0.0)

        # strongly negatively correlated responses show up on stdout
        line = next(l for l in captured.splitlines() if l.startswith("pearson"))
        r = float(line.split("r=")[1].split()[0])
        want = stats.pearsonr(y.matrix[:, 0], y.matrix[:, 1])
        assert r <= -0.9
        assert r == pytest.approx(want[0], rel=0.0, abs=1e-12)
        assert float(line.split("p=")[1]) == pytest.approx(want[1], rel=5e-4, abs=1e-300)

        header, vrows = read_tsv(out / "vif.tsv")
        assert header == ["predictor", "r2_aux", "vif"]
        assert [r[0] for r in vrows] == terms
        for row, (r2_aux, v) in zip(vrows, vif_auxiliary(kept)):
            assert float(row[1]) == pytest.approx(r2_aux, rel=1e-12, abs=1e-12)
            assert float(row[2]) == pytest.approx(v, rel=1e-10, abs=0.0)
            assert float(row[2]) >= 1.0

    def test_tables_hold_the_library_numbers(self, tmp_path, capsys):
        # every numeric cell of manova.tsv, uni_*.tsv and vif.tsv reads back
        # as exactly the double the library returns for the same z-scores
        table, cfg = load_csv(DEMO_CSV), SubsetConfig.load(DEMO_CFG)
        x = standardize(table, cfg.groups[cfg.group_with_role("predictor")])
        y = standardize(table, cfg.groups[cfg.group_with_role("response")])
        out = tmp_path / "out"
        argv = ["--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out]
        assert run("mlm", *argv, "--predictors", ",".join(x.names)) == 0
        capsys.readouterr()
        fit = fit_mlm(x.matrix, y.matrix, predictor_names=x.names, response_names=y.names)
        p, k = fit.n_predictors, fit.n_responses

        def exact(cells, values):
            assert len(cells) == len(values)
            assert all(float(c) == v for c, v in zip(cells, values)), (cells, values)

        _, rows = read_tsv(out / "manova.tsv")
        m = manova_table(fit)
        assert [r[0] for r in rows] == x.names
        assert [r[1] for r in rows] == ["1"] * p
        assert [r[4] for r in rows] == [str(k)] * p
        assert [r[5] for r in rows] == [str(fit.df_error - k + 1)] * p
        for j, values in ((2, m.pillai), (3, m.approx_f), (6, m.p_value)):
            exact([r[j] for r in rows], values.tolist())
        assert [r[7] for r in rows] == [stars(v) for v in m.p_value.tolist()]

        for response in range(k):
            _, rows = read_tsv(out / f"uni_{y.names[response]}.tsv")
            footer = dict(cell.split("=") for cell in rows.pop()[0].split())
            s = univariate_summary(fit, response)
            assert [r[0] for r in rows] == ["intercept"] + x.names
            for j, values in ((1, s.estimate), (2, s.std_error), (3, s.t), (4, s.p)):
                exact([r[j] for r in rows], values.tolist())
            assert [r[5] for r in rows] == [stars(v) for v in s.p.tolist()]
            exact(
                [footer[f"F({p},{fit.df_error})"], footer["R2"], footer["R2adj"]],
                [s.f_stat, s.r2, s.r2_adj],
            )

        _, rows = read_tsv(out / "vif.tsv")
        v = vif(fit)
        assert [r[0] for r in rows] == x.names
        exact([r[1] for r in rows], v.r2_aux.tolist())
        exact([r[2] for r in rows], v.vif.tolist())

    def test_explicit_predictor_list(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(
            "mlm", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out,
            "--predictors", "fertility_rate,sanitation_access",
        )
        assert code == 0
        capsys.readouterr()
        _, rows = read_tsv(out / "manova.tsv")
        assert [r[0] for r in rows] == ["fertility_rate", "sanitation_access"]
        assert all(r[5] == "82" for r in rows)  # den_df = (86-3) - 2 + 1

    def test_pearson_line_per_response_pair(self, tmp_path, capsys):
        csv, cfg = write_small_dataset(tmp_path)
        lines = csv.read_text(encoding="utf-8").splitlines()
        y3 = np.random.default_rng(6).normal(size=len(lines) - 1)
        rows = [f"{line},{v:.9f}\n" for line, v in zip(lines[1:], y3)]
        csv.write_text(lines[0] + ",y3\n" + "".join(rows), encoding="utf-8")
        with open(cfg, "a", encoding="utf-8") as handle:
            handle.write("resp.column = y3\n")
        assert run("mlm", "--input", csv, "--subsets", cfg, "--out", tmp_path / "out") == 0
        out = capsys.readouterr().out
        got = [line.split() for line in out.splitlines() if line.startswith("pearson")]
        assert [g[1] for g in got] == ["y1~y2", "y1~y3", "y2~y3"]
        # scipy on the responses as the CSV holds them, before z-scoring
        y = load_csv(csv).values[:, 2:]
        for (i, j), g in zip([(0, 1), (0, 2), (1, 2)], got):
            want = stats.pearsonr(y[:, i], y[:, j])
            assert math.isclose(float(g[2].removeprefix("r=")), want.statistic, rel_tol=1e-12)
            assert math.isclose(float(g[3].removeprefix("p=")), want.pvalue, rel_tol=1e-12)

    def test_demo_pearson_line_matches_scipy(self, tmp_path, capsys):
        assert run("mlm", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", tmp_path / "o") == 0
        line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("pearson"))
        _, r, p = line.split()
        table = load_csv(DEMO_CSV)
        health = SubsetConfig.load(DEMO_CFG).groups["health"]
        y = table.values[:, [table.names.index(n) for n in health]]
        want = stats.pearsonr(y[:, 0], y[:, 1])
        assert math.isclose(float(r.removeprefix("r=")), want.statistic, rel_tol=1e-12)
        assert math.isclose(float(p.removeprefix("p=")), want.pvalue, rel_tol=1e-12)

    def test_unknown_predictor_exits_2(self, tmp_path, capsys):
        code = run(
            "mlm", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", tmp_path / "o",
            "--predictors", "nope",
        )
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_duplicate_predictor_exits_4(self, tmp_path, capsys):
        # a copy under another name; a name given twice is a flag error
        code = run(
            "mlm", "--input", write_copied_column_csv(tmp_path), "--subsets", DEMO_CFG,
            "--out", tmp_path / "o", "--predictors", "fertility_rate,gni_per_capita",
        )
        assert code == 4
        assert "collinear" in capsys.readouterr().err


def stdout_sections(text):
    """The stdout tables by title, each as its lines up to the next title."""
    sections, title = {}, None
    for line in text.splitlines():
        if line.endswith(":") or line.startswith("Follow-up regression: "):
            title = line
            sections[title] = []
        elif line.startswith("pearson"):
            title = None
        elif title is not None:
            sections[title].append(line)
    return sections


def cell_starts(line):
    # cells are at least two spaces apart; a header may hold one space
    return [m.start() for m in re.finditer(r"\S+(?: \S+)*", line)]


class TestStdoutTables:
    """Each stdout table shows the cells of its TSV at display precision:
    numbers at --digits significant digits, p-values at 4, text as is."""

    def assert_shown(self, lines, path, header, styles):
        """``lines`` are the table's aligned header and rows; ``styles``
        formats each TSV column, None for a column kept off screen."""
        _, rows = read_tsv(path)
        rows = [row for row in rows if len(row) > 1]  # without a footer line
        assert re.split(r"\s{2,}", lines[0]) == header
        shown = [line.split() for line in lines[1 : 1 + len(rows)]]
        assert shown == [[f(c) for c, f in zip(row, styles) if f] for row in rows]
        starts = [cell_starts(line) for line in lines[1 : 1 + len(rows)]]
        assert all(s == starts[0] for s in starts)
        assert starts[0][: len(header)] == cell_starts(lines[0])
        return lines[1 + len(rows) :]

    @pytest.mark.parametrize("digits", [6, 3])
    def test_tables_match_tsvs(self, tmp_path, capsys, digits):
        out = tmp_path / "out"
        argv = ["mlm", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out]
        assert run(*argv, "--digits", digits) == 0
        sections = stdout_sections(capsys.readouterr().out)

        def fixed(cell):
            return format(float(cell), f".{digits}g")

        def p4(cell):
            return format(float(cell), ".4g")

        text = str
        rest = self.assert_shown(
            sections["Multivariate tests:"], out / "manova.tsv",
            ["term", "df", "pillai", "approx F", "num df", "den df", "p"],
            [text, text, fixed, fixed, text, text, p4, text],
        )
        assert rest == []

        _, rows = read_tsv(out / "manova.tsv")
        terms = [r[0] for r in rows]
        table, cfg = load_csv(DEMO_CSV), SubsetConfig.load(DEMO_CFG)
        x = standardize(table, cfg.groups[cfg.group_with_role("predictor")])
        y = standardize(table, cfg.groups[cfg.group_with_role("response")])
        fit = fit_mlm(x.matrix[:, [x.names.index(t) for t in terms]], y.matrix)
        for k, response in enumerate(y.names):
            path = out / f"uni_{response}.tsv"
            (footer,) = self.assert_shown(
                sections[f"Follow-up regression: {response}"], path,
                ["term", "estimate", "std error", "t", "p"],
                [text, fixed, fixed, fixed, p4, text],
            )
            written = dict(c.split("=") for c in read_tsv(path)[1][-1][0].split())
            got = dict(c.split("=") for c in footer.split())
            (f_label,) = [label for label in written if label.startswith("F(")]
            assert got == {
                f_label: fixed(written[f_label]),
                "R2": p4(written["R2"]),
                "R2adj": p4(written["R2adj"]),
                "sigma": format(univariate_summary(fit, k).sigma, ".4g"),
            }

        rest = self.assert_shown(
            sections["Variance inflation factors:"], out / "vif.tsv",
            ["predictor", "vif"], [text, None, fixed],
        )
        assert rest == []


class TestFlagValidation:
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--digits", "0"),
            # past 17 digits a double prints binary noise; at 2^31 `report`
            # failed on Python's "precision too big", naming no flag
            ("--digits", "18"),
            ("--digits", "2147483648"),
            ("--alpha", "0"),
            ("--alpha", "1.5"),
            # below 2^-200 the path ran into an overflowed lambda_max, NaN
            # lambdas or 10,000 passes at one lambda
            ("--alpha", "5e-324"),
            ("--alpha", "1e-140"),
            ("--alpha", "1e-160"),
            ("--alpha", "1e-200"),
            ("--alpha", "1e-250"),
            ("--alpha", "1e-300"),
            ("--nlambda", "1"),
            ("--lambda-min-ratio", "1"),
            ("--folds", "1"),
        ],
    )
    def test_bad_value_exits_2_before_out(self, tmp_path, capsys, flag, value):
        out = tmp_path / "o"
        code = run(
            "report", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out, flag, value
        )
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_cv_at_a_subnormal_alpha_names_the_flag(self, tmp_path, capsys):
        # it once blamed fold 0 for the NaN lambdas of its grid, exit 3
        out = tmp_path / "o"
        argv = ["--out", out, "--alpha", "5e-324", "--nlambda", "2", "--folds", "2"]
        assert run("cv", "--input", DEMO_CSV, "--subsets", DEMO_CFG, *argv) == 2
        assert capsys.readouterr().err == (
            "error: --alpha: alpha must be 0 or lie in [2^-200, 1], got 5e-324\n"
        )
        assert not out.exists()

    def test_folds_above_observations_exits_2_before_out(self, tmp_path, capsys):
        # the demo has 86 rows, so 86 folds is the largest valid split
        out = tmp_path / "o"
        code = run(
            "report", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out, "--folds", "87"
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--folds" in err and "86" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["report", "enet", "cv", "mlm"])
    def test_folds_above_observations_exits_2_before_any_fit(
        self, tmp_path, capsys, monkeypatch, command
    ):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return fit_mgaussian_path(*args, **kwargs)

        monkeypatch.setattr(enetstats.cli, "fit_mgaussian_path", spy)
        out = tmp_path / "o"
        code = run(
            command, "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out, "--folds", "87"
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --folds must be <= the 86 observations, got 87\n"
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["prep"], ["mlm", "--predictors", "fertility_rate,water_access"]],
        ids=["prep", "mlm"],
    )
    def test_folds_above_observations_is_unused_without_cv(self, tmp_path, argv):
        # neither run cross-validates, so the default 10 folds must not
        # stop either on a table of fewer than 10 rows
        out = tmp_path / "o"
        code = run(*argv, "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out, "--folds", "87")
        assert code == 0 and out.is_dir()

    def test_unknown_predictor_exits_2_before_out(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(
            "report", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out,
            "--predictors", "fertility_rate,nope",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--predictors" in err and "'nope'" in err and "fertility_rate" not in err
        assert not out.exists()

    def test_unknown_predictor_exits_2_before_any_fit(self, tmp_path, capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("the path was fitted before --predictors was checked")

        monkeypatch.setattr(enetstats.cli, "fit_mgaussian_path", no_fit)
        code = run(
            "report", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", tmp_path / "o",
            "--predictors", "nope",
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --predictors: not in the predictor group: 'nope'\n"

    @pytest.mark.parametrize(
        "command, value, rule",
        [
            ("mlm", "fertility_rate,fertility_rate,gni_per_capita", "distinct predictors"),
            ("report", " , ", "distinct predictors"),
            # VIF needs 2; the flag is named, not VIF's own error
            ("mlm", "fertility_rate", "at least 2 predictors for VIF"),
        ],
        ids=["repeated", "separators_only", "one"],
    )
    def test_repeated_or_no_predictor_exits_2_before_any_fit(
        self, tmp_path, capsys, monkeypatch, command, value, rule
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("a model was fitted before --predictors was checked")

        monkeypatch.setattr(enetstats.cli, "fit_mgaussian_path", no_fit)
        monkeypatch.setattr(enetstats.cli, "fit_mlm", no_fit)
        out = tmp_path / "o"
        code = run(
            command, "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out,
            "--predictors", value,
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --predictors must name {rule}, got {value!r}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    def test_out_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys, under):
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n", encoding="utf-8")
        out = blocker / "o" if under else blocker
        assert run("prep", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out) == 2
        captured = capsys.readouterr()
        assert "--out" in captured.err and captured.out == ""
        assert blocker.read_text(encoding="utf-8") == "keep\n"


def write_nan_csv(tmp_path):
    text = DEMO_CSV.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = text[5].split(",")
    cells[1] = "nan"
    (tmp_path / "nan.csv").write_text("".join(text[:5] + [",".join(cells)] + text[6:]), encoding="utf-8")
    return tmp_path / "nan.csv"


def write_copied_column_csv(tmp_path):
    """The demo data with gni_per_capita overwritten by fertility_rate."""
    lines = DEMO_CSV.read_text(encoding="utf-8").splitlines(keepends=True)
    rows = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[1] = cells[0]
        rows.append(",".join(cells))
    (tmp_path / "copied.csv").write_text("".join(rows), encoding="utf-8")
    return tmp_path / "copied.csv"


def write_fold_constant_csv(tmp_path):
    """The demo data with water_access held at one value outside fold 0 of
    the default split, so fold 0's training slice has a constant predictor."""
    lines = DEMO_CSV.read_text(encoding="utf-8").splitlines(keepends=True)
    folds = make_folds(len(lines) - 1, 10, 1).assignment
    rows = [lines[0]]
    for line, fold in zip(lines[1:], folds):
        cells = line.split(",")
        if fold != 0:
            cells[4] = "50.0"
        rows.append(",".join(cells))
    (tmp_path / "fold_constant.csv").write_text("".join(rows), encoding="utf-8")
    return tmp_path / "fold_constant.csv"


class TestFailedRunWritesNothing:
    """A run that fails at any stage leaves ``--out`` and stdout as they were."""

    CASES = {
        # mlm computes MANOVA and the follow-up tables before VIF refuses
        "one_predictor": (["mlm", "--predictors", "fertility_rate"], 2),
        "collinear": (["mlm", "--predictors", "fertility_rate,gni_per_capita"], 4),
        "folds_above_n": (["report", "--folds", "87"], 2),
        "unknown_predictor": (["report", "--predictors", "nope"], 2),
        "nan_cell": (["report"], 2),
        "cv_fold_fails": (["report"], 3),
    }

    @pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_out_and_stdout_untouched(self, tmp_path, capsys, case, existing):
        argv, code = self.CASES[case]
        writer = {
            "nan_cell": write_nan_csv,
            "collinear": write_copied_column_csv,
            "cv_fold_fails": write_fold_constant_csv,
        }.get(case)
        csv = writer(tmp_path) if writer else DEMO_CSV
        out = tmp_path / "o"
        if existing:
            out.mkdir()
            (out / "sentinel.tsv").write_bytes(b"before\n")
        assert run(*argv, "--input", csv, "--subsets", DEMO_CFG, "--out", out) == code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        if existing:
            assert sorted(p.name for p in out.iterdir()) == ["sentinel.tsv"]
            assert (out / "sentinel.tsv").read_bytes() == b"before\n"
        else:
            assert not out.exists()


def fail_write(monkeypatch, file, write, error):
    """Make the ``write``-th write into the ``file``-th file opened for
    writing write its first 5 characters and then raise ``error``; returns
    the paths opened for writing."""
    path_open = Path.open
    opened = []

    class Sink:
        def __init__(self, handle):
            self.handle = handle
            self.index = len(opened)
            self.writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.handle.close()

        def write(self, text):
            self.writes += 1
            if (self.index, self.writes) == (file, write):
                self.handle.write(text[:5])
                raise error
            return self.handle.write(text)

    def open_for_test(path, mode="r", *args, **kwargs):
        handle = path_open(path, mode, *args, **kwargs)
        if "w" not in mode:
            return handle
        sink = Sink(handle)
        opened.append(path)
        return sink

    monkeypatch.setattr(Path, "open", open_for_test)
    return opened


class TestAtomicOutput:
    ENOSPC = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def run_failing(self, tmp_path, capsys, monkeypatch, existing, file, write, error):
        """Run ``prep`` with the ``write``-th write into its ``file``-th
        file raising ``error``, check that ``--out`` is as it was with no
        temporary file behind, and return stderr."""
        out = tmp_path / "o"
        if existing:
            out.mkdir()
            (out / "sentinel.tsv").write_bytes(b"before\n")
            (out / "demographic.tsv").write_bytes(b"old\n")
        written = fail_write(monkeypatch, file, write, error)
        argv = ("prep", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out)
        if isinstance(error, OSError):
            assert run(*argv) == 2
        else:
            with pytest.raises(type(error)):
                run(*argv)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert written and all(not path.exists() for path in written)
        if existing:
            assert sorted(p.name for p in tmp_path.iterdir()) == ["o"]
            assert sorted(p.name for p in out.iterdir()) == ["demographic.tsv", "sentinel.tsv"]
            assert (out / "sentinel.tsv").read_bytes() == b"before\n"
            assert (out / "demographic.tsv").read_bytes() == b"old\n"
        else:
            assert list(tmp_path.iterdir()) == []
        return captured.err

    @pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
    def test_failed_second_write_leaves_out_unchanged(self, tmp_path, capsys, monkeypatch, existing):
        # the second file's first write is truncated, then the error
        err = self.run_failing(tmp_path, capsys, monkeypatch, existing, 1, 1, self.ENOSPC)
        want = "error: --out: cannot write 'demographic_scale.tsv': No space left on device\n"
        assert err == want

    @pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
    def test_failed_write_mid_file_leaves_out_unchanged(
        self, tmp_path, capsys, monkeypatch, existing
    ):
        # demographic.tsv's header and first chunk of rows are written, and
        # its second chunk is truncated; 60 cells a chunk gives its 86 rows
        # of 6 columns several chunks
        monkeypatch.setattr(enetstats.cli, "_CELLS", 60)
        err = self.run_failing(tmp_path, capsys, monkeypatch, existing, 0, 3, self.ENOSPC)
        assert err == "error: --out: cannot write 'demographic.tsv': No space left on device\n"

    @pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
    def test_interrupted_write_leaves_out_unchanged(self, tmp_path, capsys, monkeypatch, existing):
        # not an OSError: it propagates, and the temporaries are still removed
        err = self.run_failing(tmp_path, capsys, monkeypatch, existing, 1, 1, KeyboardInterrupt())
        assert err == ""

    def test_existing_out_files_replaced(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        (out / "demographic.tsv").write_bytes(b"old\n")
        (out / "sentinel.tsv").write_bytes(b"before\n")
        assert run("prep", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out) == 0
        fresh = tmp_path / "fresh"
        assert run("prep", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", fresh) == 0
        capsys.readouterr()
        names = sorted(p.name for p in fresh.iterdir())
        assert sorted(p.name for p in out.iterdir()) == sorted(names + ["sentinel.tsv"])
        for name in names:
            assert (out / name).read_bytes() == (fresh / name).read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "o"]


class TestStreamedOutput:
    def test_writing_holds_no_file_text(self, tmp_path):
        """The files' text is formatted while it is written: while ~8.9 MB
        of TSV is written, traced memory never grows by 1 MB."""
        n, p = 11_000, 40
        names = [f"x{j}" for j in range(p)]
        csv = tmp_path / "wide.csv"
        data = np.random.default_rng(7).normal(size=(n, p))
        np.savetxt(csv, data, fmt="%.6f", delimiter=",", header=",".join(names), comments="")
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("".join(f"g.column = {name}\n" for name in names), encoding="utf-8")
        out = tmp_path / "o"
        args = build_parser().parse_args(
            ["prep", "--input", str(csv), "--subsets", str(cfg), "--out", str(out)]
        )
        pipeline = Pipeline(args)
        pipeline.run_prep()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _write_files(out, pipeline.files)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(path.stat().st_size for path in out.iterdir()) >= 8_000_000
        assert peak - start < 1_000_000

    def test_writing_residuals_holds_no_file_text(self, tmp_path):
        """``mlm``'s residuals.tsv of N = 20000 rows and K = 4 responses,
        ~3.5 MB, is written under the same 1 MB bound."""
        rng = np.random.default_rng(8)
        x = rng.normal(size=(20_000, 3))
        y = x @ rng.normal(size=(3, 4)) + rng.normal(size=(20_000, 4))
        csv = tmp_path / "tall.csv"
        header = "a,b,c,y1,y2,y3,y4"
        np.savetxt(csv, np.column_stack([x, y]), fmt="%.6f", delimiter=",", header=header, comments="")
        cfg = tmp_path / "tall.cfg"
        cfg.write_text(
            "p.role = predictor\n" + "".join(f"p.column = {n}\n" for n in "abc")
            + "r.role = response\n" + "".join(f"r.column = y{k}\n" for k in range(1, 5)),
            encoding="utf-8",
        )
        out = tmp_path / "o"
        argv = ["mlm", "--input", str(csv), "--subsets", str(cfg), "--out", str(out)]
        pipeline = Pipeline(build_parser().parse_args(argv + ["--predictors", "a,b,c"]))
        pipeline.run_mlm()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _write_files(out, pipeline.files)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (out / "residuals.tsv").stat().st_size >= 3_400_000
        assert peak - start < 1_000_000


def write_constant_group_dataset(tmp_path):
    """The small dataset plus a third, role-less group whose one column
    is constant, so it cannot be z-scored."""
    csv, cfg = write_small_dataset(tmp_path)
    lines = csv.read_text(encoding="utf-8").splitlines()
    text = "".join(f"{line},{'k' if i == 0 else 7}\n" for i, line in enumerate(lines))
    csv.write_text(text, encoding="utf-8")
    cfg.write_text(cfg.read_text(encoding="utf-8") + "extra.column = k\n", encoding="utf-8")
    return csv, cfg


class TestInputsReadOnce:
    """Each command z-scores the groups it reads, and only those, when the
    inputs are read, and keeps no table."""

    @pytest.mark.parametrize("command", ["prep", "enet", "cv", "mlm", "report"])
    def test_only_the_commands_groups_are_z_scored(self, tmp_path, capsys, command):
        csv, cfg = write_constant_group_dataset(tmp_path)
        out = tmp_path / "o"
        code = run(command, "--input", csv, "--subsets", cfg, "--out", out, "--folds", "3")
        captured = capsys.readouterr()
        if command in ("prep", "report"):
            assert code == 2 and captured.err == "error: constant column(s): 'k'\n"
            assert captured.out == "" and not out.exists()
        else:
            assert code == 0 and captured.err == ""

    def test_mlm_keeps_its_two_groups_and_no_table(self, tmp_path, monkeypatch):
        csv, cfg = write_constant_group_dataset(tmp_path)
        loaded = []

        def load(path):
            table = load_csv(path)
            loaded.append(weakref.ref(table))
            return table

        monkeypatch.setattr(enetstats.cli, "load_csv", load)
        argv = ["mlm", "--input", str(csv), "--subsets", str(cfg), "--out", str(tmp_path / "o")]
        pipeline = Pipeline(build_parser().parse_args(argv))
        assert list(pipeline.standardized) == ["pred", "resp"]
        assert not any(isinstance(v, RawTable) for v in vars(pipeline).values())
        gc.collect()
        assert len(loaded) == 1 and loaded[0]() is None

    def test_missing_role_is_reported_before_a_group_is_z_scored(self, tmp_path, capsys):
        csv, cfg = write_constant_group_dataset(tmp_path)
        cfg.write_text("pred.role = predictor\npred.column = k\nresp.column = y1\n", encoding="utf-8")
        assert run("enet", "--input", csv, "--subsets", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err == "error: expected exactly one group with role 'response', found 0\n"


def _config(names):
    """A config with the x columns in a predictor group and the y columns
    in a response group."""
    return "pred.role = predictor\nresp.role = response\n" + "".join(
        f"{'pred' if name[0] == 'x' else 'resp'}.column = {name}\n" for name in names
    )


def _csv(names, cells):
    return ",".join(names) + "\n" + "".join(",".join(row) + "\n" for row in cells)


@st.composite
def cli_runs(draw):
    """A small CSV whose columns are each normal, small integers or at a
    scale of 10^-300 to 10^300; a config with a predictor and a response
    group; a command and its flags; whether ``--out`` exists before the
    run; and what an error must name. Most runs are valid; one fault at
    most is drawn in: a column that copies the one before, is constant, or
    has a tiny spread on a large mean, a predictor that is 0 but for one
    1 among normal columns (constant in the training slice of the fold
    that holds the 1 out), an "NA" cell, too few rows, or one bad flag
    value. A constant column, an NA cell and a bad flag value fail every
    run that reaches them, and the one-1 predictor every run that
    cross-validates (all but ``prep`` and ``mlm`` on given predictors), so
    a failed run's error must name the column, the row and column, or the
    flag; ``mlm`` on given predictors and too few rows, none constant,
    must say it needs more observations. The other faults may pass, or
    fail where no single column, row or flag is to blame."""
    faults = ["copy", "constant", "tiny", "one", "na", "rows", "flag"]
    fault = draw(st.sampled_from([None] * 9 + faults))
    n = draw(st.integers(1, 3) if fault == "rows" else st.integers(6, 20))
    p = draw(st.integers(2, 5))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(p + k):
        kind = draw(st.sampled_from(["normal", "integers", "scaled"]))
        if kind == "integers":
            columns.append(rng.integers(-3, 4, size=n).astype(float))
        elif kind == "scaled":
            columns.append(rng.normal(size=n) * 10.0 ** draw(st.integers(-300, 300)))
        else:
            columns.append(rng.normal(size=n))
    names = [f"x{j}" for j in range(p)] + [f"y{j}" for j in range(k)]
    bad = draw(st.integers(0, p + k - 1))  # the column a fault is drawn in
    named = None
    if fault == "copy":
        columns[bad] = columns[bad - 1].copy()
    elif fault == "constant":
        columns[bad] = np.full(n, 2.5)
        named = repr(names[bad])
    elif fault == "tiny":
        columns[bad] = 1e6 + 1e-9 * rng.normal(size=n)
    elif fault == "one":
        columns = [rng.normal(size=n) for _ in columns]
        bad %= p
        columns[bad] = np.zeros(n)
        columns[bad][draw(st.integers(0, n - 1))] = 1.0
    cells = [[repr(float(v)) for v in row] for row in np.column_stack(columns)]
    if fault == "na":
        row = draw(st.integers(0, n - 1))
        cells[row][bad] = "NA"
        named = f"row {row + 1}, column {names[bad]!r}"
    command = draw(st.sampled_from(["prep", "enet", "cv", "mlm", "report"]))
    flags = {
        "--alpha": draw(st.sampled_from(["0.5", "1", "0.01"])),
        "--nlambda": draw(st.sampled_from(["5", "8", "2"])),  # few, so each run is short
        "--folds": draw(st.sampled_from(["2", "3", str(n)])),
        "--rule": draw(st.sampled_from(["min", "1se"])),
        "--digits": draw(st.sampled_from(["6", "1"])),
        "--lambda-min-ratio": draw(st.sampled_from(["0.01", "0.1"])),
    }
    if fault == "flag":
        bad_flags = [
            ("--alpha", "0"), ("--alpha", "-1"), ("--alpha", "nan"), ("--nlambda", "0"),
            ("--folds", "1"), ("--folds", str(n + 1)), ("--digits", "0"),
            ("--lambda-min-ratio", "1"), ("--lambda-min-ratio", "-0.1"),
        ]
        if command in ("mlm", "report"):  # the only commands that take the flag
            bad_flags += [("--predictors", "nope"), ("--predictors", "x0")]
        flag, value = draw(st.sampled_from(bad_flags))
        flags[flag] = value
        named = flag
    elif command in ("mlm", "report") and draw(st.booleans()):
        chosen = st.lists(st.sampled_from(names[:p]), min_size=2, max_size=3, unique=True)
        flags["--predictors"] = ",".join(draw(chosen))
    given = command == "mlm" and "--predictors" in flags  # then mlm skips the CV
    if fault == "one" and command != "prep" and not given:
        named = repr(names[bad])
    if fault == "rows" and given and n >= 2 and all(np.ptp(c) > 0.0 for c in columns):
        named = "need more observations"
    argv = [command, *itertools.chain(*flags.items())]
    return _csv(names, cells), _config(names), argv, draw(st.booleans()), named


def _prep_run(x1_scale=1.0, y0=None):
    """A run as :func:`cli_runs` draws it: ``prep`` on 20 normal rows of
    x0, x1 and y0, with x1 times ``x1_scale`` and y0, when given, the
    constant ``y0``."""
    x0, x1, y = np.random.default_rng(11).normal(size=(3, 20))
    columns = [x0, x1 * x1_scale, y if y0 is None else np.full(20, y0)]
    cells = [[repr(float(v)) for v in row] for row in np.column_stack(columns)]
    names = ["x0", "x1", "y0"]
    return _csv(names, cells), _config(names), ["prep"], False, None if y0 is None else "'y0'"


def _short_mlm_run():
    """A run as :func:`cli_runs` draws it: ``mlm`` on x0 and x1 over 3
    normal rows, so N = p + 1."""
    names = ["x0", "x1", "y0"]
    cells = [[repr(float(v)) for v in row] for row in np.random.default_rng(12).normal(size=(3, 3))]
    argv = ["mlm", "--predictors", "x0,x1"]
    return _csv(names, cells), _config(names), argv, False, "need more observations"


def run_texts(tmp, csv_text, cfg_text, argv):
    """``main`` on the texts written to files in ``tmp``, with ``--out``
    ``tmp/o``; its exit code, stdout and stderr."""
    csv, cfg = tmp / "in.csv", tmp / "in.cfg"
    csv.write_text(csv_text, encoding="utf-8")
    cfg.write_text(cfg_text, encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--input", str(csv), "--subsets", str(cfg), "--out", str(tmp / "o")])
    return code, stdout.getvalue(), stderr.getvalue()


def assert_finite_tsv(path):
    """Every row of a TSV has the header's width, and every cell that
    reads as a number (or a footer's ``key=value``) is finite."""
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines.pop() == ""
    width = len(lines[0].split("\t"))
    for line in lines[1:]:
        cells = line.split("\t")
        if len(cells) == 1 and line.startswith("F("):  # the follow-up table's footer
            cells = [cell.split("=")[1] for cell in line.split()]
        else:
            assert len(cells) == width, (path.name, line)
        for cell in cells:
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), (path.name, line)


class TestCliContract:
    """Drawn inputs and flags through ``main``: an exit code of 0, 2, 3 or 4
    and no exception or warning; a failed run prints nothing to stdout,
    names its fault and leaves ``--out`` as it was, without temporaries; a
    successful run's TSVs parse and hold only finite numbers. Rescaling a
    column changes neither the exit code nor a z-score."""

    @settings(max_examples=150)
    @given(cli_runs())
    @example(_prep_run(1e-159, y0=2.5))  # x1's squares are subnormal
    @example(_short_mlm_run())
    def test_exit_codes_output_and_files(self, drawn):
        csv_text, cfg_text, argv, existing, named = drawn
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            out = tmp / "o"
            if existing:
                out.mkdir()
                (out / "sentinel.txt").write_bytes(b"before\n")
            code, stdout, stderr = run_texts(tmp, csv_text, cfg_text, argv)
            assert code in (0, 2, 3, 4)
            if code:
                assert stdout == ""
                assert stderr.startswith("error: ")
                assert named is None or named in stderr
                assert sorted(q.name for q in tmp.iterdir()) == sorted(
                    ["in.csv", "in.cfg"] + ["o"] * existing
                )
                if existing:
                    assert [q.name for q in out.iterdir()] == ["sentinel.txt"]
                    assert (out / "sentinel.txt").read_bytes() == b"before\n"
                return
            assert stderr == ""
            written = sorted(out.glob("*.tsv"))
            assert written and not any(q.name.startswith(".") for q in out.iterdir())
            for path in written:
                assert_finite_tsv(path)

    @settings(max_examples=60)
    @given(cli_runs(), st.integers(0, 7), st.integers(-160, 160))
    @example(_prep_run(), 1, -158)
    @example(_prep_run(), 1, -160)
    def test_column_scale_changes_no_exit_code_or_z_score(self, drawn, j, s):
        csv_text, cfg_text, argv, _, _ = drawn
        names, *rows = [line.split(",") for line in csv_text.splitlines()]
        j %= len(names)
        column = np.array([math.nan if row[j] == "NA" else float(row[j]) for row in rows])
        big = float(np.nanmax(np.abs(column)))
        # the rescaled column must stay clear of overflow and of the
        # subnormals; and rescaling rounds each value by half a unit in its
        # last place, which moves a z-score by up to ~1e-16 * max |value| / sd,
        # so a tiny spread on a large mean, which lies in those places, is out
        assume(big > 0.0 and -290 < math.log10(big) + s < 290)
        assume(np.nanstd(column / big) >= 1e-3)
        for row in rows:
            if row[j] != "NA":
                row[j] = repr(float(row[j]) * 10.0**s)
        runs = []
        for text in (csv_text, _csv(names, rows)):
            with tempfile.TemporaryDirectory() as tmp:
                code, _, _ = run_texts(Path(tmp), text, cfg_text, argv)
                z = None
                if code == 0 and argv[0] == "prep":
                    groups = [read_tsv(Path(tmp) / "o" / f"{g}.tsv")[1] for g in ("pred", "resp")]
                    z = np.hstack([np.array(cells, dtype=float) for cells in groups])
                runs.append((code, z))
        (code, z), (scaled_code, scaled_z) = runs
        assert scaled_code == code
        if z is not None:
            assert_allclose(scaled_z, z, rtol=0.0, atol=1e-12)


class TestReport:
    def test_selected_model_without_predictors_exits_2(self, tmp_path, capsys):
        # the two lambdas barely differ in CV error, so the 1se rule keeps
        # lambda_max, where every coefficient row is zero
        out = tmp_path / "o"
        code = run(
            "report", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out,
            "--nlambda", "2", "--lambda-min-ratio", "0.99", "--rule", "1se",
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: the selected model keeps no predictors\n"
        assert captured.out == "" and not out.exists()

    def test_selected_model_with_one_predictor_exits_2(self, tmp_path, capsys, monkeypatch):
        # at 0.999 lambda_max only fertility_rate enters, and CV selects it
        def no_fit(*args, **kwargs):
            raise AssertionError("fit_mlm ran on a one-predictor selection")

        monkeypatch.setattr(enetstats.cli, "fit_mlm", no_fit)
        out = tmp_path / "o"
        code = run(
            "report", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out,
            "--nlambda", "2", "--lambda-min-ratio", "0.999",
        )
        assert code == 2
        captured = capsys.readouterr()
        want = "error: the selected model keeps one predictor, 'fertility_rate'; VIF needs at least 2\n"
        assert captured.err == want
        assert captured.out == "" and not out.exists()

    def test_group_named_like_the_cv_curve_exits_2_before_out(self, tmp_path, capsys):
        # group "cv" would overwrite, or be overwritten by, the CV curve
        cfg = tmp_path / "clash.cfg"
        text = DEMO_CFG.read_text(encoding="utf-8").replace("food.", "cv.")
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert run("report", "--input", DEMO_CSV, "--subsets", cfg, "--out", out) == 2
        captured = capsys.readouterr()
        assert "'cv.tsv'" in captured.err
        assert captured.out == "" and not out.exists()

    def test_full_chain(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("report", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out) == 0
        produced = {p.name for p in out.iterdir()}
        expected = {
            "demographic.tsv", "demographic_scale.tsv",
            "health.tsv", "health_scale.tsv",
            "food.tsv", "food_scale.tsv",
            "path.tsv", "cv.tsv", "manova.tsv", "vif.tsv", "residuals.tsv",
            "uni_yll_communicable.tsv", "uni_yll_noncommunicable.tsv",
        }
        assert expected.issubset(produced)
        assert any(name.startswith("coef_") for name in produced)
        captured = capsys.readouterr().out
        assert "lambda.min=" in captured
        assert "lambda.1se=" in captured

    def test_rule_1se_selects_larger_lambda(self, tmp_path, capsys):
        out_min = tmp_path / "a"
        out_1se = tmp_path / "b"
        run("enet", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out_min)
        lam_min = float(
            capsys.readouterr().out.split("lambda=")[1].split()[0]
        )
        run("enet", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out_1se, "--rule", "1se")
        lam_1se = float(
            capsys.readouterr().out.split("lambda=")[1].split()[0]
        )
        assert lam_1se >= lam_min
