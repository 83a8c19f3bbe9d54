import contextlib
import errno
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
from enetstats.dataprep import SubsetConfig, load_csv, select_variables, standardize
from enetstats.enet import EnetConfig, default_lambda_grid, fit_mgaussian_path
from enetstats.inference import fit_mlm, univariate_summary

from oracles import cv_refit_loop

DATA = Path(__file__).resolve().parent.parent / "data"
DEMO_CSV = DATA / "demo_lifestyle.csv"
DEMO_CFG = DATA / "demo_subsets.cfg"
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def run(*argv):
    return main([str(a) for a in argv])


def read_tsv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
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
        sink = io.StringIO()
        _tsv(sink, _GROUP, [tuple(values)], header)
        assert sink.getvalue() == want

    def test_percent_in_response_name_written_verbatim(self, tmp_path, capsys):
        csv, cfg = write_small_dataset(tmp_path)
        names = ["y%d", "100%"]
        for path in (csv, cfg):
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace("y1", names[0]).replace("y2", names[1]), encoding="utf-8")
        out = tmp_path / "out"
        assert run("mlm", "--input", csv, "--subsets", cfg, "--out", out) == 0
        capsys.readouterr()
        _, rows = read_tsv(out / "residuals.tsv")
        assert [r[0] for r in rows] == names * 12
        assert all(len(r) == 3 for r in rows)


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
        sm = standardize(select_variables(table, cfg, "demographic"))
        assert rows == [[_g17(v) for v in row] for row in sm.matrix]

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

    def test_missing_input_exits_2(self, tmp_path):
        code = run(
            "prep", "--input", tmp_path / "nope.csv", "--subsets", DEMO_CFG,
            "--out", tmp_path / "o",
        )
        assert code == 2


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
        from enetstats.dataprep import SubsetConfig, load_csv, select_variables, standardize

        table = load_csv(DEMO_CSV)
        cfg = SubsetConfig.load(DEMO_CFG)
        x = standardize(select_variables(table, cfg, "demographic")).matrix
        y = standardize(select_variables(table, cfg, "health")).matrix
        g = (x - x.mean(0)).T @ (y - y.mean(0)) / x.shape[0]
        lam_max = float(np.sqrt((g * g).sum(axis=1)).max()) / 0.5
        assert math.isclose(lams[0], lam_max, rel_tol=1e-15)

    def test_noise_predictor_removed(self, tmp_path):
        for digits in (6, 3):
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

        from enetstats.dataprep import SubsetConfig, load_csv, select_variables, standardize

        table = load_csv(csv)
        cfg = SubsetConfig.load(cfgfile)
        x = standardize(select_variables(table, cfg, "pred")).matrix
        y = standardize(select_variables(table, cfg, "resp")).matrix
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
        x = standardize(select_variables(table, cfg, cfg.group_with_role("predictor")))
        y = standardize(select_variables(table, cfg, cfg.group_with_role("response")))
        fit = fit_mlm(x.matrix[:, [x.names.index(t) for t in terms]], y.matrix)
        assert [r[0] for r in rrows[:4]] == y.names * 2
        assert rrows == [
            [name, _g17(fit.fitted[i, k]), _g17(fit.residuals[i, k])]
            for i in range(86)
            for k, name in enumerate(y.names)
        ]
        fitted = np.array([float(r[1]) for r in rrows])
        resid = np.array([float(r[2]) for r in rrows])
        for name in ("yll_communicable", "yll_noncommunicable"):
            mask = np.array([r[0] == name for r in rrows])
            assert abs(resid[mask].mean()) <= 1e-10
            assert abs(float(fitted[mask] @ resid[mask])) <= 1e-8

        # strongly negatively correlated responses show up on stdout
        line = next(l for l in captured.splitlines() if l.startswith("pearson"))
        r = float(line.split("r=")[1].split()[0])
        assert r <= -0.9

        # univariate footers carry the overall fit line
        uni = (out / "uni_yll_communicable.tsv").read_text(encoding="utf-8")
        assert uni.splitlines()[-1].startswith("F(5,80)=")

        _, vrows = read_tsv(out / "vif.tsv")
        assert len(vrows) == 5
        assert all(float(r[2]) >= 1.0 for r in vrows)

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
        y = select_variables(load_csv(DEMO_CSV), SubsetConfig.load(DEMO_CFG), "health").values
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
        x = standardize(select_variables(table, cfg, cfg.group_with_role("predictor")))
        y = standardize(select_variables(table, cfg, cfg.group_with_role("response")))
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
            ("--alpha", "0"),
            ("--alpha", "1.5"),
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
        "command, value",
        [("mlm", "fertility_rate,fertility_rate,gni_per_capita"), ("report", " , ")],
        ids=["repeated", "separators_only"],
    )
    def test_repeated_or_no_predictor_exits_2_before_any_fit(
        self, tmp_path, capsys, monkeypatch, command, value
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
        want = f"error: --predictors must name distinct predictors, got {value!r}\n"
        assert capsys.readouterr().err == want
        assert not out.exists()

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
        # its second chunk is truncated
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
    has a tiny spread on a large mean, an "NA" cell, too few rows, or one
    bad flag value. A constant column, an NA cell and a bad flag value
    fail every run that reaches them, so a failed run's error must name
    the column, the row and column, or the flag; the other faults may
    pass, or fail where no single column, row or flag is to blame."""
    faults = ["copy", "constant", "tiny", "na", "rows", "flag"]
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
            bad_flags.append(("--predictors", "nope"))
        flag, value = draw(st.sampled_from(bad_flags))
        flags[flag] = value
        named = flag
    elif command in ("mlm", "report") and draw(st.booleans()):
        chosen = st.lists(st.sampled_from(names[:p]), min_size=1, max_size=3, unique=True)
        flags["--predictors"] = ",".join(draw(chosen))
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
