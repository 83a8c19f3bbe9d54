import errno
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import enetstats.cli
from enetstats.cli import _g17, _tsv, main, stars
from enetstats.cv import make_folds
from enetstats.dataprep import SubsetConfig, load_csv, select_variables, standardize
from enetstats.enet import EnetConfig, default_lambda_grid, fit_mgaussian_path
from enetstats.inference import fit_mlm

from oracles import cv_refit_loop

DATA = Path(__file__).resolve().parent.parent / "data"
DEMO_CSV = DATA / "demo_lifestyle.csv"
DEMO_CFG = DATA / "demo_subsets.cfg"


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
        [(0.0005, "***"), (0.005, "**"), (0.03, "*"), (0.2, "NS"), (0.001, "**"), (0.05, "NS")],
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
        line = "\t".join(["%.17g"] * len(values))
        want = "\t".join(header) + "\n" + "\t".join(format(v, ".17g") for v in values) + "\n"
        assert _tsv(header, line, [tuple(values)]) == want

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

    def test_missing_input_exits_2(self, tmp_path):
        code = run(
            "prep", "--input", tmp_path / "nope.csv", "--subsets", DEMO_CFG,
            "--out", tmp_path / "o",
        )
        assert code == 2


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
        out = tmp_path / "out"
        run("enet", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out)
        coef_files = list(out.glob("coef_*.tsv"))
        assert len(coef_files) == 1
        header, rows = read_tsv(coef_files[0])
        assert header == ["predictor", "yll_communicable", "yll_noncommunicable"]
        by_name = {r[0]: r[1:] for r in rows}
        assert by_name["water_access"] == ["removed", "removed"]
        # the informative predictors stay, printed in 6-digit scientific form
        assert "e" in by_name["fertility_rate"][0]

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


class TestFailedRunWritesNothing:
    """A run that fails at any stage leaves ``--out`` and stdout as they were."""

    CASES = {
        # mlm computes MANOVA and the follow-up tables before VIF refuses
        "one_predictor": (["mlm", "--predictors", "fertility_rate"], 2),
        "collinear": (["mlm", "--predictors", "fertility_rate,gni_per_capita"], 4),
        "folds_above_n": (["report", "--folds", "87"], 2),
        "unknown_predictor": (["report", "--predictors", "nope"], 2),
        "nan_cell": (["report"], 2),
    }

    @pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_out_and_stdout_untouched(self, tmp_path, capsys, case, existing):
        argv, code = self.CASES[case]
        writer = {"nan_cell": write_nan_csv, "collinear": write_copied_column_csv}.get(case)
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


class TestAtomicOutput:
    @pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
    def test_failed_second_write_leaves_out_unchanged(self, tmp_path, capsys, monkeypatch, existing):
        out = tmp_path / "o"
        if existing:
            out.mkdir()
            (out / "sentinel.tsv").write_bytes(b"before\n")
            (out / "demographic.tsv").write_bytes(b"old\n")
        write_text = Path.write_text
        written = []

        def full_disk_on_second(path, text, *args, **kwargs):
            written.append(path)
            if len(written) == 2:  # a truncated file, then the error
                write_text(path, text[:5], *args, **kwargs)
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write_text(path, text, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", full_disk_on_second)
        assert run("prep", "--input", DEMO_CSV, "--subsets", DEMO_CFG, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --out: cannot write 'demographic_scale.tsv': No space left on device\n"
        )
        assert all(not path.exists() for path in written)
        if existing:
            assert sorted(p.name for p in tmp_path.iterdir()) == ["o"]
            assert sorted(p.name for p in out.iterdir()) == ["demographic.tsv", "sentinel.tsv"]
            assert (out / "sentinel.tsv").read_bytes() == b"before\n"
            assert (out / "demographic.tsv").read_bytes() == b"old\n"
        else:
            assert list(tmp_path.iterdir()) == []

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


class TestReport:
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
