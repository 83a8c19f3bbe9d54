"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute; every tolerance is pinned here, nothing is deferred.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import enetstats
from enetstats.dist import f_sf
from enetstats.enet import (
    EnetConfig,
    fit_mgaussian_path,
    kkt_check,
)
from enetstats.inference import (
    adjusted_r2,
    fit_mlm,
    manova_table,
    pearson,
    univariate_summary,
    vif,
)

from oracles import (
    enet_objective_direct,
    pillai_explicit,
    prox_grad_reference,
    r2_from_f,
    soft_threshold,
    wilks_f_single_df,
)

DATA = Path(__file__).resolve().parent.parent / "data"
DEMO_CSV = DATA / "demo_lifestyle.csv"
DEMO_CFG = DATA / "demo_subsets.cfg"


def _standardize(rng, n, p):
    x = rng.normal(size=(n, p))
    return (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)


def _report(label):
    print(f"PASS {label}")


def test_criterion_01_f_tail_reference_values():
    """Dataset-free: F statistics with df (2, 79) reproduce the pinned
    reference p-values to 3 significant figures."""
    targets = [
        (19.8432, 1.041e-7),
        (10.2582, 1.095e-4),
        (6.1968, 3.163e-3),
        (4.4177, 1.518e-2),
    ]
    for f, want in targets:
        got = f_sf(f, 2, 79).value
        # 3 significant figures: relative agreement to half a unit in the
        # third digit
        assert math.isclose(got, want, rel_tol=5e-4), (f, got, want)
    _report("criterion 1: four F(2,79) p-values reproduced to 3 sig figs")


def test_criterion_02_f_to_r2_consistency():
    """Dataset-free: the F <-> R^2 identities map the pinned overall F
    statistics to their adjusted R^2 values within 0.005."""
    r2 = r2_from_f(156.8, 5, 80)
    assert abs(adjusted_r2(r2, 86, 5) - 0.902) <= 0.005
    r2 = r2_from_f(126.0, 5, 80)
    assert abs(adjusted_r2(r2, 86, 5) - 0.880) <= 0.005
    _report("criterion 2: F=156.8 -> R2adj 0.902 and F=126 -> R2adj 0.880 (+-0.005)")


def test_criterion_03_solver_correctness_sweep():
    """200 random instances: KKT at 1e-6 on every path point, ridge and
    orthonormal-lasso closed forms, K=1 reduction."""
    rng = np.random.default_rng(314)
    for instance in range(200):
        n = int(rng.integers(8, 51))
        p = int(rng.integers(1, 11))
        k = int(rng.choice([1, 2, 3]))
        x = _standardize(rng, n, p)
        b_true = rng.normal(size=(p, k)) * (rng.random(size=(p, 1)) < 0.7)
        y = x @ b_true + 0.4 * rng.normal(size=(n, k))
        alpha = float(rng.choice([0.3, 0.5, 0.8, 1.0]))
        path = fit_mgaussian_path(x, y, EnetConfig(alpha=alpha, nlambda=25))
        for l, lam in enumerate(path.lambdas):
            residuals = kkt_check(x, y, path.coefs[l], path.intercepts[l], float(lam), alpha)
            assert residuals.max() <= 1e-6, (instance, l)

        if k == 1:
            # a 1-D y is the same one-column fit
            flat = fit_mgaussian_path(x, y[:, 0], EnetConfig(alpha=alpha, nlambda=25))
            assert np.max(np.abs(path.coefs - flat.coefs)) <= 1e-10

    # alpha = 0: closed-form ridge oracle
    for seed in range(20):
        rng2 = np.random.default_rng(1000 + seed)
        n, p = 30, 5
        x = _standardize(rng2, n, p)
        y = x @ rng2.normal(size=p) + 0.5 * rng2.normal(size=n)
        lam = float(rng2.uniform(0.05, 1.0))
        xc = x - x.mean(axis=0)
        yc = y - y.mean()
        want = np.linalg.solve(xc.T @ xc / n + lam * np.eye(p), xc.T @ yc / n)
        got = fit_mgaussian_path(x, y, EnetConfig(alpha=0.0, tol=1e-13), lambdas=[lam])
        assert np.max(np.abs(got.coefs[0][:, 0] - want)) <= 1e-6

    # orthonormal design, alpha = 1: soft-threshold closed form
    for seed in range(20):
        rng3 = np.random.default_rng(2000 + seed)
        n, p = 36, 6
        z = rng3.normal(size=(n, p))
        # columns orthogonal to the ones column: the profiled intercept
        # leaves x'y as it is
        q, _ = np.linalg.qr(z - z.mean(axis=0))
        x = q * math.sqrt(n)
        y = rng3.normal(size=n)
        lam = float(rng3.uniform(0.02, 0.5))
        got = fit_mgaussian_path(x, y, EnetConfig(alpha=1.0, tol=1e-12), lambdas=[lam])
        want = [soft_threshold(float(x[:, j] @ y) / n, lam) for j in range(p)]
        assert np.max(np.abs(got.coefs[0][:, 0] - np.array(want))) <= 1e-8

    _report(
        "criterion 3: 200-instance KKT sweep, ridge + orthonormal-lasso "
        "closed forms, K=1 reduction"
    )


def test_criterion_04_brute_force_objective_equivalence():
    """20 instances of 6x3, K=2: path objectives match a proximal-gradient
    reference run to 1e-10, within 1e-4."""
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        x = _standardize(rng, 6, 3)
        y = rng.normal(size=(6, 2))
        cfg = EnetConfig(alpha=0.5, nlambda=12, lambda_min_ratio=1e-2)
        path = fit_mgaussian_path(x, y, cfg)
        b_ref = None
        for i, lam in enumerate(path.lambdas):
            b_ref, b0_ref = prox_grad_reference(x, y, float(lam), 0.5, b_init=b_ref)
            lam = float(lam)
            ours = enet_objective_direct(x, y, path.coefs[i], path.intercepts[i], lam, 0.5)
            ref = enet_objective_direct(x, y, b_ref, b0_ref, lam, 0.5)
            assert abs(ours - ref) <= 1e-4, (seed, i)
    _report("criterion 4: 20-instance proximal-gradient objective match within 1e-4")


def test_criterion_05_grouped_penalty_geometry():
    """Rotation equivariance and the duplicated-response lambda/sqrt(2)
    reduction, both to 1e-6."""
    rng = np.random.default_rng(55)
    n, p = 28, 5
    x = _standardize(rng, n, p)
    y = np.column_stack(
        [
            x @ rng.normal(size=p) + 0.3 * rng.normal(size=n),
            x @ rng.normal(size=p) + 0.3 * rng.normal(size=n),
        ]
    )
    for theta in (0.4, 1.2, 2.9):
        q = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        cfg = EnetConfig(alpha=0.5, nlambda=12, tol=1e-11)
        p1 = fit_mgaussian_path(x, y, cfg)
        p2 = fit_mgaussian_path(x, y @ q, cfg)
        assert np.max(np.abs(p1.coefs @ q - p2.coefs)) <= 1e-6

    yv = y[:, 0]
    for lam in (0.08, 0.25, 0.6):
        pm = fit_mgaussian_path(
            x, np.column_stack([yv, yv]), EnetConfig(alpha=1.0, tol=1e-12), lambdas=[lam]
        )
        pg = fit_mgaussian_path(
            x, yv, EnetConfig(alpha=1.0, tol=1e-12), lambdas=[lam / math.sqrt(2.0)]
        )
        assert np.max(np.abs(pm.coefs[0][:, 0] - pg.coefs[0][:, 0])) <= 1e-6
        assert np.max(np.abs(pm.coefs[0][:, 1] - pg.coefs[0][:, 0])) <= 1e-6
    _report("criterion 5: rotation equivariance and lambda/sqrt(2) reduction to 1e-6")


def test_criterion_06_manova_oracle():
    """50 random instances: Pillai agrees with the explicit H/E oracle to
    1e-10, matches the Wilks-route F, and K=1 degenerates to t^2 = F."""
    rng = np.random.default_rng(66)
    for _ in range(50):
        n = int(rng.integers(10, 30))
        p = int(rng.integers(1, 4))
        k = int(rng.integers(2, 4))
        if n <= p + k + 2:
            n = p + k + 5
        x = rng.normal(size=(n, p))
        y = rng.normal(size=(n, k))
        fit = fit_mlm(x, y)
        m = manova_table(fit)
        for j in range(1, p + 1):
            h = np.outer(fit.coef[j], fit.coef[j]) / fit.xtx_inv[j, j]
            assert abs(m.pillai[j - 1] - pillai_explicit(h, fit.e_matrix)) <= 1e-10
            _, f_wilks = wilks_f_single_df(h, fit.e_matrix, fit.df_error)
            assert math.isclose(m.approx_f[j - 1], f_wilks, rel_tol=1e-10)

    for _ in range(20):
        x = rng.normal(size=(15, 2))
        y = rng.normal(size=(15, 1))
        fit = fit_mlm(x, y)
        t = univariate_summary(fit, 0).t[1:]
        for approx_f, t_j in zip(manova_table(fit).approx_f, t):
            assert math.isclose(approx_f, t_j**2, rel_tol=1e-10)
    _report("criterion 6: 50-instance MANOVA oracle, Wilks agreement, t^2 = F at K=1")


def test_criterion_07_vif_and_pearson_oracles():
    """Orthogonal-design VIF = 1; r = 0.8 pair -> VIF 2.7778; pearson
    matches the direct formula and its symmetries."""
    u = np.array([1.0, -1.0, 1.0, -1.0])
    v = np.array([1.0, 1.0, -1.0, -1.0])
    y = np.arange(4.0)  # VIF depends on the predictors alone
    assert np.all(vif(fit_mlm(np.column_stack([u, v]), y)).vif == 1.0)

    x = np.column_stack([u / 2.0, 0.8 * (u / 2.0) + 0.6 * (v / 2.0)])
    assert np.all(np.abs(vif(fit_mlm(x, y)).vif - 2.7778) <= 1e-4)

    rng = np.random.default_rng(77)
    a = rng.normal(size=15)
    b = rng.normal(size=15)
    ac, bc = a - a.mean(), b - b.mean()
    direct = float(ac @ bc) / math.sqrt(float(ac @ ac) * float(bc @ bc))
    assert abs(pearson(a, b).r - direct) <= 1e-12
    assert pearson(a, b).r == pearson(b, a).r
    assert abs(pearson(2.5 * a + 3.0, b).r - pearson(a, b).r) <= 1e-12
    assert abs(pearson(-a, b).r + pearson(a, b).r) <= 1e-12
    _report("criterion 7: VIF oracles (1 exact, 2.7778 +- 1e-4) and pearson formula")


def _run_report(out_dir: Path) -> str:
    # the CLI subprocess must import the same package these tests import
    src = str(Path(enetstats.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "enetstats",
            "report",
            "--input",
            str(DEMO_CSV),
            "--subsets",
            str(DEMO_CFG),
            "--out",
            str(out_dir),
        ],
        capture_output=True,
        text=True,
        check=False,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_criterion_08_deterministic_pipeline(tmp_path):
    """`report` on the shipped dataset: byte-identical across runs, prints
    the noise predictor as removed, and shows pearson r <= -0.9."""
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    stdout1 = _run_report(out1)
    stdout2 = _run_report(out2)
    assert stdout1 == stdout2

    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    coef_file = next(p for p in out1.iterdir() if p.name.startswith("coef_"))
    lines = coef_file.read_text(encoding="utf-8").splitlines()
    water = next(line for line in lines if line.startswith("water_access"))
    assert water.split("\t")[1:] == ["removed", "removed"]

    pearson_line = next(l for l in stdout1.splitlines() if l.startswith("pearson"))
    r = float(pearson_line.split("r=")[1].split()[0])
    assert r <= -0.9
    _report(
        "criterion 8: byte-identical report, water_access removed, pearson r <= -0.9"
    )


def test_criterion_09_figure_data(tmp_path):
    """path.tsv dev_ratio is nondecreasing and tops at 1 - RSS/TSS of the
    least-penalized fit; residuals.tsv has the documented structure."""
    out = tmp_path / "run"
    _run_report(out)

    lines = (out / "path.tsv").read_text(encoding="utf-8").splitlines()[1:]
    dev = np.array([float(l.split("\t")[1]) for l in lines])
    assert np.all(np.diff(dev) >= -1e-8)

    from enetstats.dataprep import SubsetConfig, load_csv, standardize

    table = load_csv(DEMO_CSV)
    cfg = SubsetConfig.load(DEMO_CFG)
    x = standardize(table, cfg.groups["demographic"]).matrix
    y = standardize(table, cfg.groups["health"]).matrix
    path = fit_mgaussian_path(x, y, EnetConfig(alpha=0.5, nlambda=100))
    resid = y - (x @ path.coefs[-1] + path.intercepts[-1])
    yc = y - y.mean(axis=0)
    want = 1.0 - float((resid * resid).sum()) / float((yc * yc).sum())
    assert abs(dev.max() - want) <= 1e-8

    rows = [
        l.split("\t")
        for l in (out / "residuals.tsv").read_text(encoding="utf-8").splitlines()[1:]
    ]
    assert len(rows) == 86 * 2
    for name in ("yll_communicable", "yll_noncommunicable"):
        fitted = np.array([float(r[1]) for r in rows if r[0] == name])
        res = np.array([float(r[2]) for r in rows if r[0] == name])
        assert abs(res.mean()) <= 1e-8
        assert abs(float(fitted @ res)) <= 1e-8
    _report("criterion 9: figure data (dev_ratio curve and residual structure)")


@pytest.mark.skip(
    reason=(
        "conditional criterion: the original archived dataset is no longer "
        "available; if it is ever recovered, run the report on it and check "
        "lambda.min in [0.005, 0.2] and the multivariate-table star "
        "assignments against the recorded reference table"
    )
)
def test_criterion_10_archived_dataset_reproduction():
    pass
