"""Output checks for one benchmark operation.

An operation passes when it exited 0, wrote exactly the expected file set,
produced an ``--out`` directory and stdout byte-identical to the run's
first operation, every path solution its outputs imply (the full path and
every fold's) was returned by the public fitters and met the stationarity
certificate (``KKT_LIMIT``), and its selected lambda index, kept
predictors, MANOVA and univariate values match both the stored reference
(when one was recorded for this input) and an independent numpy/scipy
recomputation of the regression from the raw CSV.

Tolerances are the ones the repository's tests use for the same
quantities (tests/test_inference.py, tests/test_acceptance.py). p-values
get the tests' tolerance for p-values checked against an outside
reference, three significant figures (tests/test_dist.py,
tests/test_acceptance.py criterion 1): the continued-fraction tails lose
digits as the degrees of freedom grow (about 1e-9 absolute at df ~ 20000),
and a fix for that must not fail the benchmark.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

KKT_LIMIT = 1e-6
DEFAULT_FOLDS = 10  # the CLI's --folds default

# (relative, absolute) tolerance per checked quantity
TOLERANCES = {
    "pillai": (0.0, 1e-10),
    "approx_f": (1e-10, 0.0),
    "p": (5e-4, 1e-300),  # tails below 1e-300 are clamped to 0 by design
    "estimate": (0.0, 1e-10),
    "std_error": (1e-9, 0.0),
    "t": (1e-9, 1e-9),
    "f": (1e-10, 0.0),
    "r2": (1e-12, 1e-12),
    "r2_adj": (1e-12, 1e-12),
}


def read_groups(cfg_path: Path) -> tuple[dict[str, list[str]], dict[str, str]]:
    """Columns and roles per group from a subset config file."""
    groups: dict[str, list[str]] = {}
    roles: dict[str, str] = {}
    for line in cfg_path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        group, field = key.rsplit(".", 1)
        if field == "column":
            groups.setdefault(group, []).append(value)
        else:
            roles[value] = group
    return groups, roles


def expected_files(command: str, cfg_path: Path) -> set[str]:
    """Files the command must write; the report's ``coef_<lambda>.tsv`` is
    represented by the pattern name ``coef_*.tsv``."""
    groups, roles = read_groups(cfg_path)
    names = {"manova.tsv", "vif.tsv", "residuals.tsv"}
    names |= {f"uni_{r}.tsv" for r in groups[roles["response"]]}
    if command == "report":
        names |= {"path.tsv", "cv.tsv", "coef_*.tsv"}
        for group in groups:
            names |= {f"{group}.tsv", f"{group}_scale.tsv"}
    return names


def _rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def fold_count(argv: list[str]) -> int:
    """CV folds an operation's argv asks for."""
    return int(argv[argv.index("--folds") + 1]) if "--folds" in argv else DEFAULT_FOLDS


def expected_solutions(out: Path, folds: int) -> int:
    """Path solutions an operation's outputs imply: one per row of
    ``path.tsv``, plus one per row of ``cv.tsv`` for every fold."""
    path_rows = len(_rows(out / "path.tsv")) if (out / "path.tsv").exists() else 0
    cv_rows = len(_rows(out / "cv.tsv")) if (out / "cv.tsv").exists() else 0
    return path_rows + folds * cv_rows


def parse_outputs(out: Path, cfg_path: Path) -> dict:
    """The checked values of one operation's output directory."""
    groups, roles = read_groups(cfg_path)
    responses = groups[roles["response"]]
    result: dict = {"lambda_index": None}
    coef_files = sorted(out.glob("coef_*.tsv"))
    if coef_files:
        mean_error = [float(r[1]) for r in _rows(out / "cv.tsv")]
        result["lambda_index"] = int(np.argmin(mean_error))
    manova = _rows(out / "manova.tsv")
    result["kept"] = [r[0] for r in manova]
    if coef_files:
        kept = [r[0] for r in _rows(coef_files[0]) if r[1] != "removed"]
        if kept != result["kept"]:
            result["kept_mismatch"] = kept
    result["manova"] = [[r[0], float(r[2]), float(r[3]), float(r[6])] for r in manova]
    uni = {}
    for name in responses:
        lines = (out / f"uni_{name}.tsv").read_text(encoding="utf-8").splitlines()
        footer = dict(part.split("=", 1) for part in lines[-1].split())
        f_key = next(k for k in footer if k.startswith("F("))
        uni[name] = {
            "rows": [[c[0]] + [float(v) for v in c[1:5]] for c in (l.split("\t") for l in lines[1:-1])],
            "f": float(footer[f_key]),
            "r2": float(footer["R2"]),
            "r2_adj": float(footer["R2adj"]),
        }
    result["univariate"] = uni
    return result


def oracle(csv_path: Path, cfg_path: Path, kept: list[str]) -> dict:
    """MANOVA and univariate values for the kept predictors, recomputed
    from the raw CSV with numpy and scipy only."""
    from scipy import stats

    groups, roles = read_groups(cfg_path)
    with open(csv_path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
    raw = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)

    def zscored(names):
        cols = raw[:, [header.index(n) for n in names]]
        return (cols - cols.mean(axis=0)) / cols.std(axis=0, ddof=1)

    responses = groups[roles["response"]]
    x, y = zscored(kept), zscored(responses)
    n, p = x.shape
    k = y.shape[1]
    design = np.column_stack([np.ones(n), x])
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    resid = y - design @ coef
    e_inv = np.linalg.inv(resid.T @ resid)
    xtx_inv = np.linalg.inv(design.T @ design)
    df_e = n - p - 1
    manova = []
    for j, name in enumerate(kept, start=1):
        # rank-one hypothesis: the single eigenvalue of E^-1 H is b' E^-1 b / c_jj
        lam = float(coef[j] @ e_inv @ coef[j]) / xtx_inv[j, j]
        pillai = lam / (1.0 + lam)
        f = lam * (df_e - k + 1) / k
        manova.append([name, pillai, f, float(stats.f.sf(f, k, df_e - k + 1))])
    uni = {}
    for c, name in enumerate(responses):
        rss = float(resid[:, c] @ resid[:, c])
        yc = y[:, c] - y[:, c].mean()
        r2 = 1.0 - rss / float(yc @ yc)
        se = np.sqrt(rss / df_e * np.diag(xtx_inv))
        t = coef[:, c] / se
        rows = [
            [term, float(b), float(s), float(tv), float(2.0 * stats.t.sf(abs(tv), df_e))]
            for term, b, s, tv in zip(["intercept"] + kept, coef[:, c], se, t)
        ]
        uni[name] = {
            "rows": rows,
            "f": r2 / p / ((1.0 - r2) / df_e),
            "r2": r2,
            "r2_adj": 1.0 - (1.0 - r2) * (n - 1) / df_e,
        }
    return {"manova": manova, "univariate": uni}


def _close(kind: str, got: float, want: float) -> bool:
    rel, abs_ = TOLERANCES[kind]
    return math.isclose(got, want, rel_tol=rel, abs_tol=abs_)


def compare(got: dict, want: dict, label: str) -> list[str]:
    """Differences between parsed outputs and a reference, as messages."""
    problems = []
    for key in ("lambda_index", "kept"):
        if key in want and got.get(key) != want[key]:
            problems.append(f"{label}: {key} {got.get(key)!r} != {want[key]!r}")
    if problems:
        return problems  # the tables describe different models
    for g, w in zip(got["manova"], want["manova"]):
        for kind, gv, wv in zip(("pillai", "approx_f", "p"), g[1:], w[1:]):
            if not _close(kind, gv, wv):
                problems.append(f"{label}: manova {g[0]} {kind} {gv!r} vs {wv!r}")
    for name, w in want["univariate"].items():
        g = got["univariate"][name]
        for grow, wrow in zip(g["rows"], w["rows"]):
            for kind, gv, wv in zip(("estimate", "std_error", "t", "p"), grow[1:], wrow[1:]):
                if not _close(kind, gv, wv):
                    problems.append(f"{label}: uni_{name} {grow[0]} {kind} {gv!r} vs {wv!r}")
        for kind in ("f", "r2", "r2_adj"):
            if not _close(kind, g[kind], w[kind]):
                problems.append(f"{label}: uni_{name} {kind} {g[kind]!r} vs {w[kind]!r}")
    return problems


def check_op(
    op: dict, baseline: dict | None, expected: set[str], cfg_path: Path, csv_path: Path, reference: dict | None, folds: int
) -> list[str]:
    """Every problem found with one operation; an empty list means it passed.

    ``baseline`` is the run's first operation that passed, or None while
    there is none yet; an operation is compared byte for byte with it, and
    a baseline candidate gets the value checks instead. A solution fitted
    outside the public path fitters escapes the KKT check, so fewer checked
    solutions than the outputs imply is a failure.
    """
    if op["rc"] != 0:
        return [f"exit status {op['rc']!r}"]
    out = Path(op["out"])
    names = {p.name for p in out.iterdir()}
    pattern = {"coef_*.tsv" if n.startswith("coef_") else n for n in names}
    problems = []
    if pattern != expected or len(names) != len(expected):
        return [f"file set {sorted(names)} differs from {sorted(expected)}"]
    if op["kkt_max"] > KKT_LIMIT:
        problems.append(f"KKT violation {op['kkt_max']:.3e} exceeds {KKT_LIMIT}")
    if op["kkt_unmatched"]:
        problems.append(f"{op['kkt_unmatched']} path fits could not be matched to their data")
    implied = expected_solutions(out, folds)
    if op["kkt_solutions"] < implied:
        problems.append(f"KKT checked {op['kkt_solutions']} solutions; the outputs imply {implied}")
    if baseline is not None:
        base_out = Path(baseline["out"])
        base_names = {p.name for p in base_out.iterdir()}
        differing = sorted(names ^ base_names) or [
            n for n in sorted(names) if (out / n).read_bytes() != (base_out / n).read_bytes()
        ]
        if differing or op["stdout"] != baseline["stdout"]:
            problems.append(f"not byte-identical to operation {baseline['op']}: {differing or ['stdout']}")
        return problems  # identical bytes carry the baseline's value checks
    got = parse_outputs(out, cfg_path)
    if "kept_mismatch" in got:
        problems.append(f"coefficient file keeps {got['kept_mismatch']}, MANOVA table {got['kept']}")
    if got["lambda_index"] is not None:
        lams = [float(r[0]) for r in _rows(out / "path.tsv")]
        coef_name = f"coef_{lams[got['lambda_index']]:.6g}.tsv"
        if not (out / coef_name).exists():
            problems.append(f"coefficients not written at the CV minimum ({coef_name} missing)")
    problems += compare(got, oracle(csv_path, cfg_path, got["kept"]), "oracle")
    if reference is not None:
        problems += compare(got, reference, "reference")
    return problems


def check_ops(
    ops: list[dict], expected: set[str], cfg_path: Path, csv_path: Path, reference: dict | None, folds: int
) -> list[list[str]]:
    """Problems per operation, in order."""
    baseline = None
    checks = []
    for op in ops:
        problems = check_op(op, baseline, expected, cfg_path, csv_path, reference, folds)
        if baseline is None and not problems:
            baseline = op
        checks.append(problems)
    return checks
