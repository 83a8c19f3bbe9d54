"""The README's "Library use" example runs as written on the demo data."""

import re
from pathlib import Path

import enetstats
from enetstats.dataprep import SubsetConfig, load_csv, standardize
from enetstats.inference import MlmFit

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def library_use_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs(capsys):
    code = library_use_block()
    # the block leaves x and y as placeholders; they are the demo's
    # standardized predictor and response groups
    placeholders = re.compile(r"^([xy]) = \.\.\..*\n", re.M)
    assert [m.group(1) for m in placeholders.finditer(code)] == ["x", "y"]
    table, cfg = load_csv(DATA / "demo_lifestyle.csv"), SubsetConfig.load(DATA / "demo_subsets.cfg")
    x, y = (
        standardize(table, cfg.groups[cfg.group_with_role(role)])
        for role in ("predictor", "response")
    )
    names = {"x": x.matrix, "y": y.matrix}
    exec(compile(placeholders.sub("", code), "README.md", "exec"), names)

    assert isinstance(names["fit"], MlmFit)
    kept = [name for name, k in zip(x.names, names["keep"]) if k]
    assert "water_access" not in kept  # the demo's pure-noise predictor
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(kept) == names["fit"].n_predictors
    assert len(names["vifs"].vif) == names["fit"].n_predictors


def test_library_use_imports_are_public():
    imported = re.search(r"from enetstats import \((.*?)\)", library_use_block(), re.S).group(1)
    names = [n.strip() for n in imported.split(",") if n.strip()]
    assert names and set(names) <= set(enetstats.__all__)
