"""The benchmark's output oracle, and ``prep``'s memory on one of its
designs, run in tier-1.

``perfbench/check.py`` recomputes MANOVA and the univariate tables from
the raw CSV with numpy and scipy alone, and ``perfbench/gen.py`` writes
the benchmark's seeded designs. Both are imported read-only; every file a
run writes goes under ``tmp_path``.
"""

import sys
import tracemalloc
from pathlib import Path

import pytest

from enetstats.cli import main

ROOT = Path(__file__).resolve().parent.parent
_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # no __pycache__ inside perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))

import check  # noqa: E402
import gen  # noqa: E402

sys.path.remove(str(ROOT / "perfbench"))
sys.dont_write_bytecode = _write_bytecode

DEMO = (ROOT / "data" / "demo_lifestyle.csv", ROOT / "data" / "demo_subsets.cfg")


def small_design(tmp_path):
    gen.generate(gen.Shape(n=300, p=8, k=3, signal=4, stream=9), 1, tmp_path / "in")
    return tmp_path / "in" / "data.csv", tmp_path / "in" / "subsets.cfg"


@pytest.mark.parametrize("command, inputs", [("report", None), ("mlm", small_design)])
def test_outputs_match_the_oracle(tmp_path, capsys, command, inputs):
    csv, cfg = DEMO if inputs is None else inputs(tmp_path)
    out = tmp_path / "out"
    assert main([command, "--input", str(csv), "--subsets", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    got = check.parse_outputs(out, cfg)
    want = check.oracle(csv, cfg, got["kept"])
    assert "kept_mismatch" not in got
    # compare zips the tables, so an empty or short one would pass unseen
    assert len(got["manova"]) == len(want["manova"]) == len(got["kept"]) >= 2
    for name, table in want["univariate"].items():
        assert len(got["univariate"][name]["rows"]) == len(table["rows"]) == len(got["kept"]) + 1
    assert check.compare(got, want, "oracle") == []


def test_prep_peak_memory_stays_near_the_table(tmp_path, capsys):
    """prep holds the parsed table and one z-scored copy of each group,
    and no other array of their size: its traced peak on a 5000 x 103
    design stays within 2.5 times the table's float64 bytes (2.16 when
    measured; a check of the z-scores' moments by np.std took it to 3.0)."""
    shape = gen.Shape(n=5000, p=100, k=3, signal=12, stream=1)
    gen.generate(shape, 1, tmp_path / "in")
    argv = ["prep", "--input", str(tmp_path / "in" / "data.csv")]
    argv += ["--subsets", str(tmp_path / "in" / "subsets.cfg"), "--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak <= 2.5 * shape.n * (shape.p + shape.k) * 8
