"""Record the stored reference the benchmark's output check compares against.

Usage (from the repository root)::

    python3 perfbench/record_reference.py FIRST_SEED LAST_SEED [WORKLOAD ...]

For each workload and seed, runs the workload's command once through
``python3 -m enetstats`` and stores the input hashes, the selected lambda
index, the kept predictors, and the MANOVA and univariate values in
``perfbench/reference.json``. An output that disagrees with the
independent oracle is not recorded. Re-record only when the statistics are
meant to change.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from check import compare, oracle, parse_outputs
from run import HERE, WORKLOADS, child_env, prepare


def record(workload: str, seed: int, work: Path) -> dict:
    argv, csv_path, cfg_path, inputs = prepare(workload, seed, work)
    out = work / "out"
    subprocess.run(
        [sys.executable, "-m", "enetstats", *argv, "--out", str(out)],
        env=child_env(),
        stdout=subprocess.DEVNULL,
        check=True,
    )
    got = parse_outputs(out, cfg_path)
    problems = compare(got, oracle(csv_path, cfg_path, got["kept"]), "oracle")
    if problems:
        raise SystemExit(f"{workload} seed {seed}: " + "; ".join(problems[:5]))
    entry = {"files": inputs["files"]}
    entry.update((key, _rounded(got[key])) for key in ("lambda_index", "kept", "manova", "univariate"))
    return entry


def _rounded(value):
    """13 significant digits: far inside every check tolerance, and a smaller file."""
    if isinstance(value, float):
        return float(f"{value:.13g}")
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


def main() -> None:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    workloads = sys.argv[3:] or WORKLOADS
    path = HERE / "reference.json"
    stored = json.loads(path.read_text(encoding="utf-8"))
    work = Path(".perfbench_work") / "reference"
    for workload in workloads:
        for seed in range(first, last + 1):
            shutil.rmtree(work, ignore_errors=True)
            stored.setdefault(workload, {})[str(seed)] = record(workload, seed, work)
            path.write_text(json.dumps(stored, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
            print(f"recorded {workload} seed {seed}", flush=True)
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
