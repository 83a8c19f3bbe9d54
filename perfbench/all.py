"""Run every workload once and print its end-to-end metrics as one table.

Usage (from the repository root)::

    python3 perfbench/all.py [SEED] [SECONDS]

Each workload runs through ``run.py`` with ``--trace 0``; the table shows
``op_s``, ``setup_s``, ``peak_rss_mb`` and ``failed_frac`` with units and
sample counts. Exits 1 if any run was not correct.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import HERE, WORKLOADS


def main() -> int:
    seed = sys.argv[1] if len(sys.argv) > 1 else "1"
    seconds = sys.argv[2] if len(sys.argv) > 2 else "25"
    all_correct = True
    print(f"{'workload':12s} {'op_s':>19s} {'setup_s':>19s} {'peak_rss_mb':>18s} {'failed_frac':>13s}")
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", "0"],
            capture_output=True,
            text=True,
        )
        if done.returncode != 0:
            print(f"{workload:12s} run failed:\n{done.stderr}", file=sys.stderr)
            all_correct = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        record = json.loads(Path(f".perfbench_out/{workload}-seed{seed}-trace0.json").read_text(encoding="utf-8"))
        m = result["metrics"]
        all_correct &= result["correct"]
        print(
            f"{workload:12s} "
            f"{m['op_s']['value']:>10.4f} s (n={len(record['op_s_samples']):>2d}) "
            f"{m['setup_s']['value']:>10.4f} s (n={len(record['setup_s_samples']):>2d}) "
            f"{m['peak_rss_mb']['value']:>9.2f} MB (n=1) "
            f"{result['failed'] / result['attempted']:>6.3f} (n={result['attempted']:>2d})"
        )
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
