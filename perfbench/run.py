"""enetstats benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload demo_report --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed (outside all timing), times
fresh interpreters importing ``enetstats.cli`` (``setup_s``), then starts a
single worker process that drives ``enetstats.cli.main`` for ``--seconds``
(see worker.py). Every operation's outputs are checked (see check.py).
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``. A fuller record
(environment, inputs with their SHA-256, every sample, every check, spans)
goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from check import check_ops, expected_files, fold_count  # noqa: E402

DEMO_CSV = Path("data/demo_lifestyle.csv")
DEMO_CFG = Path("data/demo_subsets.cfg")

WORKLOADS = ("demo_report", "tall_report", "bulk_mlm")

SETUP_SAMPLES = 7
# a run must end within this many seconds; the checks after the worker get RESERVE_S of them
RUN_LIMIT_S = 170.0
RESERVE_S = 10.0
WARMUP_ARGV = ["report", "--input", str(DEMO_CSV), "--subsets", str(DEMO_CFG), "--nlambda", "4", "--folds", "2"]


def prepare(workload: str, seed: int, work: Path) -> tuple[list[str], Path, Path, dict]:
    """The operation's argv (without ``--out``), its CSV and config paths,
    and the input record: shape, seed and SHA-256 of each input file."""
    if workload == "demo_report":
        record = {
            "shape": {"n": 86, "p": 6, "k": 2},
            "seed": seed,
            "files": {p.name: gen.sha256(p) for p in (DEMO_CSV, DEMO_CFG)},
        }
        argv = ["report", "--input", str(DEMO_CSV), "--subsets", str(DEMO_CFG), "--seed", str(seed)]
        return argv, DEMO_CSV, DEMO_CFG, record
    shape = gen.TALL if workload == "tall_report" else gen.BULK
    record = gen.generate(shape, seed, work / "input")
    csv_path, cfg_path = work / "input" / "data.csv", work / "input" / "subsets.cfg"
    argv = ["report" if workload == "tall_report" else "mlm", "--input", str(csv_path), "--subsets", str(cfg_path)]
    if workload == "bulk_mlm":
        argv += ["--predictors", ",".join(gen.predictor_names(shape))]
    return argv, csv_path, cfg_path, record


def reference_for(workload: str, seed: int, record: dict) -> tuple[dict | None, list[str]]:
    """The stored reference for this (workload, seed), if one was recorded,
    and a problem if it was recorded for other input files."""
    stored = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    entry = stored.get(workload, {}).get(str(seed))
    if entry is not None and entry["files"] != record["files"]:
        return None, [f"stored reference for {workload} seed {seed} was recorded for other input files"]
    return entry, []


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    # one worker process; BLAS may use at most the cores this process may run on
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def measure_setup(env: dict[str, str]) -> list[float]:
    """Wall seconds for fresh interpreters to import ``enetstats.cli``. The
    first import, which may also compile bytecode, is not counted."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import enetstats.cli"], env=env, check=True)
        if i:
            samples.append(time.perf_counter() - start)
    return samples


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        digest.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    missing = [p for p in (Path("BENCHMARK.json"), Path("src/enetstats/cli.py"), DEMO_CSV, DEMO_CFG) if not p.is_file()]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    work = Path(".perfbench_work") / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path, started: float) -> int:
    argv, csv_path, cfg_path, inputs = prepare(args.workload, args.seed, work)
    env = child_env()
    setup = [] if args.trace else measure_setup(env)
    remaining = RUN_LIMIT_S - (time.perf_counter() - started)

    spec = {
        "src": "src",
        "argv": argv,
        "warmup_argv": WARMUP_ARGV,
        "out_root": str(work / "out"),
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "deadline_s": remaining - RESERVE_S,
    }
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        env=env,
        stdout=sys.stderr,
        check=True,
        timeout=remaining,
    )
    result = json.loads(result_path.read_text(encoding="utf-8"))
    ops = result["ops"]

    expected = expected_files(argv[0], cfg_path)
    reference, run_problems = reference_for(args.workload, args.seed, inputs)
    checks = check_ops(ops, expected, cfg_path, csv_path, reference, fold_count(argv))
    failed = sum(1 for problems in checks if problems)
    if any(op["cut"] for op in ops):
        run_problems.append(f"an operation was still running {spec['deadline_s']:.1f} s after the worker started and was cut")
    if args.trace and "layer_metrics" not in result:
        run_problems.append("no traced operation ran; per-layer metrics read 0")
    run_problems += result.get("trace_problems", [])
    correct = failed == 0 and not run_problems

    plain = [op["wall_s"] for op in ops if op["phase"] == "plain"]
    if args.trace:
        units = {m["name"]: m["unit"] for m in json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}
        layers = result.get("layer_metrics", {})
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    else:
        metrics = {
            "op_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": dict(result["env"], git_commit=git_commit(), source_sha256=source_digest()),
        "inputs": inputs,
        "reference": "stored" if reference is not None else "none recorded for this input; oracle only",
        "op_s_samples": plain,
        "setup_s_samples": setup,
        "failed_frac": failed / len(ops),
        "checks": [{"op": op["op"], "phase": op["phase"], "wall_s": op["wall_s"], "kkt_max": op["kkt_max"], "kkt_solutions": op["kkt_solutions"], "problems": p} for op, p in zip(ops, checks)],
        "run_problems": run_problems,
        "metrics": metrics,
    }
    if "spans" in result:
        record["spans"] = result["spans"]
    out_dir = Path(".perfbench_out")
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    env_line = record["env"]
    print(
        f"workload {args.workload} seed {args.seed}: python {env_line['python']}, numpy {env_line['numpy']}, "
        f"{env_line['blas']} x{env_line['blas_threads']} threads, nproc {env_line['nproc']}, commit {env_line['git_commit']}"
    )
    print(f"inputs {json.dumps(inputs)}; reference: {record['reference']}")
    for op, problems in zip(ops, checks):
        for problem in problems:
            print(f"FAILED op {op['op']}: {problem}")
    for problem in run_problems:
        print(f"FAILED run: {problem}")
    counts = {"op_s": len(plain), "setup_s": len(setup), "peak_rss_mb": 1}
    for name, metric in metrics.items():
        n = counts.get(name, len([op for op in ops if op["phase"] == "traced"]))
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']} (n={n})")
    print(f"{'failed_frac':28s} {failed / len(ops):.6g} ({failed} of {len(ops)} operations)")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
