"""Benchmark worker: runs one workload's operations in a single warm process.

Usage: ``python3 perfbench/worker.py SPEC.json RESULT.json``. The spec
names the source tree, the operation's argv (without ``--out``), the
output root, the time budget and whether to trace. One operation is one
``enetstats.cli.main(argv)`` call with a fresh ``--out`` directory and
stdout captured. The worker first warms itself with a small report on the
demo data, then runs operations until the budget is spent; with tracing,
half the budget runs plain operations and half runs traced ones. An
operation still running at the spec's deadline is cut: it raises
:class:`OpTimeout`, counts as failed, and no further operation starts.

After each operation, outside its timing, every path solution the public
fitters returned is checked against the elastic-net stationarity
conditions (the certificate ``enet.kkt_check`` defines, recomputed here
independently).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from spans import SpanRecorder, instrument, layer_metrics, rebind


class SolutionCapture:
    """Keeps what is needed to check every solution the path fitters return.

    Fold fits receive temporary training slices, so only a fingerprint of
    each (its shape and first columns) is kept; after the operation each fit
    is matched to the full data or to one fold's training rows, taken from
    the arguments ``cross_validate`` received.
    """

    def __init__(self) -> None:
        self.fits: list[tuple] = []
        self.data: list[tuple] = []

    @contextlib.contextmanager
    def installed(self):
        import enetstats.cv as cv
        import enetstats.enet as enet

        def capture_fit(func):
            @functools.wraps(func)
            def wrapper(x, y, config=None, lambdas=None):
                path = func(x, y, config, lambdas)
                xa, ya = np.asarray(x, dtype=float), np.asarray(y, dtype=float).reshape(len(x), -1)
                alpha = (config or enet.EnetConfig()).alpha
                self.fits.append((xa.shape, xa[:, 0].copy(), ya[:, 0].copy(), alpha, path))
                return path

            return wrapper

        def capture_cv(func):
            @functools.wraps(func)
            def wrapper(x, y, config=None, folds=None):
                self.data.append((np.asarray(x, dtype=float), np.asarray(y, dtype=float), folds))
                return func(x, y, config, folds)

            return wrapper

        originals = [enet.fit_gaussian_path, enet.fit_mgaussian_path, cv.cross_validate]
        wrappers = [capture_fit(originals[0]), capture_fit(originals[1]), capture_cv(originals[2])]
        for func, wrapper in zip(originals, wrappers):
            rebind(func, wrapper)
        try:
            yield self
        finally:
            for func, wrapper in zip(originals, wrappers):
                rebind(wrapper, func)

    def _data_for(self, shape, x0, y0):
        """The full data or the fold training slice a fit was given; one
        slice is materialized at a time so the check adds little memory."""
        for x, y, folds in self.data:
            y = y.reshape(len(x), -1)
            for rows in [slice(None)] + [folds.assignment != f for f in range(folds.k)]:
                if x.shape[1] == shape[1] and np.array_equal(x[rows, 0], x0) and np.array_equal(y[rows, 0], y0):
                    return x[rows], y[rows]
        return None

    def kkt_max(self) -> tuple[float, int, int]:
        """Worst stationarity violation over every captured solution, the
        number of solutions checked, and the number of fits that could not
        be matched to their data."""
        worst, checked, unmatched = 0.0, 0, 0
        for shape, x0, y0, alpha, path in self.fits:
            match = self._data_for(shape, x0, y0)
            if match is None:
                unmatched += 1
                continue
            x, y = match
            for lam, b, b0 in zip(path.lambdas, path.coefs, path.intercepts):
                worst = max(worst, kkt_violation(x, y, b, b0, float(lam), alpha))
                checked += 1
        self.fits.clear()
        self.data.clear()
        return worst, checked, unmatched


def kkt_violation(x, y, b, b0, lam: float, alpha: float) -> float:
    """Largest per-predictor stationarity residual of one solution.

    Zero rows need ||(1/N) x_j'(y - yhat)|| <= lam * alpha; nonzero rows
    need the full subgradient residual to vanish (same certificate as
    ``enet.kkt_check``).
    """
    grad = x.T @ (y - b0 - x @ b) / x.shape[0]
    norms = np.linalg.norm(b, axis=1)
    zero = norms == 0.0
    inactive = np.maximum(0.0, np.linalg.norm(grad, axis=1) - lam * alpha)
    safe = np.where(zero, 1.0, norms)[:, None]
    active = np.linalg.norm(grad - lam * (1.0 - alpha) * b - lam * alpha * b / safe, axis=1)
    return float(np.where(zero, inactive, active).max(initial=0.0))


class OpTimeout(Exception):
    """Raised inside an operation that is still running at the deadline."""


def _cut(signum, frame):
    raise OpTimeout("operation cut at the run's deadline")


def run_op(cli, argv: list[str], out: Path, limit: float | None = None) -> dict:
    """One ``cli.main`` call; with ``limit``, it is cut after that many seconds."""
    buf = io.StringIO()
    rc: int | str
    cut = False
    start = time.perf_counter()
    try:
        if limit is not None:
            signal.setitimer(signal.ITIMER_REAL, max(limit, 1e-3))
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv + ["--out", str(out)])
    except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
        rc = f"raised {exc!r}"
        cut = isinstance(exc, OpTimeout)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    stdout = buf.getvalue()
    files = [p for p in out.iterdir() if p.is_file()] if out.is_dir() else []
    return {
        "wall_s": wall,
        "rc": rc,
        "cut": cut,
        "out": str(out),
        "stdout": stdout,
        "files_out": len(files),
        "bytes_out": sum(p.stat().st_size for p in files) + len(stdout.encode("utf-8")),
    }


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    deadline = time.perf_counter() + spec["deadline_s"]
    signal.signal(signal.SIGALRM, _cut)
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import enetstats.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        sys.exit(f"imported enetstats from {cli.__file__}, not from {src}")

    out_root = Path(spec["out_root"])
    warm = run_op(cli, spec["warmup_argv"], out_root / "warmup")
    if warm["rc"] != 0:
        sys.exit(f"warm-up operation failed: {warm['rc']}")

    capture = SolutionCapture()
    ops: list[dict] = []
    recorder = SpanRecorder()

    def phase(name: str, budget: float, min_ops: int) -> bool:
        """Run operations; False once one was cut at the deadline."""
        start = time.perf_counter()
        count = 0
        while count < min_ops or time.perf_counter() - start < budget:
            recorder.op = len(ops)
            op = run_op(cli, spec["argv"], out_root / f"op{len(ops)}", deadline - time.perf_counter())
            op["kkt_max"], op["kkt_solutions"], op["kkt_unmatched"] = capture.kkt_max()
            op["phase"], op["op"] = name, len(ops)
            ops.append(op)
            count += 1
            if op["cut"]:
                return False
        return True

    seconds = spec["seconds"]
    with capture.installed():
        if spec["trace"]:
            if phase("plain", seconds / 2, 1):
                with instrument(recorder):
                    phase("traced", seconds / 2, 1)
        else:
            phase("plain", seconds, 2)

    result = {
        "env": environment(),
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    traced = [op for op in ops if op["phase"] == "traced"]
    if traced:
        plain = [op for op in ops if op["phase"] == "plain"]
        metrics, problems = layer_metrics(recorder, traced)
        metrics["trace.overhead_s"] = statistics.median(op["wall_s"] for op in traced) - statistics.median(
            op["wall_s"] for op in plain
        )
        result.update(layer_metrics=metrics, trace_problems=problems, spans=recorder.dump())
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
