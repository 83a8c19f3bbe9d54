"""Seeded synthetic inputs for the `tall_report` and `bulk_mlm` workloads.

Each design follows the style of ``tools/make_demo_data.py``: z-scored
latent columns are mapped onto per-column raw scales and written with six
decimals, so the program's own z-scoring recovers them. Predictors are
independent standard normals; a fixed number of them carry signal into
every response, the rest are pure noise. The same (shape, seed) always
gives byte-identical files.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    """Size of a synthetic design: rows, predictors, responses, signal predictors."""

    n: int
    p: int
    k: int
    signal: int
    stream: int  # keeps the random streams of different shapes apart


TALL = Shape(n=2000, p=100, k=3, signal=12, stream=1)
BULK = Shape(n=20000, p=40, k=4, signal=10, stream=2)


def predictor_names(shape: Shape) -> list[str]:
    return [f"x{j + 1:03d}" for j in range(shape.p)]


def response_names(shape: Shape) -> list[str]:
    return [f"y{k + 1}" for k in range(shape.k)]


def _zscore(v: np.ndarray) -> np.ndarray:
    return (v - v.mean(axis=0)) / v.std(axis=0, ddof=1)


def generate(shape: Shape, seed: int, out_dir: Path) -> dict:
    """Write ``data.csv`` and ``subsets.cfg`` into ``out_dir``.

    Returns the input record the benchmark reports: shape, seed, and the
    SHA-256 of each file.
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng([shape.stream, seed])
    x = _zscore(rng.normal(size=(shape.n, shape.p)))
    # signal strengths are fixed so every seed poses a problem of the same
    # difficulty; the seed picks which predictors carry them and the signs
    strength = np.linspace(0.35, 0.05, shape.signal)
    signal_cols = np.sort(rng.choice(shape.p, size=shape.signal, replace=False))
    beta = np.zeros((shape.p, shape.k))
    beta[signal_cols] = strength[:, None] * rng.choice([-1.0, 1.0], size=(shape.signal, shape.k))
    y = _zscore(x @ beta + rng.normal(size=(shape.n, shape.k)))

    z = np.column_stack([x, y])
    sds = 10.0 ** rng.uniform(-0.5, 3.0, size=z.shape[1])
    means = sds * rng.uniform(1.0, 10.0, size=z.shape[1])
    raw = means + sds * z

    out_dir.mkdir(parents=True, exist_ok=True)
    xs, ys = predictor_names(shape), response_names(shape)
    lines = [",".join(xs + ys)]
    lines.extend(",".join(f"{v:.6f}" for v in row) for row in raw)
    csv_path = out_dir / "data.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    cfg = ["predictors.role = predictor"]
    cfg += [f"predictors.column = {name}" for name in xs]
    cfg += ["responses.role = response"]
    cfg += [f"responses.column = {name}" for name in ys]
    cfg_path = out_dir / "subsets.cfg"
    cfg_path.write_text("\n".join(cfg) + "\n", encoding="utf-8")

    return {
        "shape": {"n": shape.n, "p": shape.p, "k": shape.k, "signal": shape.signal},
        "seed": seed,
        "files": {path.name: sha256(path) for path in (csv_path, cfg_path)},
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
