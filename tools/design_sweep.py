#!/usr/bin/env python3
"""Fit the elastic-net path on two seeded sets of small, hard designs.

In the first set, design s draws from ``numpy.random.default_rng([7, s])``
its shape, N in [6, 30), p in [4, 20) and K in [1, 4), and by ``s % 4``
one of four families:

* 0 ``plain`` -- independent normal columns;
* 1 ``copy`` -- plus an exact copy of column 0;
* 2 ``factor`` -- one shared factor, 0.9 z + 0.45 e;
* 3 ``near-copy`` -- plus column 0 with 1e-6 noise added.

Columns are z-scored (ddof = 1) and y = x[:, :2] @ normal + 0.5 normal.
Each design is fitted at alpha in {1e-3, 0.5, 1} with nlambda 20.

The second set, ``wide``, reaches N < p and N = 3: design s draws from
``default_rng([123, s])`` N in [3, 31), p in [1, 31), K in [1, 4),
whether the columns share a factor, whether column 0 gets no copy, an
exact copy or a near copy, one alpha from the three and nlambda from
{5, 8, 20}, and is fitted once; y is built on the first min(2, p)
columns.

Every fit runs with max_iter 3000. The script prints the
ConvergenceErrors per family, the total and the worst single-lambda
corrector passes, and the largest ``kkt_check`` violation over every
returned solution; it exits 1 when any fit raised, any solution misses
the 1e-6 certificate or any lambda took more than CRAWL passes.

Run from the repository root, numpy and the package alone::

    PYTHONPATH=src python tools/design_sweep.py --designs 200
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from enetstats.enet import KKT_TOL, ConvergenceError, EnetConfig, fit_mgaussian_path, kkt_check

FAMILIES = ("plain", "copy", "factor", "near-copy")
ALPHAS = (1e-3, 0.5, 1.0)
# the most corrector passes one lambda may take; the worst on the first
# 1,600 designs of each set is 217
CRAWL = 500


def zscore(x: np.ndarray) -> np.ndarray:
    return (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)


def design(s: int) -> tuple[np.ndarray, np.ndarray]:
    """Design s of the sweep: its standardized x and its responses y."""
    rng = np.random.default_rng([7, s])
    n, p, k = int(rng.integers(6, 30)), int(rng.integers(4, 20)), int(rng.integers(1, 4))
    family = FAMILIES[s % 4]
    if family == "factor":
        x = 0.9 * rng.normal(size=(n, 1)) + 0.45 * rng.normal(size=(n, p))
    else:
        x = rng.normal(size=(n, p))
    if family == "copy":
        x = np.column_stack([x, x[:, 0]])
    elif family == "near-copy":
        x = np.column_stack([x, x[:, 0] + 1e-6 * rng.normal(size=n)])
    x = zscore(x)
    y = x[:, :2] @ rng.normal(size=(2, k)) + 0.5 * rng.normal(size=(n, k))
    return x, y


def wide_design(s: int) -> tuple[np.ndarray, np.ndarray, EnetConfig]:
    """Design s of the wide set: its standardized x, its responses y and
    the config of its one fit."""
    rng = np.random.default_rng([123, s])
    n, p, k = int(rng.integers(3, 31)), int(rng.integers(1, 31)), int(rng.integers(1, 4))
    factor, copy = rng.random() < 0.5, int(rng.choice(3))
    alpha = ALPHAS[int(rng.integers(3))]
    nlambda = (5, 8, 20)[int(rng.integers(3))]
    if factor:
        x = 0.9 * rng.normal(size=(n, 1)) + 0.45 * rng.normal(size=(n, p))
    else:
        x = rng.normal(size=(n, p))
    x = zscore(x)
    if copy == 1:
        x = np.column_stack([x, x[:, 0]])
    elif copy == 2:
        x = np.column_stack([x, x[:, 0] + 1e-6 * rng.normal(size=n)])
    x = zscore(x)
    q = min(2, x.shape[1])
    y = x[:, :q] @ rng.normal(size=(q, k)) + 0.5 * rng.normal(size=(n, k))
    return x, y, EnetConfig(alpha=alpha, nlambda=nlambda, max_iter=3000)


def fits(designs: int):
    """Every fit of the sweep, as (family, s, x, y, config)."""
    for s in range(designs):
        x, y = design(s)
        for alpha in ALPHAS:
            yield FAMILIES[s % 4], s, x, y, EnetConfig(alpha=alpha, nlambda=20, max_iter=3000)
    for s in range(designs):
        yield "wide", s, *wide_design(s)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--designs", type=int, default=1600, help="designs s = 0 .. DESIGNS-1 of each set"
    )
    args = parser.parse_args(argv)

    failed = dict.fromkeys((*FAMILIES, "wide"), 0)
    n_fits = total = worst = 0
    kkt_worst = 0.0
    for family, s, x, y, cfg in fits(args.designs):
        n_fits += 1
        try:
            path = fit_mgaussian_path(x, y, cfg)
        except ConvergenceError as exc:
            failed[family] += 1
            print(f"ConvergenceError: {family} s={s} alpha={cfg.alpha:g}: {exc}")
            continue
        total += int(path.n_passes.sum())
        worst = max(worst, int(path.n_passes.max()))
        for i, lam in enumerate(path.lambdas):
            residuals = kkt_check(x, y, path.coefs[i], path.intercepts[i], float(lam), cfg.alpha)
            kkt_worst = max(kkt_worst, residuals.max(initial=0.0))

    print(f"designs {args.designs} per set, fits {n_fits}")
    print("ConvergenceError per family: " + ", ".join(f"{f} {c}" for f, c in failed.items()))
    print(f"passes: total {total}, worst lambda {worst}")
    print(f"largest kkt_check: {kkt_worst:.3g}")
    return 1 if sum(failed.values()) or kkt_worst > KKT_TOL or worst > CRAWL else 0


if __name__ == "__main__":
    sys.exit(main())
