#!/usr/bin/env python3
"""Seeded single-operator mutants of one module, run against chosen tests.

Each mutant changes one thing in the module's syntax tree:

* ``compare`` -- one comparison operator flipped (``<`` to ``>=``, ``==``
  to ``!=``, ``in`` to ``not in``, ...);
* ``arith`` -- one binary ``+ - * /`` swapped (``+`` with ``-``, ``*``
  with ``/``);
* ``float`` -- one float constant times 1.5 (never 0.0, inf or nan,
  which it leaves as they are).

The script lists every such site, draws ``--count`` of them with
``random.Random(--seed)``, and runs the named tests once per mutant in a
scratch copy of the repository, so the working tree is never touched. A
mutant is killed when pytest exits nonzero (or runs past ten minutes)
and survives when every test passes. Each survivor is either an untested
number or an equivalent mutant, code that can be simplified; the script
reports them for a reader to judge. It is a developer tool, not a test.

Run from the repository root, stdlib only::

    python tools/mutate.py src/enetstats/cli.py tests/test_cli.py --count 30
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

_FLIP = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
_TIMEOUT = 600.0  # seconds per mutant run; a mutant that hangs is killed


def sites(tree: ast.Module) -> list[tuple[int, int, str]]:
    """Every mutable site as (node index in ``ast.walk`` order, operand
    index, kind); the operand index picks one comparison of a chain."""
    found = []
    for i, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            found += [(i, j, "compare") for j, op in enumerate(node.ops) if type(op) in _FLIP]
        elif isinstance(node, ast.BinOp) and type(node.op) in _SWAP:
            found.append((i, 0, "arith"))
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            if node.value * 1.5 != node.value:  # not 0.0, inf or nan
                found.append((i, 0, "float"))
    return found


def mutate(source: str, site: tuple[int, int, str]) -> tuple[str, str]:
    """The module's source with one site changed, and a one-line label
    that shows the changed expression before and after."""
    tree = ast.parse(source)
    index, j, kind = site
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == index)
    before = ast.unparse(node)
    if kind == "compare":
        node.ops[j] = _FLIP[type(node.ops[j])]()
    elif kind == "arith":
        node.op = _SWAP[type(node.op)]()
    else:
        node.value *= 1.5
    return ast.unparse(tree) + "\n", f"line {node.lineno}: {kind} {before} -> {ast.unparse(node)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", type=Path, help="module to mutate, relative to the root")
    parser.add_argument("tests", nargs="+", help="pytest targets the mutants run against")
    parser.add_argument("--count", type=int, default=30, help="mutants to draw (default 30)")
    parser.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    source = (root / args.module).read_text(encoding="utf-8")
    every = sites(ast.parse(source))
    chosen = sorted(random.Random(args.seed).sample(every, min(args.count, len(every))))
    print(f"{args.module}: {len(every)} sites, {len(chosen)} drawn with seed {args.seed}")

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            root, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache")
        )
        target = copy / args.module
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        command += args.tests

        def passes(text: str) -> bool:
            target.write_text(text, encoding="utf-8")
            try:
                done = subprocess.run(
                    command, cwd=copy, env=env, capture_output=True, timeout=_TIMEOUT
                )
            except subprocess.TimeoutExpired:
                return False
            return done.returncode == 0

        # the module as ast.unparse writes it back, unmutated, must pass
        if not passes(ast.unparse(ast.parse(source)) + "\n"):
            print("the tests fail on the unmutated module; no mutant was run")
            return 1
        survivors = []
        for site in chosen:
            text, label = mutate(source, site)
            survived = passes(text)
            print(f"{'SURVIVED' if survived else 'killed  '} {label}", flush=True)
            if survived:
                survivors.append(label)
    print(f"killed {len(chosen) - len(survivors)}/{len(chosen)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
