"""Span recorder and per-layer metrics for the traced benchmark run.

Nothing in the package is instrumented. Instead, :func:`instrument`
replaces every public function of each layer module, in every
``enetstats`` namespace that imported it, with a wrapper that records a
span: name, start, end, parent span and operation id. Spans stay in
memory; the worker writes them out when the run ends. A span's self time
is its duration minus the durations of its direct children, which holds
only while every child lies inside its parent and siblings do not overlap;
:func:`structure_problems` checks exactly that for every operation.

Layers are the package modules; ``cli.main`` is the root span of every
operation, so its self time is argument parsing, row formatting and
TSV/stdout writing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field

LAYERS = ("dataprep", "enet", "cv", "inference", "linalg", "dist")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's span list, -1 for a root
    op: int
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; ``op`` tags every span opened after it is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, func, count=None):
        """Return ``func`` wrapped in a span; ``count(args, kwargs, result)``
        may return work counts to attach to the span."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _count_cells(args, kwargs, table):
    return {"cells": table.n_rows * len(table.names)}


def _count_path(args, kwargs, path):
    return {"solutions": int(path.n_lambdas)}


def _count_cv(args, kwargs, result):
    folds = kwargs.get("folds", args[3] if len(args) > 3 else None)
    return {"solutions": int(folds.k) * int(len(result.lambdas))}


def _count_tail(args, kwargs, tail):
    return {"clamped": int(tail.clamped)}


_COUNTS = {
    "dataprep.load_csv": _count_cells,
    "enet.fit_gaussian_path": _count_path,
    "enet.fit_mgaussian_path": _count_path,
    "cv.cross_validate": _count_cv,
    "dist.f_sf": _count_tail,
    "dist.t_sf": _count_tail,
}


def rebind(original, replacement) -> None:
    """Point every ``enetstats`` module attribute bound to ``original`` at
    ``replacement``, so calls through imported names are caught too."""
    for name, module in list(sys.modules.items()):
        if name != "enetstats" and not name.startswith("enetstats."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


@contextlib.contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap the public functions of every layer, plus ``cli.main`` and
    ``SubsetConfig.load``, for the duration of the block."""
    undo = []
    targets = [("cli.main", importlib.import_module("enetstats.cli").main)]
    for layer in LAYERS:
        module = importlib.import_module(f"enetstats.{layer}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                targets.append((f"{layer}.{attr}", obj))
    for name, func in targets:
        wrapped = recorder.wrap(name, func, _COUNTS.get(name))
        rebind(func, wrapped)
        undo.append((wrapped, func))

    subset_config = importlib.import_module("enetstats.dataprep").SubsetConfig
    load = vars(subset_config)["load"]
    subset_config.load = classmethod(recorder.wrap("dataprep.SubsetConfig.load", load.__func__))
    try:
        yield recorder
    finally:
        subset_config.load = load
        for wrapped, func in undo:
            rebind(wrapped, func)


def op_layer_metrics(spans: list[Span], index: dict[int, int]) -> dict[str, float]:
    """Per-layer metrics of one operation from its spans.

    ``index`` maps a global span index to its position in ``spans``, so
    parents can be looked up. Function times are inclusive and count only
    the outermost call of a recursive function.
    """
    selfs = self_times(spans, index)

    def parent(s: Span) -> Span | None:
        return spans[index[s.parent]] if s.parent in index else None

    def outer(name: str) -> list[Span]:
        return [s for s in spans if s.name == name and (parent(s) is None or parent(s).name != name)]

    def total(*names: str) -> float:
        return sum(s.duration for n in names for s in outer(n))

    def layer_self(layer: str) -> float:
        return sum(t for s, t in zip(spans, selfs) if s.layer == layer)

    paths = [s for s in spans if s.name in ("enet.fit_gaussian_path", "enet.fit_mgaussian_path")]
    fold_fits = [s for s in paths if parent(s) is not None and parent(s).layer == "cv"]
    full_fits = [s for s in paths if parent(s) is None or parent(s).layer != "cv"]
    cv_spans = outer("cv.cross_validate")
    cv_solutions = sum(s.counts.get("solutions", 0) for s in cv_spans)
    path_solutions = sum(s.counts.get("solutions", 0) for s in full_fits)
    cv_s = total("cv.cross_validate")
    path_s = sum(s.duration for s in full_fits)
    load_s = total("dataprep.load_csv")
    cells = sum(s.counts.get("cells", 0) for s in outer("dataprep.load_csv"))
    dist_calls = [s for s in spans if s.layer == "dist" and (parent(s) is None or parent(s).layer != "dist")]
    dist_s = sum(s.duration for s in dist_calls)
    from_inference = [s for s in spans if s.layer == "linalg" and parent(s) is not None and parent(s).layer == "inference"]

    return {
        "cv.cross_validate_s": cv_s,
        "cv.fold_fit_s": sum(s.duration for s in fold_fits),
        "cv.self_s": layer_self("cv"),
        "cv.solutions": cv_solutions,
        "cv.ms_per_solution": 1e3 * cv_s / cv_solutions if cv_solutions else 0.0,
        "enet.path_s": path_s,
        "enet.solutions": path_solutions,
        "enet.ms_per_solution": 1e3 * path_s / path_solutions if path_solutions else 0.0,
        "dataprep.load_csv_s": load_s,
        "dataprep.standardize_s": total("dataprep.select_variables", "dataprep.standardize"),
        "dataprep.cells": cells,
        "dataprep.us_per_cell": 1e6 * load_s / cells if cells else 0.0,
        "inference.fit_mlm_s": total("inference.fit_mlm"),
        "inference.manova_s": total("inference.manova_table"),
        "inference.univariate_s": total("inference.univariate_summary"),
        "inference.vif_s": total("inference.vif"),
        "inference.residuals_s": total("inference.residual_diagnostics"),
        "inference.pearson_s": total("inference.pearson"),
        "inference.vif_aux_fits": sum(1 for s in from_inference if parent(s).name == "inference.vif"),
        "linalg.least_squares_s": total("linalg.least_squares"),
        "linalg.cholesky_solve_s": total("linalg.cholesky_solve"),
        "linalg.calls": len(from_inference),
        "dist.calls": len(dist_calls),
        "dist.s": dist_s,
        "dist.us_per_call": 1e6 * dist_s / len(dist_calls) if dist_calls else 0.0,
        "dist.clamped": sum(s.counts.get("clamped", 0) for s in dist_calls),
        "cli.self_s": layer_self("cli"),
    }


def self_times(spans: list[Span], index: dict[int, int]) -> list[float]:
    """Duration minus the time covered by direct children, per span."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent in index:
            child[index[span.parent]] += span.duration
    return [s.duration - c for s, c in zip(spans, child)]


def structure_problems(spans: list[Span], index: dict[int, int], wall_s: float) -> list[str]:
    """Ways one operation's spans break the nesting self time relies on:
    not exactly one root, a root not bracketed by the operation's wall time
    (within 5 ms + 1% of loop overhead), a child outside its parent, or
    overlapping siblings."""
    roots = [s for s in spans if s.parent not in index]
    if len(roots) != 1:
        return [f"{len(roots)} root spans"]
    problems = []
    root = roots[0]
    if not 0.0 <= wall_s - root.duration <= 0.005 + 0.01 * wall_s:
        problems.append(f"root span {root.name} lasts {root.duration:.6f} s in an operation of {wall_s:.6f} s")
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent in index:
            children.setdefault(span.parent, []).append(span)
    for parent_id, kids in children.items():
        parent = spans[index[parent_id]]
        kids.sort(key=lambda s: s.start)
        outside = [k.name for k in kids if k.start < parent.start or k.end > parent.end]
        if outside:
            problems.append(f"{outside[0]} lies outside its parent {parent.name}")
        overlapping = [b.name for a, b in zip(kids, kids[1:]) if b.start < a.end]
        if overlapping:
            problems.append(f"{overlapping[0]} overlaps an earlier sibling under {parent.name}")
    return problems


def layer_metrics(recorder: SpanRecorder, ops: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Median per-layer metrics over the traced operations, plus every
    span nesting problem found on the way.

    Each traced op dict carries ``op`` (its id), ``wall_s``, ``kkt_max``,
    ``bytes_out`` and ``files_out``.
    """
    per_op: list[dict[str, float]] = []
    problems: list[str] = []
    for op in ops:
        positions = [i for i, s in enumerate(recorder.spans) if s.op == op["op"]]
        spans = [recorder.spans[i] for i in positions]
        index = {g: local for local, g in enumerate(positions)}
        metrics = op_layer_metrics(spans, index)
        metrics["enet.kkt_max"] = op["kkt_max"]
        metrics["cli.bytes_out"] = op["bytes_out"]
        metrics["cli.files_out"] = op["files_out"]
        per_op.append(metrics)
        problems += [f"op {op['op']}: {p}" for p in structure_problems(spans, index, op["wall_s"])]
    medians = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    return medians, problems
