"""Spans around the calls into each graphhvi module, recorded from outside.

A traced operation temporarily replaces each boundary function with a
wrapper under the name its caller looks it up by, so the program's own
files stay unchanged.  A span records its name, start, end, parent span and
operation id; spans stay in memory until the run ends.  A boundary that
cannot be found (a later change removed or renamed it) is reported as
absent, and the metrics that need it are left out rather than shown as 0.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# span name, then where the caller looks the function up
BOUNDARIES = [
    ("graphs.load", "graphhvi.cli.load_graph"),
    ("operators.assemble", "graphhvi.solvers.assemble"),
    ("operators.linsolve", "graphhvi.solvers._pcg"),
    ("superpotential.mollify", "graphhvi.solvers.mollify"),
    ("superpotential.eval", "graphhvi.superpotential.PiecewiseDensity.value"),
    ("superpotential.eval",
     "graphhvi.superpotential.PiecewiseDensity.derivative"),
    ("superpotential.eval",
     "graphhvi.superpotential.PiecewiseDensity.one_sided"),
    ("solvers.solve", "graphhvi.solvers.solve_elliptic"),
    ("solvers.solve", "graphhvi.exhaustion.solve_elliptic"),
    ("solvers.parabolic", "graphhvi.solvers.solve_parabolic"),
    ("solvers.certify", "graphhvi.solvers.certify"),
    ("calculus.norms", "graphhvi.solvers.lp_norm_nodes"),
    ("calculus.norms", "graphhvi.solvers.sobolev_norms"),
    ("calculus.norms", "graphhvi.exhaustion.sobolev_norms"),
    ("calculus.norms", "graphhvi.exhaustion.embedding_diagnostics"),
    ("exhaustion.exhaust", "graphhvi.cli.exhaustion.exhaust"),
    ("exhaustion.truncate", "graphhvi.exhaustion.truncate"),
    ("reports.render", "graphhvi.cli.reports.render_json"),
    ("reports.write", "graphhvi.cli.reports.write_atomic"),
]
ROOT = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int     # index into Tracer.spans, -1 for an operation's root
    op: int


class _ModuleView:
    """Stands in for a module under one caller's name, so a wrapped function
    is seen by that caller only; the module's own recursive calls (as in
    ``reports.render_json``) are not wrapped."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.op = -1
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.op))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        on_result = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(self.counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def operation(self, op_id: int):
        """Trace one operation: install the wrappers, open its root span,
        and restore every original on the way out."""
        self.op = op_id
        self._install()
        idx = self._open(ROOT)
        try:
            yield
        finally:
            self._close(idx)
            self._uninstall()

    # -- installing ------------------------------------------------------

    def _install(self) -> None:
        self.absent = []
        for name, where in BOUNDARIES:
            found = _resolve(where)
            if found is None:
                self.absent.append(where)
                continue
            holder, rest = found
            for attr in rest[:-1]:
                nxt = getattr(holder, attr)
                if isinstance(nxt, types.ModuleType):
                    nxt = _ModuleView(nxt)
                    self._patch(holder, attr, nxt)
                holder = nxt
            self._patch(holder, rest[-1],
                        self.wrap(name, getattr(holder, rest[-1])))

    def _patch(self, holder, attr: str, value) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def _uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)


def _resolve(where: str):
    """``(module, attribute path)`` for a dotted name whose target is
    callable, or None.  The longest importable prefix is the module."""
    parts = where.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        obj = module
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
        return (module, parts[cut:]) if callable(obj) else None
    return None


# -- counts taken from boundary results ------------------------------------


def _count_linsolve(counts, result):
    counts["linsolve_iters"] += int(result[2])


def _count_load(counts, result):
    counts["graph_nodes"] += len(result.nodes)


def _field(stage, name):
    """A stage record's field, whether the record is a dict or an object."""
    if isinstance(stage, dict):
        return stage.get(name)
    return getattr(stage, name, None)


def _count_solve(counts, result):
    counts["converged"] += bool(getattr(result, "converged", False))
    stages = getattr(result, "iterations", None) or []
    counts["stages"] += len(stages)
    counts["polish_stages"] += sum(_field(s, "stage") == "polish"
                                   for s in stages)
    counts["inner_steps"] += sum(_field(s, "inner_steps") or 0
                                 for s in stages)


def _count_render(counts, result):
    counts["render_bytes"] += len(result.encode())


_COUNTERS = {
    "operators.linsolve": _count_linsolve,
    "graphs.load": _count_load,
    "solvers.solve": _count_solve,
    "reports.render": _count_render,
}


# -- arithmetic on the span tree --------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


def layer_table(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total time and self time."""
    table: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += own
    return table


# metric name, unit, span names it needs, value from (layer table, counts)
_PER_OP = [
    ("graphs.load_s", "s/op", ["graphs.load"],
     lambda t, c: t["graphs.load"]["self_s"]),
    ("graphs.nodes", "count/op", ["graphs.load"],
     lambda t, c: c["graph_nodes"]),
    ("cli.self_s", "s/op", [ROOT], lambda t, c: t[ROOT]["self_s"]),
    ("exhaustion.truncate_s", "s/op", ["exhaustion.truncate"],
     lambda t, c: t["exhaustion.truncate"]["self_s"]),
    ("exhaustion.truncate_calls", "count/op", ["exhaustion.truncate"],
     lambda t, c: t["exhaustion.truncate"]["calls"]),
    ("exhaustion.self_s", "s/op", ["exhaustion.exhaust"],
     lambda t, c: t["exhaustion.exhaust"]["self_s"]),
    ("calculus.norms_s", "s/op", ["calculus.norms"],
     lambda t, c: t["calculus.norms"]["self_s"]),
    ("operators.linsolve_calls", "count/op", ["operators.linsolve"],
     lambda t, c: t["operators.linsolve"]["calls"]),
    ("operators.linsolve_iters", "count/op", ["operators.linsolve"],
     lambda t, c: c["linsolve_iters"]),
    ("operators.linsolve_s", "s/op", ["operators.linsolve"],
     lambda t, c: t["operators.linsolve"]["self_s"]),
    ("operators.assemble_calls", "count/op", ["operators.assemble"],
     lambda t, c: t["operators.assemble"]["calls"]),
    ("operators.assemble_s", "s/op", ["operators.assemble"],
     lambda t, c: t["operators.assemble"]["self_s"]),
    ("superpotential.eval_calls", "count/op", ["superpotential.eval"],
     lambda t, c: t["superpotential.eval"]["calls"]),
    ("superpotential.eval_s", "s/op", ["superpotential.eval"],
     lambda t, c: t["superpotential.eval"]["self_s"]),
    ("superpotential.mollify_calls", "count/op", ["superpotential.mollify"],
     lambda t, c: t["superpotential.mollify"]["calls"]),
    ("solvers.solve_calls", "count/op", ["solvers.solve"],
     lambda t, c: t["solvers.solve"]["calls"]),
    ("solvers.self_s", "s/op", ["solvers.solve"],
     lambda t, c: t["solvers.solve"]["self_s"]
     + t["solvers.parabolic"]["self_s"]),
    ("solvers.stages", "count/op", ["solvers.solve"],
     lambda t, c: c["stages"]),
    ("solvers.polish_stages", "count/op", ["solvers.solve"],
     lambda t, c: c["polish_stages"]),
    ("solvers.inner_steps", "count/op", ["solvers.solve"],
     lambda t, c: c["inner_steps"]),
    ("solvers.certify_s", "s/op", ["solvers.certify"],
     lambda t, c: t["solvers.certify"]["self_s"]),
    ("reports.render_s", "s/op", ["reports.render"],
     lambda t, c: t["reports.render"]["self_s"]),
    ("reports.render_bytes", "B/op", ["reports.render"],
     lambda t, c: c["render_bytes"]),
    ("reports.write_s", "s/op", ["reports.write"],
     lambda t, c: t["reports.write"]["self_s"]),
]
_ZERO = {"calls": 0, "total_s": 0.0, "self_s": 0.0}


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, tuple]:
    """Per-layer metrics as ``{name: (value, unit)}``, averaged over the
    ``n_ops`` traced operations.  A metric whose boundaries are all absent
    is left out."""
    table = defaultdict(lambda: dict(_ZERO), layer_table(tracer.spans))
    present = {name for name, where in BOUNDARIES
               if where not in tracer.absent} | {ROOT}
    counts = defaultdict(float, tracer.counts)
    out = {}
    for metric, unit, needs, value in _PER_OP:
        if all(n in present for n in needs):
            out[metric] = (value(table, counts) / n_ops, unit)
    if "solvers.solve" in present:
        calls = table["solvers.solve"]["calls"]
        # base: solvers.solve_calls
        out["solvers.converged_ratio"] = (
            counts["converged"] / calls if calls else 0.0, "ratio")
    return out
