"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import os
import re
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    make = workloads.WORKLOADS[name]
    for root in (tmp_path / "a", tmp_path / "b"):
        workloads.write_files(make(7), str(root))
    files = sorted(p.relative_to(tmp_path / "a")
                   for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == \
            (tmp_path / "b" / rel).read_bytes()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_do_not_depend_on_seed(name):
    make = workloads.WORKLOADS[name]
    assert make(7).files == make(8).files


def _exact_elliptic(op):
    """The op with its load replaced so that a known phi solves it:
    ``f = L phi + xi`` with ``xi`` in ``dj(phi)``."""
    g = op.graph
    rng = np.random.default_rng(0)
    phi = rng.uniform(-1.0, 1.0, len(g.ids))
    phi[::7] = 0.0                       # some nodes sit on the breakpoint
    lo, hi = op.density.interval(phi)
    xi = lo + rng.uniform(0.0, 1.0, len(phi)) * (hi - lo)
    op.f = (g.stiffness @ phi + g.kappa * phi) / g.mu + xi
    return op, phi


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_check_accepts_solution_and_rejects_moved_node(tmp_path):
    op, phi = _exact_elliptic(workloads.sweep_small(1).ops[0])
    table = dict(zip(op.graph.ids, phi))
    good = _write(tmp_path / "good.json", {"solution": table})
    verdict = oracle.check(op, 0, good, workloads.TOL)
    assert verdict.ok and verdict.honest and verdict.residual < 1e-12

    moved = dict(table)
    moved[op.graph.ids[3]] += 1e-3
    bad = _write(tmp_path / "bad.json", {"solution": moved})
    verdict = oracle.check(op, 0, bad, workloads.TOL)
    assert not verdict.ok and not verdict.honest
    # the same report with exit code 1 is an honest failure
    verdict = oracle.check(op, 1, bad, workloads.TOL)
    assert not verdict.ok and verdict.honest


def test_check_parabolic_steps(tmp_path):
    # kappa 2, mu 1, tau 1/2, |t| density, f 5: the constant states 0, 1,
    # 1.5 solve both implicit-Euler steps exactly
    g = workloads.path(6, 2.0)
    op = workloads._parabolic_op("p", "p.json", g, workloads.ABS,
                                 np.full(6, 5.0), "out.json")
    op.extra = {"T": 1.0, "steps": 2}
    doc = {"states": [dict.fromkeys(g.ids, v) for v in (0.0, 1.0, 1.5)]}
    verdict = oracle.check(op, 0, _write(tmp_path / "r.json", doc),
                           workloads.TOL)
    assert verdict.ok and verdict.residual < 1e-12
    doc["states"][2][g.ids[0]] += 1e-3
    verdict = oracle.check(op, 0, _write(tmp_path / "r.json", doc),
                           workloads.TOL)
    assert not verdict.honest
    doc["states"] = doc["states"][:2]        # stopped after one step
    verdict = oracle.check(op, 1, _write(tmp_path / "r.json", doc),
                           workloads.TOL)
    assert not verdict.ok and verdict.honest


def test_check_agrees_with_program_on_small_solve(tmp_path):
    import graphhvi.cli as cli
    wl = workloads.sweep_small(3)
    workloads.write_files(wl, str(tmp_path))
    op = wl.ops[1]
    argv = op.argv_in(str(tmp_path))
    code = cli.main(argv)
    verdict = oracle.check(op, code, argv[-1], workloads.TOL)
    assert verdict.honest
    assert verdict.ok == (code == 0)


def test_exhaust_level_sizes():
    g = workloads.lattice(100, 1.0)
    assert len(g.ids) == 19801
    op = workloads.exhaust_lattice(0).ops[0]
    assert op.extra["level_sizes"][0] == 25
    assert op.extra["level_sizes"][-1] == 19801


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, 0)


def test_self_time_arithmetic():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 6.5, 0),
        _span("b", 6.5, 7.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx(
        [10.0 - 3.0 - 2.0, 3.0 - 1.0, 1.0, 1.5, 0.5])
    table = tracing.layer_table(spans)
    assert table["b"]["calls"] == 2
    assert table["b"]["self_s"] == pytest.approx(2.0)
    assert table["root"]["total_s"] == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span("p", 0.0, 10.0, -1), _span("c", 2.0, 6.0, 0),
             _span("c", 4.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(2.0)


def _busy(seconds):
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        pass


def test_probe_scales_and_takes_out_kernel_time(monkeypatch):
    import run
    kernel_s = 0.02

    def slow_kernel():              # a machine at half the nominal speed
        _busy(kernel_s)
        return 2 * run.REF_NOMINAL_S

    monkeypatch.setattr(run, "reference_s", slow_kernel)
    probe = run.SpeedProbe()
    t0 = time.perf_counter()
    result, nominal = probe.time(lambda: _busy(4 * run.REF_PERIOD_S) or 7)
    wall = time.perf_counter() - t0
    assert result == 7
    assert probe.kernels >= 4       # before, after, and from the timer
    # the time of every kernel is out: the two around the call and those
    # the timer ran inside it
    assert probe.raw[0] == pytest.approx(wall - probe.kernels * kernel_s,
                                         abs=0.01)
    assert nominal == pytest.approx(probe.raw[0] / 2)


def test_traced_operation_restores_program(tmp_path):
    import graphhvi.cli as cli
    import graphhvi.reports as reports
    import graphhvi.solvers as solvers
    before = (cli.reports, solvers._pcg, reports.render_json,
              cli.superpotential.PiecewiseDensity.value)
    wl = workloads.sweep_small(3)
    workloads.write_files(wl, str(tmp_path))
    tracer = tracing.Tracer()
    with tracer.operation(0):
        assert cli.main(wl.ops[0].argv_in(str(tmp_path))) in (0, 1)
    after = (cli.reports, solvers._pcg, reports.render_json,
             cli.superpotential.PiecewiseDensity.value)
    assert before == after
    assert tracer.absent == []
    table = tracing.layer_table(tracer.spans)
    # render_json recurses through the module; only the outer call counts
    assert table["reports.render"]["calls"] == 1
    assert table["cli.main"]["calls"] == 1
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["operators.linsolve_calls"][0] > 0
    assert metrics["superpotential.eval_calls"][0] > 0
    assert 0.0 <= metrics["solvers.converged_ratio"][0] <= 1.0


def test_absent_boundary_is_left_out(tmp_path, monkeypatch):
    monkeypatch.setattr(tracing, "BOUNDARIES", tracing.BOUNDARIES + [
        ("operators.gone", "graphhvi.operators.no_such_solver")])
    monkeypatch.setattr(tracing, "_PER_OP", tracing._PER_OP + [
        ("operators.gone_s", "s/op", ["operators.gone"],
         lambda t, c: t["operators.gone"]["self_s"])])
    import graphhvi.cli as cli
    wl = workloads.sweep_small(3)
    workloads.write_files(wl, str(tmp_path))
    tracer = tracing.Tracer()
    with tracer.operation(0):
        cli.main(wl.ops[0].argv_in(str(tmp_path)))
    assert tracer.absent == ["graphhvi.operators.no_such_solver"]
    metrics = tracing.layer_metrics(tracer, 1)
    assert "operators.gone_s" not in metrics
    assert "operators.linsolve_s" in metrics


def test_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]] + [w["name"] for w in spec["workloads"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert {m for m, _, _, _ in tracing._PER_OP} <= per_layer
