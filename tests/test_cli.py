"""End-to-end command-line tests (exit codes, report content, determinism)."""

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import graphhvi as gh
import graphhvi.cli
from graphhvi.cli import main

from conftest import make_random_graph

GRAPH = {
    "nodes": [{"id": "v", "mu": 1.0, "kappa": 1.0}],
    "adjacencies": [],
}
ABS_SP = {"breakpoints": [0.0], "pieces": [[-1.0], [1.0]]}
QUAD_SP = {"breakpoints": [], "pieces": [[0.0, 1.0]]}
BIG = 10 ** 400   # a JSON integer that no float can hold


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def workspace(tmp_path):
    write(tmp_path / "graph.json", GRAPH)
    write(tmp_path / "problem.json", {
        "graph": "graph.json",
        "superpotential": ABS_SP,
        "f": {"v": 2.0},
    })
    return tmp_path


def random_problem(workspace, seed, max_nodes):
    """A problem file on ``make_random_graph``'s graph, with ``j = 0.2 |t|``
    and a load uniform in [-1, 1]; returns its path and the graph."""
    g = make_random_graph(np.random.default_rng(seed), max_nodes=max_nodes)
    f = np.random.default_rng(seed + 1).uniform(-1, 1, g.num_nodes)
    # the graph stores both orientations of an adjacency consecutively
    a, b = g.edge_src[::2].tolist(), g.edge_dst[::2].tolist()
    write(workspace / f"graph{seed}.json", {
        "nodes": [{"id": v, "mu": m, "kappa": k} for v, m, k
                  in zip(g.nodes, g.mu.tolist(), g.kappa.tolist())],
        "adjacencies": [{"a": g.nodes[i], "b": g.nodes[j], "rho": r,
                         "gamma": c} for i, j, r, c
                        in zip(a, b, g.rho[::2].tolist(),
                               g.gamma[::2].tolist())]})
    return write(workspace / f"problem{seed}.json", {
        "graph": f"graph{seed}.json",
        "superpotential": {"breakpoints": [0.0], "pieces": [[-0.2], [0.2]]},
        "f": dict(zip(g.nodes, f.tolist()))}), g


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


SRC = os.path.dirname(os.path.dirname(os.path.abspath(graphhvi.cli.__file__)))


def run_python(*args, env=()):
    """``python *args`` in a fresh interpreter that imports the same
    ``graphhvi`` as these tests, with ``env`` added to the environment."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=path, **dict(env)),
                          capture_output=True, text=True, timeout=120)


def run_module(*args, env=()):
    """``python -m graphhvi.cli`` in a fresh interpreter."""
    return run_python("-m", "graphhvi.cli", *args, env=env)


# the C locale's encoding is ASCII; no UTF-8 mode and no locale coercion
ASCII_LOCALE = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}


# Exits 3 when importing scipy.sparse alone loads csgraph (as some scipy
# versions may); otherwise runs the argv list of argv[1] through cli.main
# and prints the exit codes, whether csgraph got loaded, and a ball.
CSGRAPH_PROBE = """
import json, sys
import scipy.sparse
if "scipy.sparse.csgraph" in sys.modules:
    sys.exit(3)
from graphhvi import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
loaded = "scipy.sparse.csgraph" in sys.modules
import graphhvi as gh
g = gh.from_data([("a", 1, 1), ("b", 1, 1)], [("a", "b", 1.0, 1.0)])
print(json.dumps([codes, loaded, sorted(gh.ball(g, "a", 1.5))]))
"""


# Runs each argv list of argv[1] through cli.main, its stdout discarded, and
# prints one row after ``import graphhvi``, one after ``import graphhvi.cli``
# and one after each command: the exit code (None for an import), then
# whether scipy and numpy.polynomial are loaded that ``import numpy`` alone
# did not load (numpy 1.x imports numpy.polynomial itself).
FOOTPRINT_PROBE = """
import contextlib, io, json, sys
import numpy
own = set(sys.modules)
rows = []
def row(code):
    rows.append([code, *(m in sys.modules and m not in own
                         for m in ("scipy", "numpy.polynomial"))])
import graphhvi
row(None)
from graphhvi import cli
row(None)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # --help
            code = exc.code
    row(code)
print(json.dumps(rows))
"""


class TestValidate:
    def test_machine_report(self, workspace, capsys):
        code, out, _ = run(["validate", "--graph",
                            str(workspace / "graph.json")], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["num_nodes"] == 1
        assert doc["schema_version"] == 3

    def test_two_node_report(self, tmp_path, capsys):
        path = write(tmp_path / "two.json", {
            "nodes": [{"id": "a", "mu": 2.0, "kappa": 1.0},
                      {"id": "b", "mu": 1.0, "kappa": 3.0}],
            "adjacencies": [{"a": "a", "b": "b", "rho": 4.0, "gamma": 2.0}]})
        code, out, _ = run(["validate", "--graph", path], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["num_nodes"] == 2
        assert doc["num_directed_edges"] == 2
        assert doc["mu_total"] == 3.0
        assert doc["volume_rho"] == 8.0
        assert doc["degrees"] == {"a": 4.0, "b": 4.0}
        assert doc["constants"]["m_coercive"] == 0.5

    def test_bad_graph_is_input_error(self, tmp_path, capsys):
        path = write(tmp_path / "bad.json", {**GRAPH, "color": "blue"})
        code, _, err = run(["validate", "--graph", path], capsys)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("node, adj", [
        ({"id": {}, "mu": 1.0, "kappa": 1.0}, []),
        ({"id": 3, "mu": 1.0, "kappa": 1.0}, []),
        ({"id": "v", "mu": 1.0, "kappa": 1.0},
         [{"a": ["v"], "b": "w", "rho": 1.0, "gamma": 1.0}]),
    ], ids=["object-id", "number-id", "list-endpoint"])
    def test_non_string_ids(self, tmp_path, capsys, node, adj):
        path = write(tmp_path / "bad.json", {"nodes": [node],
                                             "adjacencies": adj})
        code, _, err = run(["validate", "--graph", path], capsys)
        assert code == 2
        assert "malformed" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(["validate", "--graph",
                            str(tmp_path / "nope.json")], capsys)
        assert code == 2

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "mangled.json"
        path.write_text("{not json")
        code, _, err = run(["validate", "--graph", str(path)], capsys)
        assert code == 2
        code, _, err = run(["solve-elliptic", "--problem", str(path)], capsys)
        assert code == 2
        assert err.startswith(f"error: {path}: invalid JSON")

    def test_directory_as_graph(self, tmp_path, capsys):
        code, _, err = run(["validate", "--graph", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error:") and "Is a directory" in err

    def test_directory_as_out(self, workspace, capsys):
        (workspace / "reports").mkdir()
        out = str(workspace / "reports")
        code, stdout, err = run(["validate", "--graph",
                                 str(workspace / "graph.json"),
                                 "--out", out], capsys)
        assert code == 2
        # the error names the --out path, not write_atomic's temp file
        assert (stdout, err) == (
            "", f"error: {out}: cannot write (Is a directory)\n")
        assert not list(workspace.rglob(".graphhvi-*"))

    def test_out_in_a_missing_directory(self, workspace, capsys):
        out = str(workspace / "missing_dir" / "rep.json")
        assert run(["validate", "--graph", str(workspace / "graph.json"),
                    "--out", out], capsys) == (
            2, "", f"error: {out}: cannot write (No such file or directory)\n")
        assert sorted(p.name for p in workspace.iterdir()) == [
            "graph.json", "problem.json"]

    def test_empty_graph(self, tmp_path, capsys):
        path = write(tmp_path / "empty.json", {"nodes": [],
                                               "adjacencies": []})
        code, _, err = run(["validate", "--graph", path], capsys)
        assert code == 2
        assert "graph has no nodes" in err


class TestSolveElliptic:
    def test_soft_threshold_solution(self, workspace, capsys):
        code, out, _ = run(["solve-elliptic", "--problem",
                            str(workspace / "problem.json")], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True
        assert doc["solution"]["v"] == pytest.approx(1.0, abs=1e-10)
        assert doc["xi"]["v"] == pytest.approx(1.0, abs=1e-10)

    def test_byte_identical_runs(self, workspace, capsys):
        args = ["solve-elliptic", "--problem",
                str(workspace / "problem.json")]
        _, first, _ = run(args, capsys)
        _, second, _ = run(args, capsys)
        assert first == second

    def test_byte_identical_runs_on_a_random_graph(self, workspace, capsys):
        args = ["solve-elliptic", "--problem",
                random_problem(workspace, 22, max_nodes=30)[0]]
        _, first, _ = run(args, capsys)
        _, second, _ = run(args, capsys)
        assert first == second

    def test_report_keys(self, workspace, capsys):
        path, g = random_problem(workspace, 20, max_nodes=8)
        code, out, _ = run(["solve-elliptic", "--problem", path], capsys)
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["schema_version", "converged", "residual_norm",
                             "solution", "xi", "residual", "norms",
                             "constants", "certificates", "trace"]
        assert list(doc["solution"]) == list(g.nodes)
        phi = gh.node_function(g, doc["solution"])
        assert doc["norms"] == dataclasses.asdict(gh.sobolev_norms(g, phi))
        assert doc["constants"] == dataclasses.asdict(gh.constants(g))

    def test_out_file(self, workspace, capsys):
        out_path = workspace / "report.json"
        code, out, _ = run(["solve-elliptic", "--problem",
                            str(workspace / "problem.json"),
                            "--out", str(out_path)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["converged"] is True

    def test_human_format(self, workspace, capsys):
        code, out, _ = run(["solve-elliptic", "--problem",
                            str(workspace / "problem.json"),
                            "--format", "human"], capsys)
        assert code == 0
        assert out.startswith("elliptic solve\n")

    def test_superpotential_by_relative_path(self, workspace, capsys):
        write(workspace / "sp.json", ABS_SP)
        path = write(workspace / "problem2.json", {
            "graph": "graph.json",
            "superpotential": "sp.json",
            "f": {"v": 0.5},
        })
        code, out, _ = run(["solve-elliptic", "--problem", path], capsys)
        assert code == 0
        assert json.loads(out)["solution"]["v"] == pytest.approx(0.0,
                                                                 abs=1e-10)

    def test_nonconvergence_exit_code(self, workspace, capsys):
        path = write(workspace / "hard.json", {
            "graph": "graph.json",
            "superpotential": QUAD_SP,
            "f": {"v": 5.0},
            "solver": {"max_inner": 0},
        })
        code, out, _ = run(["solve-elliptic", "--problem", path], capsys)
        assert code == 1
        assert json.loads(out)["converged"] is False

    def test_trace_names_termination_reason(self, workspace, capsys):
        path = write(workspace / "capped.json", {
            "graph": "graph.json",
            "superpotential": QUAD_SP,
            "f": {"v": 5.0},
            "solver": {"max_inner": 0},
        })
        code, out, _ = run(["solve-elliptic", "--problem", path], capsys)
        assert code == 1
        trace = json.loads(out)["trace"]
        assert trace[-1]["reason"] == "max-iter"
        assert trace[-1]["inner_steps"] == 0
        _, again, _ = run(["solve-elliptic", "--problem", path], capsys)
        assert again == out
        code, out, _ = run(["solve-elliptic", "--problem",
                            str(workspace / "problem.json")], capsys)
        trace = json.loads(out)["trace"]
        assert code == 0 and trace[-1]["reason"] == "tol-reached"
        for entry in trace:
            assert {"stage", "inner_steps", "residual_norm",
                    "active"} <= set(entry)

    @pytest.mark.parametrize("knob, value", [("h_schedule", [0.1, 0.01]),
                                             ("strategy", "picard"),
                                             ("max_polish", 30)])
    def test_removed_solver_knob(self, workspace, capsys, knob, value):
        path = write(workspace / "old.json", {
            "graph": "graph.json",
            "superpotential": ABS_SP,
            "f": {"v": 1.0},
            "solver": {knob: value},
        })
        code, _, err = run(["solve-elliptic", "--problem", path], capsys)
        assert code == 2
        assert "malformed 'solver' section" in err

    def test_unknown_problem_key(self, workspace, capsys):
        path = write(workspace / "broken.json", {
            "graph": "graph.json",
            "superpotential": ABS_SP,
            "f": {"v": 1.0},
            "plot": True,
        })
        code, _, err = run(["solve-elliptic", "--problem", path], capsys)
        assert code == 2
        assert "unknown keys" in err
        for doc, message in [
                ([], "problem document must be an object"),
                ({"graph": "graph.json", "superpotential": ABS_SP},
                 "missing required key 'f'"),
                ({"graph": 3, "superpotential": ABS_SP, "f": {"v": 1.0}},
                 "'graph' must be a file name")]:
            path = write(workspace / "broken.json", doc)
            code, _, err = run(["solve-elliptic", "--problem", path], capsys)
            assert code == 2
            assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("mu, load", [(math.inf, 2.0), (True, 2.0),
                                          (1.0, math.nan), (1.0, {})],
                             ids=["mu-infinity", "mu-bool", "nan-load",
                                  "object-load"])
    def test_non_finite_or_bool_input(self, tmp_path, capsys, mu, load):
        write(tmp_path / "graph.json",
              {"nodes": [{"id": "v", "mu": mu, "kappa": 1.0}],
               "adjacencies": []})
        path = write(tmp_path / "problem.json", {
            "graph": "graph.json",
            "superpotential": ABS_SP,
            "f": {"v": load},
        })
        code, _, err = run(["solve-elliptic", "--problem", path], capsys)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("key, value, field", [
        ("f", {"v": BIG}, "load f"),
        ("f", [BIG], "load f"),
        ("superpotential", {"breakpoints": [BIG], "pieces": [[-1.0], [1.0]]},
         "superpotential breakpoints"),
        ("superpotential", {"breakpoints": [0.0], "pieces": [[BIG], [1.0]]},
         "superpotential breakpoints and pieces"),
        ("solver", {"tol": BIG}, "tol"),
    ], ids=["f-map", "f-list", "breakpoint", "coefficient", "tol"])
    def test_huge_integer(self, workspace, capsys, key, value, field):
        path = write(workspace / "huge.json", {
            "graph": "graph.json", "superpotential": ABS_SP, "f": {"v": 1.0},
            key: value})
        code, _, err = run(["solve-elliptic", "--problem", path], capsys)
        assert code == 2
        assert err.startswith("error:") and field in err

    def test_directory_as_input(self, workspace, capsys):
        (workspace / "graphs").mkdir()
        path = write(workspace / "dir-graph.json", {
            "graph": "graphs",
            "superpotential": ABS_SP,
            "f": {"v": 1.0},
        })
        for problem in (str(workspace), path):
            code, _, err = run(["solve-elliptic", "--problem", problem],
                               capsys)
            assert code == 2
            assert err.startswith("error:") and "Is a directory" in err

    def test_tol_override(self, workspace, capsys):
        code, out, _ = run(["solve-elliptic", "--problem",
                            str(workspace / "problem.json"),
                            "--tol", "1e-10"], capsys)
        assert code == 0
        assert json.loads(out)["residual_norm"] <= 1e-10

    def test_overflowing_step_prints_no_warning(self, tmp_path):
        # kappa 1e-300 and load 1e300: the released node's step load / kappa
        # overflows, and so does the box's upper end
        write(tmp_path / "graph.json", {
            "nodes": [{"id": "v", "mu": 1.0, "kappa": 1e-300}],
            "adjacencies": []})
        path = write(tmp_path / "problem.json", {
            "graph": "graph.json", "superpotential": ABS_SP,
            "f": {"v": 1e300}})
        proc = run_module("solve-elliptic", "--problem", path)
        assert proc.returncode == 1
        assert proc.stderr == ""   # no RuntimeWarning
        report = json.loads(proc.stdout)
        assert report["trace"][-1]["reason"] == "non-finite"
        assert report["solution"] == {"v": 0}
        assert report["residual_norm"] == 1e300
        assert report["certificates"][0]["rhs"] == "inf"


class TestCertify:
    def test_certificate_document(self, workspace, capsys):
        code, out, _ = run(["certify", "--problem",
                            str(workspace / "problem.json")], capsys)
        assert code == 0
        doc = json.loads(out)
        kinds = [c["kind"] for c in doc["certificates"]]
        assert kinds == ["existence", "uniqueness", "nonexistence"]
        assert doc["constants"]["m_coercive"] == 1.0

    def test_overflowing_root_leaves_the_box_infinite(self, tmp_path, capsys):
        # kappa 1e-300 and load 1e300: the one solution, near 1e600, is past
        # the largest float, so the box is [largest float, inf]: no solution
        # is certified, though the density is monotone and kappa > 0
        write(tmp_path / "graph.json", {
            "nodes": [{"id": "v", "mu": 1.0, "kappa": 1e-300}],
            "adjacencies": []})
        path = write(tmp_path / "problem.json", {
            "graph": "graph.json", "superpotential": ABS_SP,
            "f": {"v": 1e300}})
        code, out, err = run(["certify", "--problem", path], capsys)
        assert (code, err) == (0, "")
        existence, uniqueness, nonexistence = json.loads(out)["certificates"]
        assert (existence["lhs"], existence["rhs"]) == (1.7976931348623157e308,
                                                        "inf")
        assert existence["note"] == ("node v: k t + lo(t) <= f somewhere "
                                     "past every t")
        assert existence["satisfied"] is nonexistence["satisfied"] is False
        assert uniqueness["satisfied"] is True   # rmc 0 < kappa / mu

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("nodes, edges, sp, f, verdicts", [
        # kappa / mu underflows to 0 on a node: its set has no upper end
        ([(1e300, 1e-300), (1.0, 1.0)], [(1.0, 1.0)], ABS_SP, [1.0, 1.0],
         [False, False, False]),
        # m_coercive underflows to 0 on the edge, which the box never reads:
        # kappa / mu = 1 and |t| give the box [0, 0]
        ([(1.0, 1.0), (1.0, 1.0)], [(1e300, 1e-300)], ABS_SP, [1.0, 1.0],
         [True, True, False]),
        # a near-zero conductance, and a nondecreasing density: the box is
        # [0, 9.51], where t + t^2 = 100
        ([(1.0, 1.0)] * 3, [(1.0, 1e-300), (1.0, 1.0)],
         {"breakpoints": [0.0], "pieces": [[0.0], [0.0, 0.0, 1.0]]},
         [0.0, 0.0, 100.0], [True, True, False]),
    ], ids=["node", "edge", "overflow"])
    def test_extreme_range(self, tmp_path, capsys, nodes, edges, sp, f,
                           verdicts):
        # a path: (mu, kappa) per node, (rho, gamma) per edge
        ids = [f"v{i}" for i in range(len(nodes))]
        write(tmp_path / "graph.json", {
            "nodes": [{"id": v, "mu": m, "kappa": k}
                      for v, (m, k) in zip(ids, nodes)],
            "adjacencies": [{"a": a, "b": b, "rho": r, "gamma": c}
                            for a, b, (r, c) in zip(ids, ids[1:], edges)]})
        path = write(tmp_path / "problem.json", {
            "graph": "graph.json", "superpotential": sp,
            "f": dict(zip(ids, f))})
        for command in ("certify", "solve-elliptic"):
            code, out, err = run([command, "--problem", path], capsys)
            assert (code, err) == (0, "")
            certs = json.loads(out)["certificates"]
            assert [c["satisfied"] for c in certs] == verdicts


class TestVerify:
    def test_round_trip(self, workspace, capsys):
        path = str(workspace / "problem.json")
        _, out, _ = run(["solve-elliptic", "--problem", path], capsys)
        phi = json.loads(out)["solution"]
        phi_path = write(workspace / "phi.json", phi)
        code, out, _ = run(["verify", "--problem", path,
                            "--phi", phi_path], capsys)
        assert code == 0
        assert json.loads(out)["residual_norm"] <= 1e-9

    def test_huge_integer(self, workspace, capsys):
        phi_path = write(workspace / "phi.json", {"v": BIG})
        code, _, err = run(["verify", "--problem",
                            str(workspace / "problem.json"),
                            "--phi", phi_path], capsys)
        assert code == 2
        assert err.startswith(f"error: {phi_path}: ")

    def test_wrong_support(self, workspace, capsys):
        phi_path = write(workspace / "phi.json", {"w": 1.0})
        code, _, err = run(["verify", "--problem",
                            str(workspace / "problem.json"),
                            "--phi", phi_path], capsys)
        assert code == 2


class TestSolveParabolic:
    def problem(self, workspace, **extra):
        return write(workspace / "parabolic.json", {
            "graph": "graph.json",
            "superpotential": QUAD_SP,
            "f": {"v": 0.5},
            "parabolic": {"T": 1.0, "steps": 8, "phi0": {"v": 1.0}, **extra},
        })

    def test_trajectory(self, workspace, capsys):
        code, out, _ = run(["solve-parabolic", "--problem",
                            self.problem(workspace)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True
        assert len(doc["times"]) == 9
        assert len(doc["states"]) == 9
        assert doc["states"][0]["v"] == 1.0
        code, out, _ = run(["solve-parabolic", "--problem",
                            self.problem(workspace), "--tol", "1e-10"], capsys)
        assert code == 0
        assert max(json.loads(out)["step_residual_norms"]) <= 1e-10
        code, _, err = run(["solve-parabolic", "--problem",
                            self.problem(workspace), "--tol", "0"], capsys)
        assert code == 2
        assert err == "error: tol must be positive and finite\n"

    def test_f_table_length_mismatch(self, workspace, capsys):
        path = self.problem(workspace, f_table=[{"v": 1.0}] * 3)
        code, _, err = run(["solve-parabolic", "--problem", path], capsys)
        assert code == 2
        assert err.startswith(f"error: {path}: ") and "f_table" in err

    @pytest.mark.parametrize("key, value", [
        ("T", {}), ("T", True), ("steps", 8.5), ("steps", "8"),
        ("f_table", {"v": 1.0}), ("sp_schedule", 3),
        ("sp_schedule", [{"until": {}, "density": QUAD_SP}]),
        ("sp_schedule", [{"until": math.nan, "density": QUAD_SP}]),
        ("T", 1e-320),
        ("steps", 10**17),  # about 711 PiB of trajectory: refused at once
        # beyond numpy's array size: refused before anything is allocated
        pytest.param("steps", 10**30, id="steps-10**30"),
        pytest.param("steps", BIG, id="steps-10**400"),
    ])
    def test_malformed_fields(self, workspace, capsys, key, value):
        path = self.problem(workspace, **{key: value})
        code, _, err = run(["solve-parabolic", "--problem", path], capsys)
        assert code == 2
        assert err.startswith(f"error: {path}: ") and key in err

    @pytest.mark.parametrize("key, value", [
        ("T", BIG), ("phi0", {"v": BIG}), ("f_table", [{"v": 1.0}] * 7
                                           + [{"v": BIG}])],
        ids=["T", "phi0", "f_table"])
    def test_huge_integer(self, workspace, capsys, key, value):
        path = self.problem(workspace, **{key: value})
        code, _, err = run(["solve-parabolic", "--problem", path], capsys)
        assert code == 2
        assert err.startswith(f"error: {path}: ") and key in err

    def test_overflowing_step_prints_no_warning(self, tmp_path):
        # the line search's window lets the residual climb to overflow:
        # exit 1, and nothing but the report
        write(tmp_path / "graph.json", {
            "nodes": [{"id": "a", "mu": 1.0, "kappa": 1.0},
                      {"id": "b", "mu": 15.0, "kappa": 1.0}],
            "adjacencies": [{"a": "a", "b": "b", "rho": 1.0,
                             "gamma": 1.0}]})
        path = write(tmp_path / "parabolic.json", {
            "graph": "graph.json",
            "superpotential": {"breakpoints": [0.0, 1.0],
                               "pieces": [[0.0, 0.0, 1.0], [0.0], [0.0]]},
            "f": {"a": 0.0, "b": -5.0},
            "parabolic": {"T": 1.0, "steps": 1,
                          "phi0": {"a": 0.0, "b": 1.0}}})
        proc = run_module("solve-parabolic", "--problem", path)
        assert (proc.returncode, proc.stderr) == (1, "")
        assert json.loads(proc.stdout)["converged"] is False

    def test_missing_parabolic_section(self, workspace, capsys):
        code, _, err = run(["solve-parabolic", "--problem",
                            str(workspace / "problem.json")], capsys)
        assert code == 2


EXHAUST_DOC = {
    "kind": "lattice-2d",
    "weights": {w: {"formula": "constant", "value": 1.0}
                for w in ("mu", "rho", "gamma", "kappa")},
    "f": {"formula": "root-only", "value": 1.0},
    "superpotential": ABS_SP,
}


class TestExhaust:
    def test_path_study(self, tmp_path, capsys):
        gen_path = write(tmp_path / "gen.json", {
            "kind": "path",
            "weights": {
                "mu": {"formula": "geometric-in-depth", "value": 1.0,
                       "ratio": 0.5},
                "rho": {"formula": "constant", "value": 1.0},
                "gamma": {"formula": "constant", "value": 1.0},
                "kappa": {"formula": "constant", "value": 1.0},
            },
            "f": {"formula": "root-only", "value": 1.0},
            "superpotential": {"breakpoints": [], "pieces": [[0.0]]},
        })
        code, out, _ = run(["exhaust", "--generator", gen_path,
                            "--radii", "2,4,8,16,32", "--eps", "1e-6"],
                           capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True
        assert doc["level_sizes"] == [2, 4, 8, 16, 32]
        assert doc["increments"][-1] < 1e-6

    def test_missing_superpotential(self, tmp_path, capsys):
        gen_path = write(tmp_path / "gen.json", {
            "kind": "path",
            "weights": {
                "mu": {"formula": "constant", "value": 1.0},
                "rho": {"formula": "constant", "value": 1.0},
                "gamma": {"formula": "constant", "value": 1.0},
                "kappa": {"formula": "constant", "value": 1.0},
            },
            "f": {"formula": "constant", "value": 1.0},
        })
        code, _, err = run(["exhaust", "--generator", gen_path], capsys)
        assert code == 2

    def test_bad_radii(self, tmp_path, capsys):
        gen_path = write(tmp_path / "gen.json", {"kind": "path"})
        code, _, err = run(["exhaust", "--generator", gen_path,
                            "--radii", "2;4"], capsys)
        assert code == 2

    @pytest.mark.parametrize("law", [
        pytest.param({"formula": "constant", "value": {}}, id="object"),
        pytest.param({"formula": "constant", "value": True}, id="bool"),
        pytest.param({"formula": "geometric-in-depth", "value": 1.0},
                     id="missing-ratio"),
        pytest.param({"formula": "constant", "value": 1.0, "ratio": 0.5},
                     id="extra-ratio"),
        pytest.param({"formula": "mystery", "value": 1.0}, id="unknown"),
    ])
    @pytest.mark.parametrize("slot", ["mu", "f"])
    def test_malformed_weight_law(self, tmp_path, capsys, law, slot):
        doc = dict(EXHAUST_DOC, weights=dict(EXHAUST_DOC["weights"]))
        if slot == "f":
            doc["f"] = law
        else:
            doc["weights"][slot] = law
        gen_path = write(tmp_path / "gen.json", doc)
        code, _, err = run(["exhaust", "--generator", gen_path,
                            "--radii", "2,4"], capsys)
        assert code == 2
        assert "Traceback" not in err

    def test_directory_as_generator(self, tmp_path, capsys):
        code, _, err = run(["exhaust", "--generator", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error:") and "Is a directory" in err

    @pytest.mark.parametrize("weight, law, radii, message", [
        ("mu", {"formula": "geometric-in-depth", "value": 1.0, "ratio": 0.5},
         "4,1100", "mu at depth 1075: 0.0"),
        ("gamma", {"formula": "geometric-in-depth", "value": 1e300,
                   "ratio": 10.0}, "4,12", "gamma at depth 9: inf"),
    ], ids=["mu-underflow", "gamma-overflow"])
    def test_weight_not_finite_positive_at_depth(self, tmp_path, capsys,
                                                 weight, law, radii,
                                                 message):
        doc = dict(EXHAUST_DOC, kind="path",
                   weights=dict(EXHAUST_DOC["weights"], **{weight: law}))
        gen_path = write(tmp_path / "gen.json", doc)
        code, _, err = run(["exhaust", "--generator", gen_path,
                            "--radii", radii], capsys)
        assert code == 2
        assert err == (f"error: {gen_path}: non-positive or non-finite "
                       f"{message}\n")

    @pytest.mark.parametrize("option", ["--radii=nan", "--radii=2,nan",
                                        "--radii=2,inf", "--radii=-1,2",
                                        "--eps=nan", "--eps=inf"])
    def test_non_finite_radii_or_eps(self, tmp_path, capsys, option):
        gen_path = write(tmp_path / "gen.json", EXHAUST_DOC)
        code, _, err = run(["exhaust", "--generator", gen_path, option],
                           capsys)
        assert code == 2
        assert "radii" in err or "eps" in err
        assert gen_path not in err   # a flag's error names the flag

    def test_laws_checked_before_first_solve(self, tmp_path, capsys):
        # the radius-2 level alone would end cycled (exit 1, as below); the
        # weight laws are checked over the radius-12 ball before it is solved
        doc = dict(EXHAUST_DOC, kind="path",
                   f={"formula": "constant", "value": 5.0},
                   weights=dict(EXHAUST_DOC["weights"], gamma={
                       "formula": "geometric-in-depth", "value": 1e300,
                       "ratio": 10.0}))
        gen_path = write(tmp_path / "gen.json", doc)
        code, out, err = run(["exhaust", "--generator", gen_path,
                              "--radii", "2,12"], capsys)
        assert code == 2
        assert out == ""
        assert err == (f"error: {gen_path}: non-positive or non-finite gamma "
                       "at depth 9: inf\n")

    def test_load_not_finite_at_depth(self, tmp_path, capsys):
        # 1e300 * 10.0 ** 9 is inf without an OverflowError
        doc = dict(EXHAUST_DOC, kind="path", f={
            "formula": "geometric-in-depth", "value": 1e300, "ratio": 10.0})
        gen_path = write(tmp_path / "gen.json", doc)
        code, out, err = run(["exhaust", "--generator", gen_path,
                              "--radii", "12"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {gen_path}: non-finite f at depth 9: inf\n"

    def test_subnormal_mu_prints_no_warning(self, tmp_path):
        # mu = 0.5 ** 1074 at depth 1074 is subnormal: kappa / mu overflows
        doc = dict(EXHAUST_DOC, kind="path", weights=dict(
            EXHAUST_DOC["weights"], mu={"formula": "geometric-in-depth",
                                        "value": 1.0, "ratio": 0.5}))
        gen_path = write(tmp_path / "gen.json", doc)
        proc = run_module("exhaust", "--generator", gen_path,
                          "--radii", "4,1075")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["level_sizes"] == [4, 1075]

    def test_load_near_the_largest_float(self, tmp_path):
        # finite loads 1e300 and 1e301 on the first level: their squares
        # overflow unless the norms and CG scale them first
        doc = dict(EXHAUST_DOC, kind="path", f={
            "formula": "geometric-in-depth", "value": 1e300, "ratio": 10.0})
        gen_path = write(tmp_path / "gen.json", doc)
        proc = run_module("exhaust", "--generator", gen_path,
                          "--radii", "2,4,8")
        assert proc.stderr == ""   # no RuntimeWarning
        norm = json.loads(proc.stdout)["final_residual_norm"]
        assert isinstance(norm, float) and math.isfinite(norm)

    def test_linear_solve_breakdown(self, tmp_path, capsys):
        # conductances near 1e300 make p @ Ap underflow to 0 in the CG loop:
        # a non-convergence report, not a ZeroDivisionError
        doc = dict(EXHAUST_DOC, kind="path",
                   f={"formula": "constant", "value": 5.0},
                   weights=dict(EXHAUST_DOC["weights"], gamma={
                       "formula": "geometric-in-depth", "value": 1e300,
                       "ratio": 10.0}))
        gen_path = write(tmp_path / "gen.json", doc)
        code, out, err = run(["exhaust", "--generator", gen_path,
                              "--radii", "2,4,8"], capsys)
        assert code == 1
        assert err == ""
        report = json.loads(out)
        assert report["converged"] is False
        assert report["level_sizes"] == [2]


# the faults of an input file: its text, or None for a missing file
FILE_FAULTS = {"missing": None, "invalid-json": b"{not json",
               "not-utf8": b'{"v": "\xff"}'}


class TestInputFiles:
    """Every file a command reads, and every fault of one, gives one error
    line that names the file."""

    @pytest.mark.parametrize("fault", FILE_FAULTS)
    @pytest.mark.parametrize("name", ["problem", "graph", "superpotential",
                                      "phi", "generator"])
    def test_fault_names_the_file(self, tmp_path, capsys, name, fault):
        # verify reads a problem, its graph and superpotential files and
        # --phi; exhaust reads the generator.  file -> (path, error name)
        problem = write(tmp_path / "problem.json", {
            "graph": "graph.json", "superpotential": "sp.json",
            "f": {"v": 2.0}})
        files = {"problem": (problem, problem),
                 "graph": (write(tmp_path / "graph.json", GRAPH),
                           "graph.json"),   # as the problem names it
                 "superpotential": (write(tmp_path / "sp.json", ABS_SP),) * 2,
                 "phi": (write(tmp_path / "phi.json", {"v": 1.0}),) * 2,
                 "generator": (write(tmp_path / "gen.json", EXHAUST_DOC),) * 2}
        argv = (["exhaust", "--generator", files["generator"][0],
                 "--radii", "2"] if name == "generator" else
                ["verify", "--problem", problem, "--phi", files["phi"][0]])
        assert run(argv, capsys)[0] == 0
        path, shown = files[name]
        os.remove(path)
        if FILE_FAULTS[fault] is not None:
            with open(path, "wb") as fh:
                fh.write(FILE_FAULTS[fault])
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {shown}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        if fault == "invalid-json":
            assert "invalid JSON (" in err

    @pytest.mark.parametrize("where", ["problem", "file", "generator"])
    def test_bad_superpotential_names_its_source(self, tmp_path, capsys,
                                                 where):
        bad = {"breakpoints": [0.0], "pieces": [[1.0]]}
        if where == "generator":
            path = shown = write(tmp_path / "gen.json",
                                 dict(EXHAUST_DOC, superpotential=bad))
            argv = ["exhaust", "--generator", path]
        else:
            write(tmp_path / "graph.json", GRAPH)
            sp = bad if where == "problem" else "sp.json"
            shown = path = write(tmp_path / "problem.json", {
                "graph": "graph.json", "superpotential": sp, "f": {"v": 1.0}})
            argv = ["solve-elliptic", "--problem", path]
            if where == "file":
                shown = write(tmp_path / "sp.json", bad)
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        if where != "file":   # inline: the field of the file names it
            shown += ": superpotential"
        assert err == f"error: {shown}: need len(breakpoints) + 1 pieces\n"


class _ModuleView:
    """Stands in for a module under one caller's name, as the benchmark's
    tracer does, so that a module's calls to itself are not counted."""

    def __init__(self, module, **replace):
        self._module = module
        self.__dict__.update(replace)

    def __getattr__(self, name):
        return getattr(self._module, name)


@pytest.mark.parametrize("command, extra", [
    ("solve-elliptic", {}),
    ("solve-parabolic", {"parabolic": {"T": 1.0, "steps": 4,
                                       "phi0": {"v": 0.0}}}),
])
def test_one_load_and_one_render_per_operation(workspace, capsys,
                                               monkeypatch, command, extra):
    """The benchmark times ``graphs.load`` and ``reports.render`` by spans
    around ``graphhvi.cli.load_graph`` and ``graphhvi.cli.reports.render_json``:
    each must be called exactly once per operation."""
    calls = {"load": 0, "render": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    cli = graphhvi.cli
    monkeypatch.setattr(cli, "load_graph", counting("load", cli.load_graph))
    monkeypatch.setattr(cli, "reports", _ModuleView(
        cli.reports, render_json=counting("render", cli.reports.render_json)))
    path = write(workspace / "op.json", {
        "graph": "graph.json", "superpotential": QUAD_SP, "f": {"v": 1.0},
        **extra})
    for _ in range(2):
        code, _, _ = run([command, "--problem", path,
                          "--out", str(workspace / "out.json")], capsys)
        assert code == 0
    assert calls == {"load": 2, "render": 2}


@pytest.mark.parametrize("command, printed", [("solve-elliptic", 1),
                                              ("solve-parabolic", 0),
                                              ("exhaust", 0)])
def test_certify_only_for_a_report_that_prints_it(workspace, capsys,
                                                  monkeypatch, command,
                                                  printed):
    """``solve-elliptic`` certifies its problem and takes its solution's
    norms once each, through ``graphhvi.solvers.certify`` and
    ``graphhvi.solvers.sobolev_norms`` (the benchmark's ``solvers.certify``
    and ``calculus.norms`` spans); ``solve-parabolic`` and ``exhaust`` report
    neither and compute neither."""
    calls = {"certify": 0, "sobolev_norms": 0}

    def counting(name):
        fn = getattr(graphhvi.solvers, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(graphhvi.solvers, name, counting(name))
    code, out, _ = run([command, *TestEntryPoint.argv(workspace, command)],
                       capsys)
    assert code == 0
    assert calls == {"certify": printed, "sobolev_norms": printed}
    doc = json.loads(out)
    assert ("certificates" in doc) == ("norms" in doc) == bool(printed)
    if printed:
        g = gh.load_graph(str(workspace / "graph.json"))
        phi = gh.node_function(g, doc["solution"])
        assert doc["norms"] == dataclasses.asdict(gh.sobolev_norms(g, phi))


class TestEntryPoint:
    @staticmethod
    def argv(workspace, command):
        problem = str(workspace / "problem.json")
        return {
            "validate": ["--graph", str(workspace / "graph.json")],
            "certify": ["--problem", problem],
            "solve-elliptic": ["--problem", problem],
            "solve-parabolic": ["--problem", write(
                workspace / "parabolic.json", {
                    "graph": "graph.json", "superpotential": QUAD_SP,
                    "f": {"v": 0.5},
                    "parabolic": {"T": 1.0, "steps": 2, "phi0": {"v": 0.0}}})],
            "verify": ["--problem", problem,
                       "--phi", write(workspace / "phi.json", {"v": 1.0})],
            "exhaust": ["--generator", write(workspace / "gen.json",
                                             EXHAUST_DOC), "--radii", "2,3"],
        }[command]

    @pytest.mark.parametrize("command", ["validate", "certify",
                                         "solve-elliptic", "solve-parabolic",
                                         "verify", "exhaust"])
    def test_machine_report_starts_with_schema_version(self, workspace,
                                                       capsys, command):
        code, out, err = run([command, *self.argv(workspace, command)],
                             capsys)
        assert (code, err) == (0, "")
        assert out.startswith('{\n  "schema_version": 3,\n')

    def test_no_command_imports_csgraph(self, workspace):
        # scipy's graph module is slow to import; only
        # graphs.distances_from loads it, and no command calls that
        argvs = [[command, *self.argv(workspace, command),
                  "--out", str(workspace / f"{command}.json")]
                 for command in graphhvi.cli.COMMANDS]
        proc = run_python("-c", CSGRAPH_PROBE, json.dumps(argvs))
        if proc.returncode == 3:
            pytest.skip("a bare import of scipy.sparse loads csgraph "
                        "with this scipy")
        assert (proc.returncode, proc.stderr) == (0, "")
        codes, loaded, ball = json.loads(proc.stdout)
        assert codes == [0] * len(argvs)
        assert loaded is False
        assert ball == ["a", "b"]

    def test_scipy_loaded_only_to_assemble(self, workspace):
        # only a linear solve on the assembled K + C needs scipy: import,
        # validate, certify, --help and an input rejection load none of it
        def probe(*argvs):
            proc = run_python("-c", FOOTPRINT_PROBE, json.dumps(argvs))
            assert proc.returncode == 0, proc.stderr
            return proc.stderr, json.loads(proc.stdout)

        bad = write(workspace / "bad.json", {"graph": "graph.json",
                                             "superpotential": ABS_SP,
                                             "f": {}})   # misses node v
        out = str(workspace / "report.json")
        err, rows = probe(["validate", *self.argv(workspace, "validate"),
                           "--out", out],
                          ["certify", *self.argv(workspace, "certify"),
                           "--out", out],
                          ["--help"],
                          ["solve-elliptic", "--problem", bad, "--out", out])
        assert err.startswith(f"error: {bad}: load f:")
        assert [row[:2] for row in rows] == [[None, False], [None, False],
                                             [0, False], [0, False],
                                             [0, False], [2, False]]
        assert [row[2] for row in rows[:3]] == [False] * 3
        # the probe sees scipy where a command assembles the operator
        for command in ("solve-elliptic", "solve-parabolic", "verify",
                        "exhaust"):
            err, rows = probe([command, *self.argv(workspace, command),
                               "--out", out])
            assert (err, [row[:2] for row in rows]) == (
                "", [[None, False], [None, False], [0, True]])

    def test_parser_built_once_per_process(self, workspace, capsys,
                                           monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for _ in range(2):
            code, _, _ = run(["validate", *self.argv(workspace, "validate")],
                             capsys)
            assert code == 0
        assert built == []

    def test_utf8_files_under_an_ascii_locale(self, tmp_path):
        # JSON files are UTF-8 (RFC 8259), and so is a report written with
        # --out, whatever the locale's encoding
        doc = dict(GRAPH, nodes=[{"id": "\u00e9", "mu": 1.0, "kappa": 1.0}])
        (tmp_path / "graph.json").write_bytes(
            json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        (tmp_path / "problem.json").write_bytes(json.dumps(
            {"graph": "graph.json", "superpotential": ABS_SP,
             "f": {"\u00e9": 2.0}}, ensure_ascii=False).encode("utf-8"))
        proc = run_module("validate", "--graph", str(tmp_path / "graph.json"),
                          env=ASCII_LOCALE)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["degrees"] == {"\u00e9": 0.0}
        out = tmp_path / "report.txt"
        proc = run_module("solve-elliptic", "--problem",
                          str(tmp_path / "problem.json"), "--format", "human",
                          "--out", str(out), env=ASCII_LOCALE)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        assert "  \u00e9: 1.0\n".encode("utf-8") in out.read_bytes()

    def test_python_m_entry_point(self, workspace, capsys):
        argv = ["validate", *self.argv(workspace, "validate")]
        _, out, _ = run(argv, capsys)
        proc = run_module(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")
        bad = write(workspace / "bad.json", {**GRAPH, "color": "blue"})
        proc = run_module("validate", "--graph", bad)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1
