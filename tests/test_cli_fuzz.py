"""Hypothesis fuzz of the command-line exit-code contract.

A generated graph and problem document (``solve-elliptic``), problem
document with a parabolic section (``solve-parabolic``), or generator
document (``exhaust``), is valid, or malformed in one slot: a number
replaced by an object, a list, NaN, an infinity, a bool, a string or null,
a section replaced by a non-section, an unknown or missing key, an
unknown formula or kind, or a parabolic time step too small for the
graph.  A float slot may also get an integer too large for a float.
``cli.main`` must return 0 or 1 for a valid document and 2 for a
malformed one, and never raise.
"""

import json
import math
import os
import tempfile

from hypothesis import given, settings, strategies as st

from graphhvi.cli import main

NOT_NUMBERS = [{}, {"x": 1.0}, [], [1.0], math.nan, math.inf, -math.inf,
               True, False, "1.0", None]
# for a float slot, also a JSON integer that no float can hold
NOT_FLOATS = NOT_NUMBERS + [10 ** 400]
# values that are never a valid node map, density list or solver section
NOT_SECTIONS = [{"x": 1.0}, math.nan, math.inf, True, "1.0", None, 2.0]


def _parent(docs, path):
    for k in path[:-1]:
        docs = docs[k]
    return docs


def _set(path, value):
    def apply(docs):
        _parent(docs, path)[path[-1]] = value
    return apply


def _delete(path):
    def apply(docs):
        del _parent(docs, path)[path[-1]]
    return apply


def _density(draw):
    bps = sorted(set(draw(st.lists(st.floats(-2, 2), max_size=2))))
    pieces = [draw(st.lists(st.floats(-10, 10), min_size=1, max_size=3))
              for _ in range(len(bps) + 1)]
    return {"breakpoints": bps, "pieces": pieces}


def _graph(draw):
    """(node ids, graph document): a path of 1 to 3 nodes."""
    n = draw(st.integers(1, 3))
    ids = [f"v{i}" for i in range(n)]
    weight = st.floats(1e-3, 1e3)
    graph = {"nodes": [{"id": v, "mu": draw(weight), "kappa": draw(weight)}
                       for v in ids],
             "adjacencies": [{"a": ids[i], "b": ids[i + 1],
                              "rho": draw(weight), "gamma": draw(weight)}
                             for i in range(n - 1)]}
    return ids, graph


def _run(command, graph, problem, root):
    """Write ``graph.json`` and ``problem.json`` under ``root`` and run
    ``command`` on the problem."""
    for name, doc in (("graph.json", graph), ("problem.json", problem)):
        with open(os.path.join(root, name), "w") as fh:
            json.dump(doc, fh)
    return main([command, "--problem", os.path.join(root, "problem.json"),
                 "--out", os.path.join(root, "report.json")])


@st.composite
def cases(draw):
    """(graph, problem, malformed) with at most one malformed slot."""
    ids, graph = _graph(draw)
    n = len(ids)
    density = _density(draw)
    problem = {"graph": "graph.json",
               "superpotential": density,
               "f": {v: draw(st.floats(-100, 100)) for v in ids},
               "solver": {"tol": draw(st.floats(1e-12, 1.0)),
                          "max_inner": draw(st.integers(0, 50))}}
    docs = {"graph": graph, "problem": problem}

    bad = st.sampled_from(NOT_FLOATS)
    section = st.sampled_from(NOT_SECTIONS)
    slots = [
        _set(("problem", "f", ids[-1]), draw(bad)),
        _set(("problem", "f", "ghost"), 1.0),
        _set(("problem", "f"), draw(section)),
        _set(("graph", "nodes", 0, draw(st.sampled_from(["mu", "kappa"]))),
             draw(bad)),
        _set(("graph", "nodes", 0, "color"), 1.0),
        _set(("problem", "superpotential", "pieces", 0, 0), draw(bad)),
        _set(("problem", "superpotential", "pieces"), draw(section)),
        _set(("problem", "superpotential", "scale"), 1.0),
        _set(("problem", "solver", "tol"), draw(bad)),
        # a huge int is a valid max_inner
        _set(("problem", "solver", "max_inner"),
             draw(st.sampled_from(NOT_NUMBERS))),
        _set(("problem", "solver", "max_inner"), 1.5),
        _set(("problem", "solver", "h_schedule"), [0.1]),
        _set(("problem", "solver"), draw(section)),
    ]
    if n > 1:
        slots.append(_set(("graph", "adjacencies", 0,
                           draw(st.sampled_from(["rho", "gamma"]))),
                          draw(bad)))
    if density["breakpoints"]:
        slots.append(_set(("problem", "superpotential", "breakpoints", 0),
                          draw(bad)))
    choice = draw(st.integers(-1, len(slots) - 1))
    if choice >= 0:
        slots[choice](docs)
    return graph, problem, choice >= 0


@settings(deadline=None, max_examples=200)
@given(cases())
def test_exit_code_contract(case):
    graph, problem, malformed = case
    with tempfile.TemporaryDirectory() as root:
        code = _run("solve-elliptic", graph, problem, root)
    if malformed:
        assert code == 2
    else:
        assert code in (0, 1)


@st.composite
def parabolic_cases(draw):
    """(graph, problem, malformed) for ``solve-parabolic``, with at most
    one malformed slot in the parabolic section."""
    ids, graph = _graph(draw)
    steps = draw(st.integers(1, 4))
    node_map = st.fixed_dictionaries({v: st.floats(-10, 10) for v in ids})
    parabolic = {"T": draw(st.floats(1e-3, 10.0)), "steps": steps,
                 "phi0": draw(node_map)}
    if draw(st.booleans()):
        parabolic["f_table"] = [draw(node_map) for _ in range(steps)]
    if draw(st.booleans()):
        parabolic["sp_schedule"] = [
            {"until": 0.5, "density": _density(draw)},
            {"until": 1.0, "density": _density(draw)}]
    problem = {"graph": "graph.json", "superpotential": _density(draw),
               "f": draw(node_map), "parabolic": parabolic}
    docs = {"problem": problem}

    bad = st.sampled_from(NOT_FLOATS)
    section = st.sampled_from(NOT_SECTIONS)
    par = ("problem", "parabolic")
    slots = [
        # 1e-320 / steps is a step so small that mu / tau overflows
        _set((*par, "T"), draw(st.sampled_from(NOT_FLOATS
                                               + [0.0, -1.0, 1e-320]))),
        _set((*par, "steps"), draw(st.sampled_from(NOT_NUMBERS
                                                   + [0, -1, 1.5]))),
        _set((*par, "phi0", ids[-1]), draw(bad)),
        _set((*par, "phi0", "ghost"), 1.0),
        _set((*par, "phi0"), draw(section)),
        _delete((*par, draw(st.sampled_from(["T", "steps", "phi0"])))),
        _set((*par, "dt"), 0.1),
        _set((*par, "f_table"), draw(section)),
        _set((*par, "f_table"), [dict.fromkeys(ids, 1.0)] * (steps + 1)),
        _set((*par, "sp_schedule"), draw(st.sampled_from(NOT_SECTIONS
                                                         + [[]]))),
        _set(par, draw(section)),
    ]
    if "f_table" in parabolic:
        row = draw(st.integers(0, steps - 1))
        slots += [_set((*par, "f_table", row, ids[0]), draw(bad)),
                  _set((*par, "f_table", row), draw(section))]
    if "sp_schedule" in parabolic:
        entry = (*par, "sp_schedule", draw(st.integers(0, 1)))
        slots += [_set((*entry, "until"), draw(bad)),
                  _set((*par, "sp_schedule", 1, "until"), 0.25),
                  _set((*entry, "density", "pieces", 0, 0), draw(bad)),
                  _set((*entry, "density"), draw(section)),
                  _set((*entry, "scale"), 1.0)]
    choice = draw(st.integers(-1, len(slots) - 1))
    if choice >= 0:
        slots[choice](docs)
    return graph, problem, choice >= 0


@settings(deadline=None, max_examples=100)
@given(parabolic_cases())
def test_parabolic_exit_code_contract(case):
    graph, problem, malformed = case
    with tempfile.TemporaryDirectory() as root:
        code = _run("solve-parabolic", graph, problem, root)
    if malformed:
        assert code == 2
    else:
        assert code in (0, 1)


# parameter ranges that keep every ball of radius 2 small (at most 127 nodes)
LAW_PARAMS = {"constant": {},
              "geometric-in-depth": {"ratio": st.floats(0.9, 1.1)},
              "power-in-depth": {"exponent": st.floats(-0.5, 0.5)}}


def _law(draw, formulas):
    formula = draw(st.sampled_from(formulas))
    extra = LAW_PARAMS.get(formula, {})
    return {"formula": formula, "value": draw(st.floats(0.5, 2.0)),
            **{k: draw(v) for k, v in extra.items()}}


@st.composite
def generator_cases(draw):
    """(generator document, CLI args, malformed) with at most one
    malformed slot."""
    weights = {w: _law(draw, sorted(LAW_PARAMS))
               for w in ("mu", "rho", "gamma", "kappa")}
    doc = {"kind": draw(st.sampled_from(["path", "binary-tree",
                                         "lattice-2d"])),
           "weights": weights,
           "f": _law(draw, sorted(LAW_PARAMS) + ["root-only"]),
           "superpotential": _density(draw)}
    args = {"radii": draw(st.sampled_from(["1,2", "0.5,1.5,2", "2"])),
            "eps": "1e-6"}
    docs = {"doc": doc, "args": args}

    bad = st.sampled_from(NOT_FLOATS)
    name = draw(st.sampled_from(["mu", "rho", "gamma", "kappa"]))
    law = ("doc", "weights", name)
    param = draw(st.sampled_from(sorted(set(weights[name]) - {"formula"})))
    f_param = draw(st.sampled_from(sorted(set(doc["f"]) - {"formula"})))
    not_formula = draw(st.sampled_from(["mystery", [], {}, None, 1.0]))
    slots = [
        _set((*law, param), draw(bad)),
        _set(("doc", "f", f_param), draw(bad)),
        _delete((*law, param)),
        _delete(("doc", "f", "value")),
        _set((*law, draw(st.sampled_from(sorted(
            {"ratio", "exponent", "scale"} - set(weights[name]))))), 1.0),
        _set(("doc", "f", "scale"), 1.0),
        _set((*law, "formula"), not_formula),
        _set(("doc", "f", "formula"), not_formula),
        _set((*law, "formula"), "root-only"),
        _set((*law, "value"), draw(st.sampled_from([0.0, -1.0]))),
        _set(law, draw(st.sampled_from(NOT_SECTIONS))),
        _set(("doc", "kind"), draw(st.sampled_from(["hexagon", None, [],
                                                     1.0]))),
        _set(("args", "radii"), draw(st.sampled_from(
            ["nan", "2,nan", "inf", "0,1", "-1,2", "2,1", "2;4"]))),
        _set(("args", "eps"), draw(st.sampled_from(["nan", "inf", "0",
                                                    "-1e-6"]))),
    ]
    choice = draw(st.integers(-1, len(slots) - 1))
    if choice >= 0:
        slots[choice](docs)
    return doc, args, choice >= 0


@settings(deadline=None, max_examples=100)
@given(generator_cases())
def test_exhaust_exit_code_contract(case):
    doc, args, malformed = case
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "generator.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code = main(["exhaust", "--generator", path,
                     f"--radii={args['radii']}", f"--eps={args['eps']}",
                     "--out", os.path.join(root, "report.json")])
    if malformed:
        assert code == 2
    else:
        assert code in (0, 1)
