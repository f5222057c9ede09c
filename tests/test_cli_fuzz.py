"""Hypothesis fuzz of the command-line exit-code contract.

A generated graph and problem document is valid, or malformed in one slot:
a number replaced by an object, a list, NaN, an infinity, a bool, a string
or null, a section replaced by a non-section, or an unknown key.
``cli.main`` must return 0 or 1 for a valid document and 2 for a malformed
one, and never raise.
"""

import json
import math
import os
import tempfile

from hypothesis import given, settings, strategies as st

from graphhvi.cli import main

NOT_NUMBERS = [{}, {"x": 1.0}, [], [1.0], math.nan, math.inf, -math.inf,
               True, False, "1.0", None]
# values that are never a valid node map, density list or solver section
NOT_SECTIONS = [{"x": 1.0}, math.nan, math.inf, True, "1.0", None, 2.0]


def _set(path, value):
    def apply(docs):
        *keys, last = path
        obj = docs
        for k in keys:
            obj = obj[k]
        obj[last] = value
    return apply


@st.composite
def cases(draw):
    """(graph, problem, malformed) with at most one malformed slot."""
    n = draw(st.integers(1, 3))
    ids = [f"v{i}" for i in range(n)]
    weight = st.floats(1e-3, 1e3)
    graph = {"nodes": [{"id": v, "mu": draw(weight), "kappa": draw(weight)}
                       for v in ids],
             "adjacencies": [{"a": ids[i], "b": ids[i + 1],
                              "rho": draw(weight), "gamma": draw(weight)}
                             for i in range(n - 1)]}
    bps = sorted(set(draw(st.lists(st.floats(-2, 2), max_size=2))))
    pieces = [draw(st.lists(st.floats(-10, 10), min_size=1, max_size=3))
              for _ in range(len(bps) + 1)]
    problem = {"graph": "graph.json",
               "superpotential": {"breakpoints": bps, "pieces": pieces},
               "f": {v: draw(st.floats(-100, 100)) for v in ids},
               "solver": {"tol": draw(st.floats(1e-12, 1.0)),
                          "max_inner": draw(st.integers(0, 50))}}
    docs = {"graph": graph, "problem": problem}

    bad = st.sampled_from(NOT_NUMBERS)
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
        _set(("problem", "solver",
              draw(st.sampled_from(["tol", "max_inner"]))), draw(bad)),
        _set(("problem", "solver", "max_inner"), 1.5),
        _set(("problem", "solver", "h_schedule"), [0.1]),
        _set(("problem", "solver"), draw(section)),
    ]
    if n > 1:
        slots.append(_set(("graph", "adjacencies", 0,
                           draw(st.sampled_from(["rho", "gamma"]))),
                          draw(bad)))
    if bps:
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
        for name, doc in (("graph.json", graph), ("problem.json", problem)):
            with open(os.path.join(root, name), "w") as fh:
                json.dump(doc, fh)
        code = main(["solve-elliptic", "--problem",
                     os.path.join(root, "problem.json"),
                     "--out", os.path.join(root, "report.json")])
    if malformed:
        assert code == 2
    else:
        assert code in (0, 1)
