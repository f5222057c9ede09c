"""Command-line front end.

Commands: validate, certify, solve-elliptic, solve-parabolic, verify,
exhaust.  All referenced files are loaded and validated before any
computation starts; reports are written atomically.  Exit codes: 0
success, 1 solver non-convergence, 2 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import exhaustion, operators, reports, solvers, superpotential
from .calculus import lp_norm_nodes
from .graphs import (NodeTable, _read_json, degrees, load_graph,
                     node_function, volume)


_PROBLEM_KEYS = {"graph", "superpotential", "f", "parabolic", "solver"}
_PARABOLIC_KEYS = {"T", "steps", "phi0", "f_table", "sp_schedule"}
_SOLVER_KEYS = {"tol", "max_inner"}


def _checked(what: str, fn, *args):
    """``fn(*args)``; a read, JSON or value error from it names ``what``."""
    try:
        return fn(*args)
    except OSError as exc:
        raise ValueError(f"{what}: cannot read ({exc.strerror})") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what}: invalid JSON ({exc})") from exc
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc


def _load_superpotential(doc, path: str):
    """Inline object in the file ``path``, or a path relative to its
    directory; an error names the field or that file."""
    what = f"{path}: superpotential"
    if isinstance(doc, str):
        what = os.path.join(os.path.dirname(os.path.abspath(path)), doc)
        doc = _checked(what, _read_json, what)
    return _checked(what, superpotential.from_document, doc)


def load_problem(path: str, tol: float | None = None):
    """Parse a problem file; returns (graph, sp, f, parabolic dict or None,
    SolverOptions).  ``tol``, when given, overrides the file's
    ``solver.tol``."""
    doc = _checked(path, _read_json, path)
    base = os.path.dirname(os.path.abspath(path))
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: problem document must be an object")
    extra = set(doc) - _PROBLEM_KEYS
    if extra:
        raise ValueError(f"{path}: unknown keys {sorted(extra)}")
    for key in ("graph", "superpotential", "f"):
        if key not in doc:
            raise ValueError(f"{path}: missing required key {key!r}")
    if not isinstance(doc["graph"], str):
        raise ValueError(f"{path}: 'graph' must be a file name")
    g = _checked(doc["graph"], load_graph, os.path.join(base, doc["graph"]))
    sp = _load_superpotential(doc["superpotential"], path)
    f = _checked(f"{path}: load f", node_function, g, doc["f"])

    solver = doc.get("solver", {})
    if not isinstance(solver, dict) or set(solver) - _SOLVER_KEYS:
        raise ValueError(f"{path}: malformed 'solver' section")
    opts = _checked(f"{path}: solver options",
                    lambda: solvers.SolverOptions(**solver))

    parabolic = doc.get("parabolic")
    if parabolic is not None:
        if not isinstance(parabolic, dict) or set(parabolic) - _PARABOLIC_KEYS:
            raise ValueError(f"{path}: malformed 'parabolic' section")
        for key in ("T", "steps", "phi0"):
            if key not in parabolic:
                raise ValueError(f"{path}: parabolic section missing {key!r}")
    if tol is not None:
        opts = dataclasses.replace(opts, tol=tol)
    return g, sp, f, parabolic, opts


def _emit(doc: dict, args, title: str) -> None:
    if args.format == "machine":   # the newline apart: no copy of the report
        parts = (reports.render_json(doc), "\n")
    else:
        parts = (reports.render_human(doc, title),)
    if not args.out:
        sys.stdout.writelines(parts)
        return
    try:
        reports.write_atomic(args.out, *parts)
    except OSError as exc:   # its own message may name the temp file
        raise ValueError(f"{args.out}: cannot write ({exc.strerror})") from exc


def cmd_validate(args) -> tuple[dict, int]:
    g = _checked(args.graph, load_graph, args.graph)
    return {
        "num_nodes": g.num_nodes,
        "num_directed_edges": g.num_edges,
        "mu_total": g.mu_total,
        "volume_rho": volume(g),
        "degrees": NodeTable(g, degrees(g)),
        "constants": dataclasses.asdict(operators.constants(g)),
    }, 0


def cmd_certify(args) -> tuple[dict, int]:
    g, sp, f, _, _ = load_problem(args.problem)
    certs = solvers.certify(solvers.EllipticProblem(g, sp, f))
    return {
        "certificates": [dataclasses.asdict(c) for c in certs],
        "constants": dataclasses.asdict(operators.constants(g)),
    }, 0


def cmd_solve_elliptic(args) -> tuple[dict, int]:
    g, sp, f, _, opts = load_problem(args.problem, args.tol)
    problem = solvers.EllipticProblem(g, sp, f)
    rep = solvers.solve_elliptic(problem, opts)
    return {
        "converged": rep.converged,
        "residual_norm": rep.residual_norm,
        "solution": NodeTable(g, rep.phi),
        "xi": NodeTable(g, rep.xi),
        "residual": NodeTable(g, rep.inclusion_residual),
        "norms": dataclasses.asdict(solvers.sobolev_norms(g, rep.phi)),
        "constants": dataclasses.asdict(operators.constants(g)),
        "certificates": [dataclasses.asdict(c)
                         for c in solvers.certify(problem)],
        "trace": rep.iterations,
    }, 0 if rep.converged else 1


def cmd_solve_parabolic(args) -> tuple[dict, int]:
    g, sp, f, parabolic, opts = load_problem(args.problem, args.tol)
    if parabolic is None:
        raise ValueError(f"{args.problem}: missing 'parabolic' section")
    path = args.problem
    phi0 = _checked(f"{path}: phi0", node_function, g, parabolic["phi0"])
    if "f_table" in parabolic:
        table = parabolic["f_table"]
        if not isinstance(table, list):
            raise ValueError(f"{path}: f_table must be a list of loads")
        f = np.array([_checked(f"{path}: f_table[{k}]", node_function, g, row)
                      for k, row in enumerate(table)])
    if "sp_schedule" in parabolic:
        sp = _checked(f"{path}: sp_schedule",
                      superpotential.schedule_from_document,
                      parabolic["sp_schedule"])
    res = _checked(f"{path}: parabolic", lambda: solvers.solve_parabolic(
        solvers.ParabolicProblem(g, sp, f, phi0, parabolic["T"],
                                 parabolic["steps"]), opts))
    return {
        "converged": res.converged,
        "times": res.times.tolist(),
        "states": [NodeTable(g, row) for row in res.states],
        "step_residual_norms": [r.residual_norm for r in res.reports],
        "constants": dataclasses.asdict(res.constants),
    }, 0 if res.converged else 1


def cmd_verify(args) -> tuple[dict, int]:
    g, sp, f, _, _ = load_problem(args.problem)
    phi = _checked(args.phi, lambda: node_function(g, _read_json(args.phi)))
    resid = solvers.verify_inclusion(g, sp, phi, f)
    return {
        "residual_norm": lp_norm_nodes(g, resid, 2.0),
        "residual": NodeTable(g, resid),
    }, 0


def cmd_exhaust(args) -> tuple[dict, int]:
    doc = _checked(args.generator, _read_json, args.generator)
    gen, f_law = _checked(args.generator,
                          exhaustion.generator_from_document, doc)
    if "superpotential" not in doc:
        raise ValueError(f"{args.generator}: missing 'superpotential'")
    sp = _load_superpotential(doc["superpotential"], args.generator)
    radii = _checked(f"bad --radii list {args.radii!r}",
                     lambda: [float(r) for r in args.radii.split(",")])
    exhaustion._study_levels(radii, args.eps)   # their errors name no file
    # a law may fail past the depths that parsing checked
    rep = _checked(args.generator, exhaustion.exhaust, gen, sp, f_law, radii,
                   args.eps)
    return {
        "converged": rep.converged,
        "radii": rep.radii,
        "level_sizes": [g.num_nodes for g in rep.graphs],
        "increments": rep.increments,
        "tail_masses": rep.tail_masses,
        "final_solution": NodeTable(rep.graphs[-1], rep.solutions[-1].phi),
        "final_residual_norm": rep.solutions[-1].residual_norm,
    }, 0 if rep.solutions[-1].converged else 1


_PROBLEM = ("--problem", {"required": True})
_TOL = ("--tol", {"type": float, "default": None})
_COMMON = [("--out", {"default": None,
                      "help": "report output path (default: stdout)"}),
           ("--format", {"choices": ("human", "machine"),
                         "default": "machine"})]

# command -> (help, human-report title, handler, its own flags)
COMMANDS = {
    "validate": ("validate a graph file", "graph validation", cmd_validate,
                 [("--graph", {"required": True})]),
    "certify": ("existence/uniqueness certificates", "certificates",
                cmd_certify, [_PROBLEM]),
    "solve-elliptic": ("solve the elliptic inclusion", "elliptic solve",
                       cmd_solve_elliptic, [_PROBLEM, _TOL]),
    "solve-parabolic": ("implicit-Euler time stepping", "parabolic solve",
                        cmd_solve_parabolic, [_PROBLEM, _TOL]),
    "verify": ("check a candidate solution", "inclusion verification",
               cmd_verify, [_PROBLEM, ("--phi", {
                   "required": True, "help": "JSON map node -> value"})]),
    "exhaust": ("solve on growing ball truncations", "exhaustion study",
                cmd_exhaust, [("--generator", {"required": True}),
                              ("--radii", {"default": "2,4,8,16,32"}),
                              ("--eps", {"type": float, "default": 1e-6})]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphhvi",
        description="Hemivariational inequality solver on weighted graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in [*flags, *_COMMON]:
            p.add_argument(flag, **kwargs)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    _, title, handler, _ = COMMANDS[args.command]
    try:
        doc, code = handler(args)
        _emit({"schema_version": reports.SCHEMA_VERSION, **doc}, args, title)
    except (ValueError, OSError) as exc:  # GraphFormatError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
