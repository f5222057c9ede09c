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
import numbers
import os
import sys

import numpy as np

from . import exhaustion, operators, reports, solvers, superpotential
from .calculus import lp_norm_nodes
from .graphs import NodeTable, _finite, load_graph, node_function


class InputError(ValueError):
    """Bad command-line input or malformed input file."""


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: cannot read ({exc.strerror})") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc


def _load_superpotential(doc, base_dir: str):
    """Inline object or a path relative to the problem file."""
    if isinstance(doc, str):
        doc = _load_json(os.path.join(base_dir, doc))
    return superpotential.from_document(doc)


_PROBLEM_KEYS = {"graph", "superpotential", "f", "parabolic", "solver"}
_PARABOLIC_KEYS = {"T", "steps", "phi0", "f_table", "sp_schedule"}
_SOLVER_KEYS = {"tol": numbers.Real, "max_inner": numbers.Integral}


def _number(value, kind, what: str):
    """``value`` if it is a ``kind`` number, not a bool; a real one finite."""
    if (isinstance(value, bool) or not isinstance(value, kind)
            or kind is numbers.Real and not _finite(value)):
        raise InputError(f"{what} must be a finite number, not {value!r}")
    return value


def _checked(what: str, fn, *args):
    """``fn(*args)``; a read or value error from it names ``what``."""
    try:
        return fn(*args)
    except OSError as exc:
        raise InputError(f"{what}: cannot read ({exc.strerror})") from exc
    except ValueError as exc:
        raise InputError(f"{what}: {exc}") from exc


def load_problem(path: str):
    """Parse a problem file; returns (graph, sp, f, parabolic dict or None,
    SolverOptions)."""
    doc = _load_json(path)
    base = os.path.dirname(os.path.abspath(path))
    if not isinstance(doc, dict):
        raise InputError(f"{path}: problem document must be an object")
    extra = set(doc) - _PROBLEM_KEYS
    if extra:
        raise InputError(f"{path}: unknown keys {sorted(extra)}")
    for key in ("graph", "superpotential", "f"):
        if key not in doc:
            raise InputError(f"{path}: missing required key {key!r}")
    if not isinstance(doc["graph"], str):
        raise InputError(f"{path}: 'graph' must be a file name")
    g = _checked(doc["graph"], load_graph, os.path.join(base, doc["graph"]))
    sp = _load_superpotential(doc["superpotential"], base)
    f = _checked(f"{path}: load f", node_function, g, doc["f"])

    solver = doc.get("solver", {})
    if not isinstance(solver, dict) or set(solver) - set(_SOLVER_KEYS):
        raise InputError(f"{path}: malformed 'solver' section")
    opts = _checked(f"{path}: solver options", lambda: solvers.SolverOptions(
        **{k: _number(v, _SOLVER_KEYS[k], k) for k, v in solver.items()}))

    parabolic = doc.get("parabolic")
    if parabolic is not None:
        if not isinstance(parabolic, dict) or set(parabolic) - _PARABOLIC_KEYS:
            raise InputError(f"{path}: malformed 'parabolic' section")
        for key in ("T", "steps", "phi0"):
            if key not in parabolic:
                raise InputError(f"{path}: parabolic section missing {key!r}")
    return g, sp, f, parabolic, opts


def _build_parabolic(g, sp, f, parabolic):
    steps = _number(parabolic["steps"], numbers.Integral, "steps")
    phi0 = _checked("phi0", node_function, g, parabolic["phi0"])
    if "f_table" in parabolic:
        table = parabolic["f_table"]
        if not isinstance(table, list) or len(table) != steps:
            raise InputError(f"f_table must be a list of {steps} loads")
        f = np.stack([_checked(f"f_table[{k}]", node_function, g, row)
                      for k, row in enumerate(table)])
    if "sp_schedule" in parabolic:
        sp = _checked("sp_schedule", superpotential.schedule_from_document,
                      parabolic["sp_schedule"])
    T = float(_number(parabolic["T"], numbers.Real, "T"))
    return solvers.ParabolicProblem(graph=g, sp=sp, f=f, phi0=phi0, T=T,
                                    steps=steps)


def _emit(doc: dict, args, title: str) -> None:
    if args.format == "machine":
        text = reports.render_json(doc) + "\n"
    else:
        text = reports.render_human(doc, title)
    if args.out:
        reports.write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    g = _checked(args.graph, load_graph, args.graph)
    _emit(reports.validate_report_dict(g), args, "graph validation")
    return 0


def cmd_certify(args) -> int:
    g, sp, f, _, opts = load_problem(args.problem)
    certs = solvers.certify(solvers.EllipticProblem(g, sp, f))
    doc = {
        "schema_version": reports.SCHEMA_VERSION,
        "certificates": [dataclasses.asdict(c) for c in certs],
        "constants": dataclasses.asdict(operators.constants(g)),
    }
    _emit(doc, args, "certificates")
    return 0


def cmd_solve_elliptic(args) -> int:
    g, sp, f, _, opts = load_problem(args.problem)
    if args.tol is not None:
        opts = dataclasses.replace(opts, tol=args.tol)
    rep = solvers.solve_elliptic(solvers.EllipticProblem(g, sp, f), opts)
    _emit(reports.solve_report_dict(g, rep), args, "elliptic solve")
    return 0 if rep.converged else 1


def cmd_solve_parabolic(args) -> int:
    g, sp, f, parabolic, opts = load_problem(args.problem)
    if parabolic is None:
        raise InputError(f"{args.problem}: missing 'parabolic' section")
    if args.tol is not None:
        opts = dataclasses.replace(opts, tol=args.tol)
    problem = _build_parabolic(g, sp, f, parabolic)
    res = solvers.solve_parabolic(problem, opts)
    _emit(reports.parabolic_report_dict(g, res), args, "parabolic solve")
    return 0 if res.converged else 1


def cmd_verify(args) -> int:
    g, sp, f, _, _ = load_problem(args.problem)
    phi = _checked(args.phi, node_function, g, _load_json(args.phi))
    resid = solvers.verify_inclusion(g, sp, phi, f)
    doc = {
        "schema_version": reports.SCHEMA_VERSION,
        "residual_norm": lp_norm_nodes(g, resid, 2.0),
        "residual": NodeTable(g, resid),
    }
    _emit(doc, args, "inclusion verification")
    return 0


def cmd_exhaust(args) -> int:
    doc = _load_json(args.generator)
    gen, f_law = _checked(args.generator,
                          exhaustion.generator_from_document, doc)
    if "superpotential" not in doc:
        raise InputError(f"{args.generator}: missing 'superpotential'")
    sp = _load_superpotential(doc["superpotential"],
                              os.path.dirname(os.path.abspath(args.generator)))
    radii = _checked(f"bad --radii list {args.radii!r}",
                     lambda: [float(r) for r in args.radii.split(",")])
    rep = exhaustion.exhaust(gen, sp, f_law, radii, args.eps)
    out = {
        "schema_version": reports.SCHEMA_VERSION,
        "converged": rep.converged,
        "radii": rep.radii,
        "level_sizes": [g.num_nodes for g in rep.graphs],
        "increments": rep.increments,
        "tail_masses": rep.tail_masses,
        "final_solution": NodeTable(rep.graphs[-1], rep.solutions[-1].phi),
        "final_residual_norm": rep.solutions[-1].residual_norm,
    }
    _emit(out, args, "exhaustion study")
    return 0 if all(r.converged for r in rep.solutions) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphhvi",
        description="Hemivariational inequality solver on weighted graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="report output path "
                       "(default: stdout)")
        p.add_argument("--format", choices=("human", "machine"),
                       default="machine")

    p = sub.add_parser("validate", help="validate a graph file")
    p.add_argument("--graph", required=True)
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("certify", help="existence/uniqueness certificates")
    p.add_argument("--problem", required=True)
    common(p)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("solve-elliptic", help="solve the elliptic inclusion")
    p.add_argument("--problem", required=True)
    p.add_argument("--tol", type=float, default=None)
    common(p)
    p.set_defaults(fn=cmd_solve_elliptic)

    p = sub.add_parser("solve-parabolic", help="implicit-Euler time stepping")
    p.add_argument("--problem", required=True)
    p.add_argument("--tol", type=float, default=None)
    common(p)
    p.set_defaults(fn=cmd_solve_parabolic)

    p = sub.add_parser("verify", help="check a candidate solution")
    p.add_argument("--problem", required=True)
    p.add_argument("--phi", required=True, help="JSON map node -> value")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("exhaust", help="solve on growing ball truncations")
    p.add_argument("--generator", required=True)
    p.add_argument("--radii", default="2,4,8,16,32")
    p.add_argument("--eps", type=float, default=1e-6)
    common(p)
    p.set_defaults(fn=cmd_exhaust)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # InputError, GraphFormatError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
