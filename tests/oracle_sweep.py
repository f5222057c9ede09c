"""The enumeration-oracle sweep of ROADMAP item 2, as a gate.

    PYTHONPATH=src python3 tests/oracle_sweep.py

Solves the 3,300 problems of ``TestEnumerationOracle.draw``: 300 draws
each from seed 9 and from seeds 1001 to 1010, drawn as
``test_solver_and_certificate`` draws them.  Every solution of each problem
is listed by ``enumerate_solutions``.  Exits 1 if a converged solve is not
one of them, if a problem that has a solution ends without convergence,
unless it is one of the known failures below, or if a problem that
``certify`` calls unique has anything but exactly one solution.  Pytest
does not collect this file; it takes about 15 s.
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np

from graphhvi.solvers import EllipticProblem, certify, solve_elliptic
from graphhvi.superpotential import PiecewiseDensity, build
from test_solvers import TestEnumerationOracle, enumerate_solutions

SEEDS = (9, *range(1001, 1011))
DRAWS = 300
# (seed, draw): each ends cycled (a down-jump); (1006, 134) has two
# solutions, the others one
KNOWN = {(9, 264), (1004, 52), (1007, 246), (1006, 134)}


def sweep():
    """Yield ``(seed, draw, number of solutions, report, right, unique)``:
    ``unique`` when the uniqueness certificate is satisfied."""
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for i in range(DRAWS):
            g, bps, pieces, f = TestEnumerationOracle.draw(rng,
                                                           mild=i % 2 == 1)
            sp = build(PiecewiseDensity(bps, tuple(pieces)))
            problem = EllipticProblem(g, sp, f)
            rep = solve_elliptic(problem)
            unique = certify(problem)[1].satisfied
            found = enumerate_solutions(g, bps, pieces, f)
            right = any(np.allclose(rep.phi, x, rtol=0, atol=1e-6)
                        for x in found)
            yield seed, i, len(found), rep, right, unique


def main() -> int:
    tally, bad = Counter(), []
    for seed, i, solutions, rep, right, unique in sweep():
        kind = {0: "none", 1: "one"}.get(solutions, "several")
        tally[kind, rep.converged] += 1
        tally["certified"] += unique
        if unique and solutions != 1:
            bad.append(f"({seed}, {i}): certified unique, {solutions} "
                       "solution(s)")
        if rep.converged and not right:
            bad.append(f"({seed}, {i}): converged to a non-solution")
        elif not rep.converged and solutions:
            reason = rep.iterations[-1]["reason"]
            known = "known" if (seed, i) in KNOWN else "NEW"
            print(f"({seed}, {i}): {reason}, {solutions} solution(s), "
                  f"{known}")
            if (seed, i) not in KNOWN:
                bad.append(f"({seed}, {i}): {reason}")
    for kind in ("one", "several", "none"):
        done, total = tally[kind, True], tally[kind, True] + tally[kind, False]
        print(f"{kind} solution(s): {done} of {total} converged")
    print(f"certified unique: {tally['certified']} draws")
    for line in bad:
        print(f"error: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
