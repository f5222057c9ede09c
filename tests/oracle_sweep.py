"""The enumeration-oracle sweep of ROADMAP items 2, 15 and 16, as a gate.

    PYTHONPATH=src python3 tests/oracle_sweep.py

Solves four families of small problems whose every solution is listed
without the solver, and checks ``certify`` and ``solve_elliptic`` on each:
- sweep: the 3,300 draws of ``TestEnumerationOracle.draw``, 300 each from
  seed 9 and from seeds 1001 to 1010, drawn as
  ``test_solver_and_certificate`` draws them;
- wide: 1,000 wide draws from seed 4242 whose two unbounded pieces get
  slopes in [-3, 1] (loads in [-3, 3]);
- scaled: 2,000 sweep draws from seed 31 with ``mu`` and ``kappa`` times
  one factor from U[1, 100];
- polynomial: 3,000 one-node problems from seed 555 with 0 to 2
  breakpoints and pieces of degree 0 to 3.

``enumerate_solutions`` lists the solutions of the first three.  On one
node, a solution is a real root of ``k t + beta_p(t) - f`` inside piece p
or a breakpoint ``b`` with ``f - k b`` in its interval.  Exits 1 if a
converged solve is not a solution; if a draw with a certified solution
(a finite box) has none or does not converge; if one certified unique has
anything but exactly one; if one with an empty box has any; or if a sweep
draw that has a solution ends without convergence, unless it is one of the
known failures below.  Pytest does not collect this file; it takes about
25 s.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter

import numpy as np
from numpy.polynomial import polynomial as P

import graphhvi as gh
from graphhvi.solvers import EllipticProblem, certify, solve_elliptic
from graphhvi.superpotential import PiecewiseDensity, build
from test_solvers import TestEnumerationOracle, enumerate_solutions

SEEDS = (9, *range(1001, 1011))
DRAWS = 300
# (seed, draw): each ends cycled (a down-jump); (1006, 134) has two
# solutions, the others one
KNOWN = {(9, 264), (1004, 52), (1007, 246), (1006, 134)}


def sweep_draw(rng, i):
    return TestEnumerationOracle.draw(rng, mild=i % 2 == 1)


def wide_draw(rng, i):
    g, bps, pieces, f = TestEnumerationOracle.draw(rng, mild=False)
    pieces[[0, -1], 1] = rng.uniform(-3.0, 1.0, 2)
    return g, bps, pieces, f


def scaled_draw(rng, i):
    g, bps, pieces, f = sweep_draw(rng, i)
    s = rng.uniform(1.0, 100.0)
    return (dataclasses.replace(g, mu=g.mu * s, kappa=g.kappa * s), bps,
            pieces, f)


def linear(family, seed, count, draw):
    """``(family, seed, draw), problem, solutions`` for piecewise-linear
    draws."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        g, bps, pieces, f = draw(rng, i)
        sp = build(PiecewiseDensity(bps, tuple(pieces)))
        yield ((family, seed, i), EllipticProblem(g, sp, f),
               enumerate_solutions(g, bps, pieces, f))


def one_node_solutions(k, bps, pieces, f, tol=1e-9):
    """Every solution of ``k t + dj(t) ∋ f``, from numpy.polynomial."""
    ends = [-np.inf, *bps, np.inf]
    found = [b for b, left, right in zip(bps, pieces, pieces[1:])
             if min(P.polyval(b, left), P.polyval(b, right)) - tol
             <= f - k * b
             <= max(P.polyval(b, left), P.polyval(b, right)) + tol]
    for c, a, b in zip(pieces, ends, ends[1:]):
        h = P.polyadd(c, [-f, k])
        if len(h) > 1:
            z = P.polyroots(h)
            z = z[np.abs(z.imag) <= 1e-9 * (1.0 + np.abs(z))].real
            found += [x for x in z.tolist() if a < x < b]
    out = []
    for x in sorted(found):
        if not out or x - out[-1] > 1e-7:
            out.append(x)
    return [np.array([x]) for x in out]


def polynomial(seed=555, count=3000):
    """One node: ``mu`` log-uniform in [1e-2, 1e2], ``kappa / mu`` in
    [0.2, 3], 0 to 2 breakpoints in [-1, 1], ``f`` in [-2, 2], pieces of
    degree 0 to 3 with coefficients uniform in [-0.5, 0.5] times
    (1, 1, 0.05, 0.01)."""
    rng = np.random.default_rng(seed)
    scale = np.array([1.0, 1.0, 0.05, 0.01])
    for i in range(count):
        mu = 10.0 ** rng.uniform(-2.0, 2.0)
        k = rng.uniform(0.2, 3.0)
        bps = np.sort(rng.uniform(-1.0, 1.0, rng.integers(0, 3)))
        pieces = [rng.uniform(-0.5, 0.5, d + 1) * scale[:d + 1]
                  for d in rng.integers(0, 4, len(bps) + 1)]
        f = rng.uniform(-2.0, 2.0)
        g = gh.from_data([("v", mu, k * mu)], [])
        sp = build(PiecewiseDensity(bps, tuple(pieces)))
        yield (("polynomial", seed, i),
               EllipticProblem(g, sp, np.array([f])),
               one_node_solutions(g.kappa[0] / g.mu[0], bps, pieces, f))


def families():
    for seed in SEEDS:
        yield from linear("sweep", seed, DRAWS, sweep_draw)
    yield from linear("wide", 4242, 1000, wide_draw)
    yield from linear("scaled", 31, 2000, scaled_draw)
    yield from polynomial()


def main() -> int:
    tally, bad = Counter(), []
    for key, problem, found in families():
        family, seed, i = key
        rep = solve_elliptic(problem)
        exists, unique, empty = (c.satisfied for c in certify(problem))
        kind = {0: "none", 1: "one"}.get(len(found), "several")
        tally[family, kind, rep.converged] += 1
        tally[family, "exists"] += exists
        tally[family, "unique"] += unique
        tally[family, "empty"] += empty
        where = f"{family} ({seed}, {i})"
        if unique and len(found) != 1:
            bad.append(f"{where}: certified unique, {len(found)} "
                       "solution(s)")
        if exists and not found:
            bad.append(f"{where}: certified solution, none")
        if empty and found:
            bad.append(f"{where}: empty box, {len(found)} solution(s)")
        if rep.converged and not any(
                np.allclose(rep.phi, x, rtol=0, atol=1e-6) for x in found):
            bad.append(f"{where}: converged to a non-solution")
        elif not rep.converged and (exists or family == "sweep" and found):
            reason = rep.iterations[-1]["reason"]
            known = "known" if (seed, i) in KNOWN else "NEW"
            print(f"{where}: {reason}, {len(found)} solution(s), {known}")
            if family != "sweep" or (seed, i) not in KNOWN:
                bad.append(f"{where}: {reason}")
    for family in ("sweep", "wide", "scaled", "polynomial"):
        for kind in ("one", "several", "none"):
            done = tally[family, kind, True]
            total = done + tally[family, kind, False]
            print(f"{family}: {kind} solution(s): {done} of {total} "
                  "converged")
        print(f"{family}: certified solution {tally[family, 'exists']}, "
              f"unique {tally[family, 'unique']}, empty box "
              f"{tally[family, 'empty']}")
    for line in bad:
        print(f"error: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
