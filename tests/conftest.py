"""Shared builders for the test suite."""

import numpy as np
from numpy.polynomial import polynomial as P

import graphhvi as gh


def make_random_graph(rng, max_nodes=200, min_nodes=2, weight_lo=0.2,
                      weight_hi=2.0):
    """Connected random graph: spanning tree plus extra chords.

    All four weight families are drawn uniformly from
    ``[weight_lo, weight_hi]``.
    """
    n = int(rng.integers(min_nodes, max_nodes + 1))
    ids = [f"v{i}" for i in range(n)]

    def w():
        return float(rng.uniform(weight_lo, weight_hi))

    nodes = [(v, w(), w()) for v in ids]
    adj = []
    seen = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        seen.add((j, i))
        adj.append((ids[j], ids[i], w(), w()))
    for _ in range(int(rng.integers(0, n))):
        pair = rng.choice(n, size=2, replace=False)
        i, j = int(pair.min()), int(pair.max())
        if (i, j) in seen:
            continue
        seen.add((i, j))
        adj.append((ids[i], ids[j], w(), w()))
    return gh.from_data(nodes, adj)


def quad_density(c=1.0):
    """Smooth density beta(t) = c*t, so j(t) = c*t^2/2."""
    return gh.build(gh.PiecewiseDensity((), (np.array([0.0, c]),)))


def abs_density(scale=1.0):
    """Density of j(t) = scale*|t|: a jump from -scale to +scale at 0."""
    return gh.build(gh.PiecewiseDensity((0.0,), (np.array([-scale]),
                                                 np.array([scale]))))


def ramp_jump_density():
    """beta(t) = t for t < 0 and t + 1 for t >= 0 (convex unit jump)."""
    return gh.build(gh.PiecewiseDensity((0.0,), (np.array([0.0, 1.0]),
                                                 np.array([1.0, 1.0]))))


def down_jump_density(b=0.5, left=0.3, right=0.0, slope=0.1):
    """Nonconvex density: slope plus a downward jump at ``b``."""
    return gh.build(gh.PiecewiseDensity(
        (b,), (np.array([left, slope]), np.array([right, slope]))))


def zero_density():
    return gh.build(gh.PiecewiseDensity((), (np.array([0.0]),)))


def per_piece(pieces, bp, x, side, order=0):
    """Reference: ``P.polyval`` on each piece under a mask (the evaluator
    the coefficient tables replaced)."""
    x = np.asarray(x, dtype=float)
    idx = np.searchsorted(bp, x, side=side)
    out = np.empty(x.shape)
    for i, c in enumerate(pieces):
        mask = idx == i
        if mask.any():
            cc = P.polyder(c, order) if order else c
            out[mask] = P.polyval(x[mask], cc)
    return out


def clarke_interval(density, x):
    """Reference Clarke interval ``(lo, hi)``: the min and max of the left
    and right limits by ``per_piece``.  A point on a breakpoint reads the
    limits at the breakpoint itself, so -0.0 on a breakpoint 0.0 is 0.0."""
    x = np.asarray(x, dtype=float)
    bp, pieces = density.breakpoints, density.pieces
    b = np.append(bp, np.nan)[np.searchsorted(bp, x)]  # NaN past the end
    at = np.where(b == x, b, x)
    left = per_piece(pieces, bp, at, "left")
    right = per_piece(pieces, bp, at, "right")
    return np.minimum(left, right), np.maximum(left, right)
