"""Generators, weight laws, ball truncation, and the exhaustion driver."""

import itertools
import math

import numpy as np
import pytest

import graphhvi as gh
from graphhvi import exhaustion
from graphhvi.exhaustion import (GraphGenerator, WeightLaw, exhaust,
                                 generator_from_document, truncate)
from graphhvi.graphs import distances_from, from_data

from conftest import abs_density, quad_density, zero_density


def constant(v=1.0):
    return WeightLaw("constant", {"value": v})


def path_generator(mu=None, kappa=None):
    return GraphGenerator(kind="path",
                          mu=mu or constant(),
                          rho=constant(),
                          gamma=constant(),
                          kappa=kappa or constant())


class TestWeightLaw:
    def test_formula_catalog(self):
        assert WeightLaw("constant", {"value": 2.5})(7) == 2.5
        geo = WeightLaw("geometric-in-depth", {"value": 2.0, "ratio": 0.5})
        assert geo(0) == 2.0
        assert geo(3) == 0.25
        pow_ = WeightLaw("power-in-depth", {"value": 1.0, "exponent": -2.0})
        assert pow_(3) == pytest.approx(1.0 / 16.0)
        root = WeightLaw("root-only", {"value": 3.0})
        assert root(0) == 3.0
        assert root(1) == 0.0

    def test_unknown_formula(self):
        with pytest.raises(ValueError, match="unknown formula"):
            WeightLaw("mystery", {})(0)

    def test_from_document(self):
        law = WeightLaw.from_document({"formula": "constant", "value": 4.0})
        assert law(2) == 4.0
        with pytest.raises(ValueError, match="malformed"):
            WeightLaw.from_document({"value": 4.0})

    @pytest.mark.parametrize("formula, params", [
        pytest.param("constant", {"value": {}}, id="object"),
        pytest.param("constant", {"value": [1.0]}, id="list"),
        pytest.param("constant", {"value": True}, id="bool"),
        pytest.param("constant", {"value": "1.0"}, id="string"),
        pytest.param("constant", {"value": None}, id="null"),
        pytest.param("constant", {"value": math.nan}, id="nan"),
        pytest.param("constant", {"value": math.inf}, id="inf"),
        pytest.param("power-in-depth", {"value": 1.0, "exponent": -math.inf},
                     id="minus-inf"),
        pytest.param("constant", {"value": 10 ** 400}, id="huge-int"),
        pytest.param("constant", {"value": 1.0, "ratio": 0.5},
                     id="extra-param"),
        pytest.param("constant", {}, id="no-params"),
        pytest.param("geometric-in-depth", {"value": 1.0},
                     id="missing-param"),
        pytest.param("power-in-depth", {"value": 1.0, "ratio": 2.0},
                     id="wrong-param"),
        pytest.param(None, {"value": 1.0}, id="null-formula"),
        pytest.param(["constant"], {"value": 1.0}, id="list-formula"),
    ])
    def test_parameter_validation(self, formula, params):
        with pytest.raises(ValueError):
            WeightLaw(formula, params)

    def test_integer_parameters(self):
        law = WeightLaw("geometric-in-depth", {"value": 3, "ratio": 2})
        assert law(4) == 48.0

    def test_overflow_is_value_error(self):
        law = WeightLaw("geometric-in-depth", {"value": 1.0, "ratio": 10.0})
        assert law(300) == 1e300
        with pytest.raises(ValueError, match="overflows at depth 400"):
            law(400)


class TestGenerator:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown generator kind"):
            GraphGenerator(kind="hexagon", mu=constant(), rho=constant(),
                           gamma=constant(), kappa=constant())

    def test_nonpositive_law_rejected(self):
        # root-only laws vanish off the root, so they are not weight laws
        with pytest.raises(ValueError, match="non-positive or non-finite "
                                             "mu at depth 1: 0.0"):
            GraphGenerator(kind="path", mu=WeightLaw("root-only",
                                                     {"value": 1.0}),
                           rho=constant(), gamma=constant(),
                           kappa=constant())

    def test_law_infinite_at_depth_one_rejected(self):
        # finite at the root, inf from depth 1: refused when built, with the
        # message a ball's weights would give
        gamma = WeightLaw("geometric-in-depth", {"value": 1e308,
                                                 "ratio": 10.0})
        assert gamma(0) == 1e308 and gamma(1) == math.inf
        with pytest.raises(gh.GraphFormatError, match="non-positive or "
                           "non-finite gamma at depth 1: inf"):
            GraphGenerator(kind="path", mu=constant(), rho=constant(),
                           gamma=gamma, kappa=constant())

    def test_depth_and_ids(self):
        # ids of a truncation, by depth and then by id as strings
        assert truncate(path_generator(), 3.5).nodes == ("0", "1", "2", "3")
        tree = GraphGenerator(kind="binary-tree", mu=constant(),
                              rho=constant(), gamma=constant(),
                              kappa=constant())
        assert truncate(tree, 2.5).nodes == ("r", "r0", "r1", "r00", "r01",
                                             "r10", "r11")
        lat = GraphGenerator(kind="lattice-2d", mu=constant(),
                             rho=constant(), gamma=constant(),
                             kappa=constant())
        nodes = truncate(lat, 3.5).nodes
        assert nodes[:5] == ("0,0", "-1,0", "0,-1", "0,1", "1,0")
        # "-1,1" < "-2,0" as strings
        assert nodes[5:13] == ("-1,-1", "-1,1", "-2,0", "0,-2", "0,2",
                               "1,-1", "1,1", "2,0")
        assert len(nodes) == 25 and nodes[-1] == "3,0"


class TestTruncate:
    def test_underflowing_mu_rejected(self):
        # 0.5 ** 1075 is 0.0; depth 1075 enters the ball from radius 1075.5
        gen = path_generator(mu=WeightLaw("geometric-in-depth",
                                          {"value": 1.0, "ratio": 0.5}))
        assert truncate(gen, 1075.0).num_nodes == 1075
        with pytest.raises(ValueError, match=r"mu at depth 1075: 0\.0$"):
            truncate(gen, 1100.0)

    def test_overflowing_gamma_rejected(self):
        # 1e300 * 10.0 ** 9 is inf without an OverflowError; edges of depth
        # 9 (to depth-10 nodes) enter the ball from radius 10.5
        gamma = WeightLaw("geometric-in-depth", {"value": 1e300,
                                                 "ratio": 10.0})
        gen = GraphGenerator(kind="path", mu=constant(), rho=constant(),
                             gamma=gamma, kappa=constant())
        assert gamma(9) == math.inf
        assert truncate(gen, 10.0).gamma.max() == 1e308
        with pytest.raises(ValueError, match=r"gamma at depth 9: inf$"):
            truncate(gen, 12.0)

    def test_path_ball(self):
        g = truncate(path_generator(), 3.5)
        assert g.nodes == ("0", "1", "2", "3")
        assert g.num_edges == 6

    def test_binary_tree_ball(self):
        gen = GraphGenerator(kind="binary-tree", mu=constant(),
                             rho=constant(), gamma=constant(),
                             kappa=constant())
        g = truncate(gen, 2.5)
        assert g.num_nodes == 7  # root, 2 children, 4 grandchildren
        assert g.num_edges == 12

    def test_lattice_ball(self):
        gen = GraphGenerator(kind="lattice-2d", mu=constant(),
                             rho=constant(), gamma=constant(),
                             kappa=constant())
        g = truncate(gen, 1.5)
        assert g.num_nodes == 5
        assert set(g.nodes) == {"0,0", "1,0", "-1,0", "0,1", "0,-1"}

    def test_dirichlet_truncation(self):
        # every retained directed edge joins two retained nodes
        g = truncate(path_generator(), 4.5)
        inside = set(range(g.num_nodes))
        assert set(g.edge_src.tolist()) <= inside
        assert set(g.edge_dst.tolist()) <= inside

    def test_max_nodes_guard(self, monkeypatch):
        monkeypatch.setattr("graphhvi.exhaustion._MAX_NODES", 10)
        with pytest.raises(ValueError, match="max_nodes=10"):
            truncate(path_generator(), 1000.0)

    def test_invalid_radius(self):
        with pytest.raises(ValueError, match="positive"):
            truncate(path_generator(), 0.0)

    def test_nan_radius_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            truncate(path_generator(), math.nan)


KINDS = ("path", "binary-tree", "lattice-2d")
RHO_LAWS = {
    "constant": constant(1.0),
    "geometric": WeightLaw("geometric-in-depth", {"value": 0.5,
                                                  "ratio": 1.25}),
    "power": WeightLaw("power-in-depth", {"value": 1.0, "exponent": -0.5}),
}
RADII = (0.5, 1.0, 2.0, 2.5, 3.2, 4.4, 5.5)
BIG_R = 6.0


def depth_generator(kind, rho):
    return GraphGenerator(
        kind=kind, rho=rho,
        mu=WeightLaw("geometric-in-depth", {"value": 1.0, "ratio": 0.5}),
        gamma=WeightLaw("power-in-depth", {"value": 2.0, "exponent": -1.0}),
        kappa=constant(0.5))


def node_tuples(kind, max_depth):
    """Every node of the generator family up to ``max_depth``, as tuples."""
    if kind == "path":
        return [(d,) for d in range(max_depth + 1)]
    if kind == "binary-tree":
        return [("".join(w),) for d in range(max_depth + 1)
                for w in itertools.product("01", repeat=d)]
    return [(x, y) for x in range(-max_depth, max_depth + 1)
            for y in range(-max_depth, max_depth + 1)
            if abs(x) + abs(y) <= max_depth]


ROOTS = {"path": (0,), "binary-tree": ("",), "lattice-2d": (0, 0)}


def node_id(kind, node):
    """The id of a node given as a tuple: ``"3"``, ``"r01"`` or ``"-2,1"``."""
    if kind == "path":
        return str(node[0])
    if kind == "binary-tree":
        return "r" + node[0]
    return f"{node[0]},{node[1]}"


def tuple_depth(kind, node):
    if kind == "path":
        return node[0]
    if kind == "binary-tree":
        return len(node[0])
    return abs(node[0]) + abs(node[1])


def all_neighbors(kind, node):
    """Every neighbour of a node; the deeper ones in the generator's child
    slot order."""
    if kind == "path":
        (d,) = node
        return [(d - 1,), (d + 1,)] if d > 0 else [(d + 1,)]
    if kind == "binary-tree":
        (word,) = node
        parent = [(word[:-1],)] if word else []
        return parent + [(word + "0",), (word + "1",)]
    x, y = node
    return [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]


def record_truncation(gen, r):
    """The truncation built as records, from ``node_tuples`` and
    ``all_neighbors`` filtered by depth, and validated by ``from_data``."""
    def vid(u):
        return node_id(gen.kind, u)
    levels, dist = [], 0.0
    while not levels or dist < r:
        d = len(levels)
        levels.append(sorted((u for u in node_tuples(gen.kind, d)
                              if tuple_depth(gen.kind, u) == d), key=vid))
        dist += gen.rho(d)
    nodes = [(vid(u), gen.mu(d), gen.kappa(d))
             for d, level in enumerate(levels) for u in level]
    adj = [(vid(u), vid(v), gen.rho(d), gen.gamma(d))
           for d, level in enumerate(levels[:-1]) for u in level
           for v in all_neighbors(gen.kind, u)
           if tuple_depth(gen.kind, v) == d + 1]
    return from_data(nodes, adj)


def assert_same_graph(g, ref):
    assert g.nodes == ref.nodes
    for name in ("mu", "kappa", "edge_src", "edge_dst", "rho", "gamma"):
        a, b = getattr(g, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def edge_set(g, keep=None):
    """Directed edges as (src id, dst id, rho, gamma), both ends in keep."""
    return {(g.nodes[a], g.nodes[b], r, c) for a, b, r, c in
            zip(g.edge_src, g.edge_dst, g.rho.tolist(), g.gamma.tolist())
            if keep is None or (g.nodes[a] in keep and g.nodes[b] in keep)}


class TestTruncateOracle:
    """``truncate`` against scipy's Dijkstra on a larger truncation, and
    against the same graph built from records by ``from_data``."""

    @pytest.mark.parametrize("law", sorted(RHO_LAWS))
    @pytest.mark.parametrize("kind", KINDS)
    def test_arrays_equal_record_build(self, kind, law):
        gen = depth_generator(kind, RHO_LAWS[law])
        for r in RADII:
            assert_same_graph(truncate(gen, r), record_truncation(gen, r))

    @pytest.mark.parametrize("kind, depth", [("path", 120),
                                             ("binary-tree", 12),
                                             ("lattice-2d", 24)])
    def test_deep_balls_equal_record_build(self, kind, depth):
        # on the lattice, from depth 10 on, string order is not coordinate
        # order: "-10" < "-2" < "0" < "10" < "2"
        gen = depth_generator(kind, RHO_LAWS["constant"])
        for r in (depth - 0.5, depth + 0.5):
            assert_same_graph(truncate(gen, r), record_truncation(gen, r))

    @pytest.mark.parametrize("kind", KINDS)
    def test_max_nodes_guard_per_kind(self, kind, monkeypatch):
        # a ball is built exactly when it holds at most _MAX_NODES nodes
        gen = depth_generator(kind, RHO_LAWS["constant"])
        sizes = [record_truncation(gen, d + 0.5).num_nodes for d in range(5)]
        for limit in range(1, sizes[-1] + 1):
            monkeypatch.setattr("graphhvi.exhaustion._MAX_NODES", limit)
            for d, size in enumerate(sizes):
                if size <= limit:
                    assert truncate(gen, d + 0.5).num_nodes == size
                else:
                    with pytest.raises(ValueError,
                                       match=f"max_nodes={limit};"):
                        truncate(gen, d + 0.5)

    @pytest.mark.parametrize("kind", KINDS)
    def test_weight_law_errors_per_kind(self, kind):
        def gen(**laws):
            return GraphGenerator(kind=kind, **{
                "mu": constant(), "rho": constant(), "gamma": constant(),
                "kappa": constant(), **laws})
        # 1e-300 * 1e-6 ** 4 is 0.0, a node law at the depth-4 nodes
        tiny = WeightLaw("geometric-in-depth", {"value": 1e-300,
                                                "ratio": 1e-6})
        size = record_truncation(gen(), 4.0).num_nodes    # depths 0 to 3
        for name in ("mu", "kappa"):
            assert truncate(gen(**{name: tiny}), 4.0).num_nodes == size
            with pytest.raises(ValueError,
                               match=rf"{name} at depth 4: 0\.0$"):
                truncate(gen(**{name: tiny}), 4.5)
        # 1e300 * 10.0 ** 9 is inf, an edge law at the depth-9 edges
        huge = WeightLaw("geometric-in-depth", {"value": 1e300,
                                                "ratio": 10.0})
        assert truncate(gen(gamma=huge), 10.0).gamma.max() == 1e308
        with pytest.raises(ValueError, match=r"gamma at depth 9: inf$"):
            truncate(gen(gamma=huge), 10.5)
        # 6.0 ** 400 raises OverflowError as the walk reaches depth 5
        steep = WeightLaw("power-in-depth", {"value": 1.0,
                                             "exponent": 400.0})
        with pytest.raises(ValueError,
                           match="power-in-depth law overflows at depth 5$"):
            truncate(gen(rho=steep), 1e300)

    @pytest.mark.parametrize("law", sorted(RHO_LAWS))
    @pytest.mark.parametrize("kind", KINDS)
    def test_ball_order_and_induced_edges(self, kind, law):
        gen = depth_generator(kind, RHO_LAWS[law])
        big = truncate(gen, BIG_R)
        root = node_id(kind, ROOTS[kind])
        dist = dict(zip(big.nodes, distances_from(big, root)))
        for r in RADII:
            g = truncate(gen, r)
            inside = gh.ball(big, root, r)
            assert g.nodes == tuple(sorted(inside,
                                           key=lambda v: (dist[v], v)))
            assert len(edge_set(g)) == g.num_edges
            assert edge_set(g) == edge_set(big, inside)

    @pytest.mark.parametrize("law", sorted(RHO_LAWS))
    @pytest.mark.parametrize("kind", KINDS)
    def test_nested_prefixes(self, kind, law):
        gen = depth_generator(kind, RHO_LAWS[law])
        nodes = [truncate(gen, r).nodes for r in RADII]
        for small, large in zip(nodes, nodes[1:]):
            assert large[:len(small)] == small

    @pytest.mark.parametrize("law", sorted(RHO_LAWS))
    @pytest.mark.parametrize("kind", KINDS)
    def test_exhaust_levels_equal_truncations(self, kind, law):
        gen = depth_generator(kind, RHO_LAWS[law])
        rep = exhaust(gen, quad_density(0.5), constant(1.0), RADII, 1e-6)
        assert len(rep.graphs) == len(RADII)
        for r, g in zip(RADII, rep.graphs):
            assert_same_graph(g, truncate(gen, r))


LOAD_LAWS = (WeightLaw("root-only", {"value": 2.0}),
             WeightLaw("geometric-in-depth", {"value": 1.5, "ratio": 0.7}),
             WeightLaw("power-in-depth", {"value": -1.0, "exponent": 0.5}))


class TestExhaust:
    def test_path_linear_convergence(self):
        gen = path_generator(mu=WeightLaw("geometric-in-depth",
                                          {"value": 1.0, "ratio": 0.5}))
        rep = exhaust(gen, zero_density(),
                      WeightLaw("root-only", {"value": 1.0}),
                      [2, 4, 8, 16, 32], 1e-6)
        assert rep.converged
        assert len(rep.increments) == 4
        assert rep.increments[-1] < 1e-6
        assert rep.tail_masses[-1] < 1e-6
        # increments shrink monotonically for this nested family
        assert all(b < a for a, b in zip(rep.increments,
                                         rep.increments[1:]))

    def test_nested_node_sets(self):
        gen = path_generator()
        rep = exhaust(gen, quad_density(0.5), constant(0.5),
                      [2, 4, 8], 1e-1)
        for small, large in zip(rep.graphs, rep.graphs[1:]):
            assert set(small.nodes) <= set(large.nodes)

    def test_nonsmooth_density_runs(self):
        gen = path_generator(mu=WeightLaw("geometric-in-depth",
                                          {"value": 1.0, "ratio": 0.5}))
        rep = exhaust(gen, abs_density(0.3),
                      WeightLaw("root-only", {"value": 2.0}),
                      [2, 4, 8, 16], 1e-4)
        assert all(r.converged for r in rep.solutions)

    def test_validation(self):
        gen = path_generator()
        sp = zero_density()
        f = constant()
        with pytest.raises(ValueError, match="radii"):
            exhaust(gen, sp, f, [4, 2], 1e-6)
        with pytest.raises(ValueError, match="radii"):
            exhaust(gen, sp, f, [], 1e-6)
        with pytest.raises(ValueError, match="eps"):
            exhaust(gen, sp, f, [2, 4], 0.0)
        for radii in ([math.nan], [2, math.nan], [math.inf], [2, math.inf],
                      [0, 2], [-1, 2]):
            with pytest.raises(ValueError, match="radii"):
                exhaust(gen, sp, f, radii, 1e-6)
        for eps in (math.nan, math.inf, -1.0, True, 10**400):
            with pytest.raises(ValueError, match="eps"):
                exhaust(gen, sp, f, [2, 4], eps)

    @pytest.mark.parametrize("f_law", LOAD_LAWS,
                             ids=[f.formula for f in LOAD_LAWS])
    @pytest.mark.parametrize("kind", KINDS)
    def test_levels_solve_the_depth_load(self, kind, f_law):
        # the load at a node is f_law at its depth, taken from the node's
        # own tuple, not from the walk that built the ball
        gen = depth_generator(kind, RHO_LAWS["power"])
        sp = abs_density(0.3)
        rep = exhaust(gen, sp, f_law, [1.0, 2.5, 4.4], 1e-6)
        tuples = {node_id(kind, u): u for u in node_tuples(kind, 8)}
        assert all(s.converged for s in rep.solutions)
        assert len(rep.graphs) == 3
        for g, sol in zip(rep.graphs, rep.solutions):
            f = np.array([f_law(tuple_depth(kind, tuples[v]))
                          for v in g.nodes])
            assert np.max(gh.verify_inclusion(g, sp, sol.phi, f)) <= 1e-8

    def test_one_walk_per_study(self, monkeypatch):
        calls = []
        real = exhaustion._layout
        monkeypatch.setattr(exhaustion, "_layout", lambda kind, depth:
                            calls.append((kind, depth)) or real(kind, depth))
        gen = depth_generator("lattice-2d", RHO_LAWS["constant"])
        rep = exhaust(gen, quad_density(0.5), constant(1.0), RADII, 1e-6)
        assert len(rep.graphs) == len(RADII)
        # unit rho: the largest ball (radius 5.5) holds depths 0 to 5, laid
        # out once and sliced for the smaller radii
        assert calls == [("lattice-2d", 5)]

    @pytest.mark.parametrize("law", sorted(RHO_LAWS))
    @pytest.mark.parametrize("kind", KINDS)
    def test_tails_match_dijkstra(self, kind, law):
        # tails taken from the layout's depth distances equal those that a
        # shortest-path search measures on each level's graph, bit for bit
        rho = RHO_LAWS[law]
        level = [0.0]      # the rho-distance of each depth, summed in order
        for d in range(8):
            level.append(level[-1] + rho(d))
        # radii between two depths' distances, and on them, so that a tail
        # holds a depth at exactly its inner radius
        radii = [(level[1] + level[2]) / 2, level[3],
                 (level[4] + level[5]) / 2, level[6],
                 (level[7] + level[8]) / 2]
        gen = depth_generator(kind, rho)
        rep = exhaust(gen, quad_density(0.5), constant(1.0), radii, 1e-6)
        assert len(rep.tail_masses) == len(radii)
        for i, (g, sol) in enumerate(zip(rep.graphs, rep.solutions)):
            r = radii[i - 1] if i else radii[0] / 2.0
            diag = gh.embedding_diagnostics(g, g.nodes[0], r, sol.phi)
            assert rep.tail_masses[i] == diag.tail_mass > 0

    def test_increments_align_by_node_id(self):
        # each increment compares consecutive solutions node by node
        gen = path_generator(mu=WeightLaw("geometric-in-depth",
                                          {"value": 1.0, "ratio": 0.5}))
        rep = exhaust(gen, abs_density(0.3), constant(1.0), [2, 4, 8], 1e-4)
        for i, (small, large) in enumerate(zip(rep.graphs, rep.graphs[1:])):
            table = gh.NodeTable(large, rep.solutions[i + 1].phi)
            diff = np.array([table[v] for v in small.nodes])
            diff -= rep.solutions[i].phi
            assert rep.increments[i] == gh.sobolev_norms(small,
                                                         diff).w_hilbert


class TestInfiniteGraphLimit:
    """``exhaust`` on the path and the binary tree against closed forms.

    Unit mu, rho and gamma, kappa ``K``, beta(t) = ``C`` t and a root-only
    load ``F``.  Every node has one parent (but the root) and ``deg``
    children, so the solution is radial: ``phi_d`` at depth d solves
    ``deg (phi_0 - phi_1) + s phi_0 = F`` at the root and
    ``(phi_d - phi_{d-1}) + deg (phi_d - phi_{d+1}) + s phi_d = 0`` below
    it, with ``s = K + C``.  Off the boundary ``phi_d`` is a sum of the modes
    ``q^d`` of ``deg q^2 - (deg + 1 + s) q + 1 = 0``.  On the infinite graph
    only the decaying mode ``q1 < 1`` is left.  The ball of depths 0 .. R
    keeps no edge below depth R, so there ``deg (phi_R - phi_{R+1})`` drops
    out.
    """

    K, C, F = 1.0, 0.5, 2.0
    RADII = (2, 4, 8, 12)   # unit rho: depths 0 .. radius - 1

    @classmethod
    def modes(cls, deg):
        b = deg + 1 + cls.K + cls.C
        q2 = (b + math.sqrt(b * b - 4 * deg)) / (2 * deg)
        return 1 / (deg * q2), q2

    @classmethod
    def infinite(cls, deg, depth):
        q1, _ = cls.modes(deg)
        return cls.F / (deg * (1 - q1) + cls.K + cls.C) * q1 ** depth

    @classmethod
    def finite(cls, deg, depth, R):
        """``A q1^d + B q2^(d - R)``, from the root and boundary rows."""
        (q1, q2), s = cls.modes(deg), cls.K + cls.C
        A, B = np.linalg.solve(
            [[deg * (1 - q1) + s, q2 ** -R * (deg * (1 - q2) + s)],
             [q1 ** (R - 1) * ((1 + s) * q1 - 1), ((1 + s) * q2 - 1) / q2]],
            [cls.F, 0.0])
        return A * q1 ** depth + B * q2 ** (depth - R)

    @pytest.mark.parametrize("kind, deg", [("path", 1), ("binary-tree", 2)])
    def test_levels_increments_and_tails(self, kind, deg):
        gen = GraphGenerator(kind=kind, mu=constant(), rho=constant(),
                             gamma=constant(), kappa=constant(self.K))
        rep = exhaust(gen, quad_density(self.C),
                      WeightLaw("root-only", {"value": self.F}),
                      self.RADII, 1e-6)
        assert all(sol.converged for sol in rep.solutions)
        # phi by depth on each ball, and the node count at each depth
        exact = [self.finite(deg, np.arange(r), r - 1) for r in self.RADII]
        count = deg ** np.arange(self.RADII[-1])
        for g, sol, phi in zip(rep.graphs, rep.solutions, exact):
            depth = [int(v) if kind == "path" else len(v) - 1
                     for v in g.nodes]
            assert np.max(np.abs(sol.phi - phi[depth])) < 1e-10
        # the largest ball is within q1^R of the infinite graph
        R, (q1, _) = self.RADII[-1] - 1, self.modes(deg)
        far = self.infinite(deg, np.arange(R + 1))
        assert np.max(np.abs(exact[-1] - far)) < q1 ** R
        assert np.max(np.abs(rep.solutions[-1].phi - far[depth])) < q1 ** R
        # an increment sums diff^2 over the nodes and the squared
        # difference over the edges, each adjacency in both orientations
        for i, phi in enumerate(exact[:-1]):
            diff = exact[i + 1][:len(phi)] - phi
            n = count[:len(phi)]
            want = math.sqrt(n @ diff ** 2 + 2 * n[1:] @ np.diff(diff) ** 2)
            assert rep.increments[i] == pytest.approx(want, rel=1e-9)
        # a tail sums phi^2 over the depths not below the previous radius
        for i, phi in enumerate(exact):
            cut = math.ceil(self.RADII[i - 1] if i else self.RADII[0] / 2)
            want = math.sqrt(count[cut:len(phi)] @ phi[cut:] ** 2)
            assert rep.tail_masses[i] == pytest.approx(want, rel=1e-9)


class TestNonsmoothLimit:
    """``exhaust`` for ``j = c|t|`` on the path and the binary tree against
    the closed-form solution, which has compact support.

    Unit mu, rho and gamma, kappa ``K`` and a root-only load ``F > c``.  The
    solution is radial.  Free nodes (``phi_d > 0``, ``xi = c``) lie above
    the first pinned depth D and solve the recurrence of
    ``TestInfiniteGraphLimit`` (with ``C = 0``) plus ``c``, so ``phi_d = A q1^d + B q2^d - c / K`` with
    ``deg q^2 - (deg + 1 + K) q + 1 = 0``; the root row
    ``(deg + K) phi_0 - deg phi_1 + c = F`` and ``phi_D = 0`` fix A and B.
    From depth D on ``phi = 0``.  D is the depth at which that is
    consistent: ``phi_d > 0`` for ``d < D``, and the subgradient required at
    depth D, ``phi_{D-1}``, is at most c.  A ball of depths 0 .. R with
    ``R >= D`` holds the support and its pinned layer, so it has the
    infinite graph's solution.  A smaller ball has no pinned layer: its
    last row, with no edge below depth R, replaces ``phi_D = 0``.
    """

    # (kind, deg, K, c, F, radii, support nodes)
    CASES = [("path", 1, 1.0, 1.0, 10.0, (2, 4, 8, 12, 16), 3),
             ("path", 1, 0.1, 0.5, 20.0, (4, 8, 12, 16), 10),
             ("binary-tree", 2, 1.0, 1.0, 10.0, (2, 3, 4, 6), 3),
             ("binary-tree", 2, 0.1, 0.5, 20.0, (2, 4, 6, 8), 31)]

    @staticmethod
    def ball(deg, K, c, F, R):
        """phi by depth on the ball of depths 0 .. R, and its first pinned
        depth (R + 1 when every node is free)."""
        b = deg + 1 + K
        q2 = (b + math.sqrt(b * b - 4 * deg)) / (2 * deg)
        q1 = 1 / (deg * q2)
        solutions = []
        for D in range(1, R + 2):
            # phi_d = A q1^d + B q2^(d - E) - c / K; the root row's constant
            # terms add up to F, and the last row is phi_D = 0 or, for
            # D = R + 1, (phi_R - phi_{R-1}) + K phi_R + c = 0
            E = min(D, R)
            root = [deg + K - deg * q1, q2 ** -E * (deg + K - deg * q2)]
            last = ([q1 ** D, 1.0] if D <= R else
                    [q1 ** (R - 1) * ((1 + K) * q1 - 1),
                     ((1 + K) * q2 - 1) / q2])
            A, B = np.linalg.solve([root, last], [F, c / K if D <= R else 0])
            d = np.arange(min(D, R + 1))
            phi = A * q1 ** d + B * q2 ** (d - E) - c / K
            if np.all(phi > 0) and (D > R or phi[-1] <= c):
                solutions.append((np.concatenate((phi, np.zeros(R + 1 - D))),
                                  D))
        assert len(solutions) == 1   # the solution is unique
        return solutions[0]

    def test_closed_form_by_hand(self):
        # (68, 19, 2) / 13 solves the three free rows; phi_2 <= c pins depth 3
        phi, D = self.ball(1, 1.0, 1.0, 10.0, 16)
        assert D == 3
        np.testing.assert_allclose(phi[:4], np.array([68, 19, 2, 0]) / 13,
                                   rtol=0, atol=1e-14)
        assert not np.any(phi[3:])

    @staticmethod
    def run(kind, K, c, radii, f_law):
        gen = GraphGenerator(kind=kind, mu=constant(), rho=constant(),
                             gamma=constant(), kappa=constant(K))
        rep = exhaust(gen, abs_density(c), f_law, radii, 1e-6)
        assert all(sol.converged for sol in rep.solutions)
        return rep

    def mismatches(self, rep, kind, deg, K, c, F, shift=0):
        """Where ``rep`` differs from the closed form, with the closed
        form's depths moved by ``shift``."""
        D = self.ball(deg, K, c, F, 60)[1]
        out, want = [], []
        for i, g in enumerate(rep.graphs):
            r = int(rep.radii[i])   # unit rho: depths 0 .. r - 1
            depth = np.array([int(v) if kind == "path" else len(v) - 1
                              for v in g.nodes])
            want.append(self.ball(deg, K, c, F, r - 1)[0][
                np.clip(depth + shift, 0, r - 1)])
            err = np.max(np.abs(rep.solutions[i].phi - want[i]))
            if not err <= 1e-12:
                out.append(f"level {i}: phi off by {err:.3g}")
            # the tail: depths from the previous radius on (r / 2 first)
            cut = rep.radii[i - 1] if i else r / 2
            tail = np.linalg.norm(want[i][depth >= cut])
            if (rep.tail_masses[i] != 0.0 if cut >= D else
                    rep.tail_masses[i] != pytest.approx(tail, rel=1e-9)):
                out.append(f"level {i}: tail {rep.tail_masses[i]}")
            if not i:
                continue
            prev = rep.graphs[i - 1]
            inc = gh.sobolev_norms(prev, want[i][:prev.num_nodes]
                                   - want[i - 1]).w_hilbert
            if (rep.increments[i - 1] != 0.0 if rep.radii[i - 1] - 1 >= D
                    else rep.increments[i - 1] != pytest.approx(inc,
                                                                rel=1e-9)):
                out.append(f"level {i}: increment {rep.increments[i - 1]}")
        return out

    @pytest.mark.parametrize("kind, deg, K, c, F, radii, support", CASES)
    def test_levels_increments_and_tails(self, kind, deg, K, c, F, radii,
                                         support):
        far, D = self.ball(deg, K, c, F, 60)
        assert 1 + sum(deg ** np.arange(1, D)) == support
        # two levels or more hold the support and its pinned layer, and
        # there the ball's closed form is the infinite graph's, bitwise
        holding = [r for r in radii if r - 1 >= D]
        assert len(holding) >= 2 and radii[0] - 1 < D
        for r in holding:
            assert np.array_equal(self.ball(deg, K, c, F, r - 1)[0], far[:r])
        rep = self.run(kind, K, c, radii,
                       WeightLaw("root-only", {"value": F}))
        assert self.mismatches(rep, kind, deg, K, c, F) == []
        # the check sees the profile one depth off either way
        for shift in (-1, 1):
            assert self.mismatches(rep, kind, deg, K, c, F, shift)
        # and the load one depth down
        moved = self.run(kind, K, c, radii,
                         lambda depth: F if depth == 1 else 0.0)
        assert self.mismatches(moved, kind, deg, K, c, F)


class TestDocuments:
    DOC = {
        "kind": "path",
        "weights": {"mu": {"formula": "constant", "value": 1.0},
                    "rho": {"formula": "constant", "value": 1.0},
                    "gamma": {"formula": "constant", "value": 1.0},
                    "kappa": {"formula": "constant", "value": 1.0}},
        "f": {"formula": "root-only", "value": 1.0},
    }

    def test_roundtrip(self):
        gen, f_law = generator_from_document(self.DOC)
        assert gen.kind == "path"
        assert f_law(0) == 1.0

    def test_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown keys"):
            generator_from_document({**self.DOC, "color": "red"})
        with pytest.raises(ValueError, match="must be an object"):
            generator_from_document([self.DOC])

    def test_missing_weights(self):
        bad = {k: v for k, v in self.DOC.items() if k != "weights"}
        with pytest.raises(ValueError, match="weights"):
            generator_from_document(bad)

    def test_missing_f(self):
        bad = {k: v for k, v in self.DOC.items() if k != "f"}
        with pytest.raises(ValueError, match="'f'"):
            generator_from_document(bad)
