"""Generators, weight laws, ball truncation, and the exhaustion driver."""

import itertools
import math

import numpy as np
import pytest

import graphhvi as gh
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
        with pytest.raises(ValueError, match="not positive"):
            GraphGenerator(kind="path", mu=WeightLaw("root-only",
                                                     {"value": 1.0}),
                           rho=constant(), gamma=constant(),
                           kappa=constant())

    def test_depth_and_ids(self):
        gen = path_generator()
        assert gen.node_id((3,)) == "3"
        tree = GraphGenerator(kind="binary-tree", mu=constant(),
                              rho=constant(), gamma=constant(),
                              kappa=constant())
        assert tree.node_id(("01",)) == "r01"
        lat = GraphGenerator(kind="lattice-2d", mu=constant(),
                             rho=constant(), gamma=constant(),
                             kappa=constant())
        assert lat.node_id((-2, 1)) == "-2,1"


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


def tuple_depth(kind, node):
    if kind == "path":
        return node[0]
    if kind == "binary-tree":
        return len(node[0])
    return abs(node[0]) + abs(node[1])


def all_neighbors(kind, node):
    """Every neighbour of a node, in the order ``children`` keeps."""
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
    levels, dist = [], 0.0
    while not levels or dist < r:
        d = len(levels)
        levels.append(sorted((u for u in node_tuples(gen.kind, d)
                              if tuple_depth(gen.kind, u) == d),
                             key=gen.node_id))
        dist += gen.rho(d)
    nodes = [(gen.node_id(u), gen.mu(d), gen.kappa(d))
             for d, level in enumerate(levels) for u in level]
    adj = [(gen.node_id(u), gen.node_id(v), gen.rho(d), gen.gamma(d))
           for d, level in enumerate(levels[:-1]) for u in level
           for v in all_neighbors(gen.kind, u)
           if tuple_depth(gen.kind, v) == d + 1]
    return from_data(nodes, adj)


def edge_set(g, keep=None):
    """Directed edges as (src id, dst id, rho, gamma), both ends in keep."""
    return {(g.nodes[a], g.nodes[b], r, c) for a, b, r, c in
            zip(g.edge_src, g.edge_dst, g.rho.tolist(), g.gamma.tolist())
            if keep is None or (g.nodes[a] in keep and g.nodes[b] in keep)}


class TestTruncateOracle:
    """``truncate`` against scipy's Dijkstra on a larger truncation, and
    against the same graph built from records by ``from_data``."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_children_are_deeper_neighbours(self, kind):
        gen = depth_generator(kind, RHO_LAWS["constant"])
        for u in node_tuples(kind, 6):
            d = tuple_depth(kind, u)
            assert list(gen.children(u)) == [
                v for v in all_neighbors(kind, u)
                if tuple_depth(kind, v) == d + 1]

    @pytest.mark.parametrize("law", sorted(RHO_LAWS))
    @pytest.mark.parametrize("kind", KINDS)
    def test_arrays_equal_record_build(self, kind, law):
        gen = depth_generator(kind, RHO_LAWS[law])
        for r in RADII:
            g, ref = truncate(gen, r), record_truncation(gen, r)
            assert g.nodes == ref.nodes
            for name in ("mu", "kappa", "edge_src", "edge_dst", "rho",
                         "gamma"):
                a, b = getattr(g, name), getattr(ref, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("law", sorted(RHO_LAWS))
    @pytest.mark.parametrize("kind", KINDS)
    def test_ball_order_and_induced_edges(self, kind, law):
        gen = depth_generator(kind, RHO_LAWS[law])
        big = truncate(gen, BIG_R)
        root = gen.node_id(gen.root)
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
            ref = truncate(gen, r)
            assert g.nodes == ref.nodes
            for name in ("mu", "kappa", "edge_src", "edge_dst", "rho",
                         "gamma"):
                a, b = getattr(g, name), getattr(ref, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name


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
        for eps in (math.nan, math.inf, -1.0):
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
        tuples = {gen.node_id(u): u for u in node_tuples(kind, 8)}
        assert all(s.converged for s in rep.solutions)
        assert len(rep.graphs) == 3
        for g, sol in zip(rep.graphs, rep.solutions):
            f = np.array([f_law(tuple_depth(kind, tuples[v]))
                          for v in g.nodes])
            assert np.max(gh.verify_inclusion(g, sp, sol.phi, f)) <= 1e-8

    def test_one_walk_per_study(self, monkeypatch):
        expanded = []
        real = GraphGenerator.children
        monkeypatch.setattr(GraphGenerator, "children",
                            lambda gen, u: expanded.append(u) or real(gen, u))
        gen = depth_generator("lattice-2d", RHO_LAWS["constant"])
        rep = exhaust(gen, quad_density(0.5), constant(1.0), RADII, 1e-6)
        assert len(rep.graphs) == len(RADII)
        # unit rho: the largest ball (radius 5.5) holds depths 0 to 5, and
        # each node of depth 0 to 4 is expanded exactly once
        assert sorted(expanded) == sorted(
            u for u in node_tuples("lattice-2d", 4))

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
