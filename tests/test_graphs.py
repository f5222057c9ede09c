"""Graph construction, validation, and metric structure."""

import json
import math
import numbers
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphhvi as gh
from graphhvi import reports
from graphhvi.graphs import GraphFormatError, distances_from

from conftest import make_random_graph


def triangle():
    return gh.from_data(
        [("a", 1.0, 2.0), ("b", 0.5, 1.0), ("c", 2.0, 0.25)],
        [("a", "b", 1.0, 3.0), ("b", "c", 2.0, 0.5), ("a", "c", 0.25, 1.0)],
    )


class TestFromData:
    def test_roundtrip_basics(self):
        g = triangle()
        assert g.nodes == ("a", "b", "c")
        assert g.num_nodes == 3
        # both orientations materialized
        assert g.num_edges == 6
        np.testing.assert_allclose(g.mu, [1.0, 0.5, 2.0])
        np.testing.assert_allclose(g.kappa, [2.0, 1.0, 0.25])
        assert g.node_index("b") == 1
        with pytest.raises(GraphFormatError, match="unknown node id: 'z'"):
            g.node_index("z")
        assert g.mu_total == 3.5

    def test_orientation_symmetry(self):
        g = make_random_graph(np.random.default_rng(0), max_nodes=40)
        pairs = {}
        for s, d, r, c in zip(g.edge_src, g.edge_dst, g.rho, g.gamma):
            pairs[(int(s), int(d))] = (r, c)
        for (s, d), (r, c) in pairs.items():
            assert pairs[(d, s)] == (r, c)

    def test_duplicate_node_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate node"):
            gh.from_data([("a", 1, 1), ("a", 1, 1)], [])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            gh.from_data([("a", 1, 1)], [("a", "a", 1, 1)])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, True,
                                     10 ** 400])
    def test_nonpositive_weights_rejected(self, bad):
        with pytest.raises(GraphFormatError, match="non-positive"):
            gh.from_data([("a", bad, 1)], [])
        with pytest.raises(GraphFormatError, match="non-positive"):
            gh.from_data([("a", 1, 1), ("b", 1, 1)],
                         [("a", "b", bad, 1)])

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphFormatError, match="graph has no nodes"):
            gh.from_data([], [])
        with pytest.raises(GraphFormatError, match="graph has no nodes"):
            gh.load_graph({"nodes": [], "adjacencies": []})

    def test_unknown_node_rejected(self):
        with pytest.raises(GraphFormatError, match="unknown node"):
            gh.from_data([("a", 1, 1)], [("a", "z", 1, 1)])

    def test_duplicate_adjacency_rejected(self):
        # also rejected when written in the opposite orientation
        with pytest.raises(GraphFormatError, match="duplicate adjacency"):
            gh.from_data([("a", 1, 1), ("b", 1, 1)],
                         [("a", "b", 1, 1), ("b", "a", 2, 2)])

    def test_record_width_names_its_list(self):
        with pytest.raises(GraphFormatError,
                           match="^every node record must have 3 fields$"):
            gh.from_data([("a", 1)], [])
        with pytest.raises(GraphFormatError,
                           match="^every adjacency record must have 4 fields$"):
            gh.from_data([("a", 1, 1), ("b", 1, 1)], [("a", "b", 1)])
        # the adjacency width comes before a bad node, as in load_graph
        with pytest.raises(GraphFormatError, match="every adjacency record"):
            gh.from_data([("a", 0, 1), ("a", 1, 1)], [("a", "b", 1, 1, 1)])

    def test_arrays_read_only(self):
        g = triangle()
        with pytest.raises(ValueError):
            g.mu[0] = 7.0


class TestLoadGraph:
    DOC = {
        "nodes": [{"id": "a", "mu": 1.0, "kappa": 2.0},
                  {"id": "b", "mu": 0.5, "kappa": 1.0}],
        "adjacencies": [{"a": "a", "b": "b", "rho": 1.0, "gamma": 3.0}],
    }

    def test_from_dict(self):
        g = gh.load_graph(self.DOC)
        assert g.nodes == ("a", "b")
        assert g.num_edges == 2

    def test_from_path_starting_with_brace(self, tmp_path, monkeypatch):
        # a path is a path, even when it reads like the start of an object
        monkeypatch.chdir(tmp_path)
        (tmp_path / "{g}.json").write_text(json.dumps(self.DOC))
        g = gh.load_graph("{g}.json")
        assert g.nodes == ("a", "b")

    def test_from_path(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(json.dumps(self.DOC))
        g = gh.load_graph(str(p))
        assert g.num_nodes == 2

    def test_unknown_top_level_key(self):
        with pytest.raises(GraphFormatError, match="unknown keys"):
            gh.load_graph({**self.DOC, "color": "blue"})

    def test_malformed_node_record(self):
        with pytest.raises(GraphFormatError, match="malformed node"):
            gh.load_graph({"nodes": [{"id": "a", "mu": 1.0}],
                           "adjacencies": []})

    def test_malformed_adjacency_record(self):
        with pytest.raises(GraphFormatError, match="malformed adjacency"):
            gh.load_graph({"nodes": self.DOC["nodes"],
                           "adjacencies": [{"a": "a", "b": "b"}]})

    def test_missing_nodes(self):
        with pytest.raises(GraphFormatError, match="missing 'nodes'"):
            gh.load_graph({"adjacencies": []})
        with pytest.raises(GraphFormatError, match="must be a JSON object"):
            gh.load_graph([{"id": "a"}])
        with pytest.raises(GraphFormatError, match="must be lists"):
            gh.load_graph({"nodes": {"a": 1.0}})


class TestNodeFunctions:
    def test_dict_exact_support(self):
        g = triangle()
        phi = gh.node_function(g, {"a": 1, "b": 2, "c": 3})
        np.testing.assert_allclose(phi, [1, 2, 3])

    def test_dict_missing_or_extra(self):
        g = triangle()
        with pytest.raises(GraphFormatError, match="support mismatch"):
            gh.node_function(g, {"a": 1, "b": 2})
        with pytest.raises(GraphFormatError, match="support mismatch"):
            gh.node_function(g, {"a": 1, "b": 2, "c": 3, "d": 4})

    def test_array_shape(self):
        g = triangle()
        with pytest.raises(GraphFormatError, match="shape"):
            gh.node_function(g, [1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, None])
    def test_non_finite_values(self, bad):
        g = triangle()
        with pytest.raises(GraphFormatError):
            gh.node_function(g, {"a": 1, "b": bad, "c": 3})
        with pytest.raises(GraphFormatError):
            gh.node_function(g, [1.0, bad, 3.0])

    def test_node_table_roundtrip(self):
        g = triangle()
        phi = np.array([0.5, -1.0, 2.5])
        table = gh.NodeTable(g, phi)
        np.testing.assert_allclose(gh.node_function(g, table), phi)


class TestJsonIds:
    IDS = ["plain", 'say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f",
           "caf\u00e9", "\u65e5\u672c", "\U0001d11e", "\ud800", "", " ",
           "%s", "%.17g", "%%", "%(x)s", "%d"]

    def test_equal_json_dumps(self):
        g = gh.from_data([(v, 1.0, 1.0) for v in self.IDS], [])
        x = [0.1 * k - 0.5 for k in range(len(self.IDS))]
        parts = reports._id_fragments(g, 1).copy()
        parts[1::2] = ["%.17g" % t for t in x]
        for text in [reports._float_template(g, 1) % tuple(x), "".join(parts)]:
            assert text == ("{\n" + ",\n".join(f"    {json.dumps(v)}: {t:.17g}"
                                               for v, t in zip(self.IDS, x))
                            + "\n  }")
            assert list(json.loads(text).items()) == list(zip(self.IDS, x))
        assert reports._float_template(g, 1) is g._templates["%.17g", 1]
        assert reports._id_fragments(g, 1) is g._templates["join", 1]


class TestMetricStructure:
    def path3(self):
        return gh.from_data(
            [("a", 1, 1), ("b", 1, 1), ("c", 1, 1)],
            [("a", "b", 1.0, 1.0), ("b", "c", 2.0, 1.0)],
        )

    def test_degrees(self):
        g = triangle()
        d = gh.degrees(g)
        # a touches rho = 1.0 and 0.25, b touches 1.0 and 2.0
        assert d[g.node_index("a")] == pytest.approx(1.25)
        assert d[g.node_index("b")] == pytest.approx(3.0)

    def test_in_and_out_degrees_agree_bitwise(self):
        # the reason one degree column says it all
        rng = np.random.default_rng(4)
        for _ in range(50):
            g = make_random_graph(rng, max_nodes=40)
            out = np.bincount(g.edge_src, g.rho, g.num_nodes)
            inn = np.bincount(g.edge_dst, g.rho, g.num_nodes)
            assert out.tobytes() == inn.tobytes()
            assert gh.degrees(g).tobytes() == out.tobytes()

    def test_rho_distance(self):
        g = self.path3()
        assert distances_from(g, "a").tolist() == pytest.approx([0, 1, 3])

    def test_disconnected_distance_is_inf(self):
        g = gh.from_data([("a", 1, 1), ("b", 1, 1)], [])
        # an edgeless graph: 0 at the centre, inf elsewhere
        d = distances_from(g, "b")
        assert d.dtype == float and d.tolist() == [np.inf, 0.0]

    def test_ball_is_strict(self):
        g = self.path3()
        assert gh.ball(g, "a", 1.0) == {"a"}
        assert gh.ball(g, "a", 1.5) == {"a", "b"}
        assert gh.ball(g, "a", 100.0) == {"a", "b", "c"}
        with pytest.raises(ValueError):
            gh.ball(g, "a", 0.0)

    def test_nan_radius_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            gh.ball(self.path3(), "a", math.nan)

    def test_unhashable_center_is_unknown(self):
        with pytest.raises(GraphFormatError,
                           match=r"unknown node id: \['a'\]"):
            gh.ball(self.path3(), ["a"], 1.0)

    def test_volume_counts_both_orientations(self):
        assert gh.volume(self.path3()) == pytest.approx(6.0)

    @given(r1=st.floats(0.1, 10.0), r2=st.floats(0.1, 10.0))
    def test_ball_monotone_in_radius(self, r1, r2):
        g = self.path3()
        small, large = sorted((r1, r2))
        assert gh.ball(g, "b", small) <= gh.ball(g, "b", large)


# -- the per-record loader, kept as the oracle of the column-wise one -------


def _old_weight(x, name, rec):
    if (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and 0 < x <= sys.float_info.max):
        return float(x)
    raise GraphFormatError(f"non-positive or non-finite {name} in record "
                           f"{rec!r}")


def old_from_data(nodes, adjacencies):
    ids, mu, kappa = [], [], []
    seen = set()
    for rec in nodes:
        vid, m, k = rec
        if vid in seen:
            raise GraphFormatError(f"duplicate node id in record {rec!r}")
        seen.add(vid)
        ids.append(str(vid))
        mu.append(_old_weight(m, "measure", rec))
        kappa.append(_old_weight(k, "kappa", rec))
    if not ids:
        raise GraphFormatError("graph has no nodes")
    index = {v: i for i, v in enumerate(ids)}
    src, dst, rho, gamma = [], [], [], []
    seen_adj = set()
    for rec in adjacencies:
        a, b, r, g = rec
        if a == b:
            raise GraphFormatError(f"self-loop in record {rec!r}")
        if a not in index or b not in index:
            raise GraphFormatError(f"reference to unknown node in record "
                                   f"{rec!r}")
        key = (min(a, b), max(a, b))
        if key in seen_adj:
            raise GraphFormatError(f"duplicate adjacency in record {rec!r}")
        seen_adj.add(key)
        r, g = _old_weight(r, "rho", rec), _old_weight(g, "gamma", rec)
        ia, ib = index[a], index[b]
        src += [ia, ib]
        dst += [ib, ia]
        rho += [r, r]
        gamma += [g, g]
    return (tuple(ids), np.asarray(mu, dtype=float),
            np.asarray(kappa, dtype=float), np.asarray(src, dtype=np.intp),
            np.asarray(dst, dtype=np.intp), np.asarray(rho, dtype=float),
            np.asarray(gamma, dtype=float))


def old_load_graph(document):
    nodes = []
    for rec in document["nodes"]:
        if (not isinstance(rec, dict) or set(rec) != {"id", "mu", "kappa"}
                or not isinstance(rec["id"], str)):
            raise GraphFormatError(f"malformed node record {rec!r}")
        nodes.append((rec["id"], rec["mu"], rec["kappa"]))
    adjacencies = []
    for rec in document["adjacencies"]:
        if (not isinstance(rec, dict) or set(rec) != {"a", "b", "rho", "gamma"}
                or not isinstance(rec["a"], str)
                or not isinstance(rec["b"], str)):
            raise GraphFormatError(f"malformed adjacency record {rec!r}")
        adjacencies.append((rec["a"], rec["b"], rec["rho"], rec["gamma"]))
    return old_from_data(nodes, adjacencies)


BIG = 10 ** 400   # an int that no float can hold
WEIGHTS = st.one_of(st.floats(1e-3, 1e3), st.integers(1, 1000))
BAD_WEIGHTS = [True, False, "1.0", None, [], math.nan, math.inf, -math.inf,
               0.0, -1.0, 0, -3, BIG, -BIG]
BAD_RECORDS = [3, "v", [], None, {"id": "z"}]
BAD_IDS = [1, None, ["v0"], True]
KEYS = {"nodes": ("id", "mu", "kappa"), "adjacencies": ("a", "b", "rho", "gamma")}
FAULTS = ["node-malformed", "node-weight", "node-duplicate",
          "adjacency-malformed", "adjacency-weight", "adjacency-duplicate",
          "self-loop", "unknown", "reversed"]


@st.composite
def graph_documents(draw):
    """A valid graph document (int and float weights; possibly no
    adjacencies) and the same document with 1 to 3 planted faults."""
    n = draw(st.integers(1, 8))
    ids = [f"v{i}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1))
                          .filter(lambda p: p[0] < p[1]),
                          unique=True, max_size=12))
    doc = {"nodes": [{"id": v, "mu": draw(WEIGHTS), "kappa": draw(WEIGHTS)}
                     for v in ids],
           "adjacencies": [{"a": ids[i], "b": ids[j], "rho": draw(WEIGHTS),
                            "gamma": draw(WEIGHTS)}
                           for i, j in (p if draw(st.booleans()) else p[::-1]
                                        for p in pairs)]}
    bad = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        fault = draw(st.sampled_from(FAULTS))
        section = "nodes" if fault.startswith("node") else "adjacencies"
        recs = bad[section]
        keys = KEYS[section]
        if not recs:
            continue
        at = draw(st.integers(0, len(recs) - 1))
        rec = recs[at]
        if not isinstance(rec, dict) or not set(keys) <= set(rec):
            continue   # an earlier fault already broke this record
        if fault.endswith("malformed"):
            recs[at] = draw(st.sampled_from(
                BAD_RECORDS + [dict(rec, color="blue"),
                               dict(list(rec.items())[1:])]
                + [dict(rec, **{k: draw(st.sampled_from(BAD_IDS))})
                   for k in ("id", "a", "b") if k in rec]))
        elif fault.endswith("weight"):
            rec[draw(st.sampled_from(keys[-2:]))] = draw(
                st.sampled_from(BAD_WEIGHTS))
        elif fault.endswith("duplicate"):   # its copy may have a bad weight
            copy = dict(rec)
            if draw(st.booleans()):
                copy[draw(st.sampled_from(keys[-2:]))] = draw(
                    st.sampled_from(BAD_WEIGHTS))
            recs.insert(draw(st.integers(0, len(recs))), copy)
        elif fault == "self-loop":
            rec["b"] = rec["a"]
        elif fault == "unknown":
            rec[draw(st.sampled_from(["a", "b"]))] = "ghost"
        else:   # the same adjacency again, in the other orientation
            recs.insert(draw(st.integers(0, len(recs))),
                        dict(rec, a=rec["b"], b=rec["a"]))
    return doc, bad


def _outcome(load, doc):
    try:
        return load(doc)
    except GraphFormatError as exc:
        return str(exc)


def _arrays(g):
    return (g.nodes, g.mu, g.kappa, g.edge_src, g.edge_dst, g.rho, g.gamma)


class TestLoaderOracle:
    @settings(deadline=None, max_examples=300)
    @given(graph_documents())
    def test_matches_per_record_loader(self, docs):
        for doc in docs:
            old = _outcome(old_load_graph, doc)
            new = _outcome(gh.load_graph, doc)
            if isinstance(old, str):
                assert new == old
                continue
            assert not isinstance(new, str), new
            for a, b in zip(_arrays(new), old):
                if isinstance(a, tuple):
                    assert a == b
                else:
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        doc = docs[0]   # valid: the same arrays from tuple records
        recs = ([tuple(r.values()) for r in doc["nodes"]],
                [tuple(r.values()) for r in doc["adjacencies"]])
        for a, b in zip(_arrays(gh.from_data(*recs)), old_from_data(*recs)):
            assert a == b if isinstance(a, tuple) else a.tobytes() == b.tobytes()

    DOC = {"nodes": [{"id": v, "mu": 1.0, "kappa": 2.0} for v in "abc"],
           "adjacencies": [{"a": "a", "b": "b", "rho": 1.0, "gamma": 1.0},
                           {"a": "c", "b": "b", "rho": 2.0, "gamma": 1.0}]}

    class Id(str):
        pass

    @pytest.mark.parametrize("section, at, change, outcome", [
        # the right number of keys, one of them misspelled
        ("nodes", 1, {"id": "b", "mu": 1.0, "kapa": 2.0},
         "malformed node record"),
        ("adjacencies", 0, {"a": "a", "b": "b", "rho": 1.0, "gama": 1.0},
         "malformed adjacency record"),
        # a str subclass is a string id, in nodes and in adjacencies
        ("nodes", 0, {"id": Id("a"), "mu": 1.0, "kappa": 2.0}, None),
        ("adjacencies", 1, {"a": Id("c"), "b": "b", "rho": 2.0,
                            "gamma": 1.0}, None),
        # unknown ends: one id at both ends is first of all a self-loop
        ("adjacencies", 1, {"a": "x", "b": "x", "rho": 2.0, "gamma": 1.0},
         "self-loop in record ('x', 'x', 2.0, 1.0)"),
        ("adjacencies", 1, {"a": "x", "b": "y", "rho": 2.0, "gamma": 1.0},
         "reference to unknown node in record ('x', 'y', 2.0, 1.0)"),
        ("adjacencies", 1, {"a": "x", "b": "b", "rho": 2.0, "gamma": 1.0},
         "reference to unknown node in record ('x', 'b', 2.0, 1.0)"),
    ])
    def test_fast_path_cases(self, section, at, change, outcome):
        doc = json.loads(json.dumps(self.DOC))
        doc[section][at] = change
        old = _outcome(old_load_graph, doc)
        new = _outcome(gh.load_graph, doc)
        if outcome is None:
            assert not isinstance(new, str), new
            assert [type(v) for v in new.nodes] == [str] * 3
            for a, b in zip(_arrays(new), old):
                assert a == b if isinstance(a, tuple) else a.tobytes() == b.tobytes()
        else:
            assert new == old and new.startswith(outcome)

    def test_mapping_load_of_the_same_length(self):
        # as many keys as nodes, but one node missing and one key extra
        g = gh.load_graph(self.DOC)
        with pytest.raises(GraphFormatError) as exc:
            gh.node_function(g, {"a": 1.0, "c": 2.0, "d": 3.0})
        assert str(exc.value) == ("node function support mismatch: "
                                  "missing=['b'], extra=['d']")

    def test_record_arity(self):
        with pytest.raises(GraphFormatError, match="3 fields"):
            gh.from_data([("a", 1.0, 1.0), ("b", 1.0, 1.0, 1.0)], [])
