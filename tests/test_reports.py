"""Deterministic report rendering and atomic output."""

import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphhvi as gh
from graphhvi import reports
from graphhvi.graphs import NodeTable, WeightedGraph


def old_render_json(obj, indent: int = 0) -> str:
    """The per-scalar renderer that node tables used to go through, kept as
    the oracle of byte-identical output."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f'{pad}  {json.dumps(str(k))}: '
                           f'{old_render_json(v, indent + 1)}'
                           for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {old_render_json(v, indent + 1)}"
                           for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return reports._fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def old_render_human(doc: dict, title: str) -> str:
    lines = [title, "=" * len(title)]

    def walk(obj, prefix=""):
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list, tuple)):
                    lines.append(f"{prefix}{k}:")
                    walk(v, prefix + "  ")
                else:
                    lines.append(f"{prefix}{k}: {v}")
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                if isinstance(v, (dict, list, tuple)):
                    lines.append(f"{prefix}[{i}]")
                    walk(v, prefix + "  ")
                else:
                    lines.append(f"{prefix}- {v}")

    walk(doc)
    return "\n".join(lines) + "\n"


def as_dicts(obj):
    """``obj`` with every node table built as the dict it used to be."""
    if isinstance(obj, NodeTable):
        return {v: float(obj.values[i]) for i, v in enumerate(obj.graph.nodes)}
    if isinstance(obj, dict):
        return {k: as_dicts(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [as_dicts(v) for v in obj]
    return obj


SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2e-308,
           1.7976931348623157e308, 0.1, 1e16, 123456789.0]
floats = st.one_of(st.sampled_from(SPECIAL), st.floats())
# ids that JSON must escape, non-ASCII ids and ids with format characters,
# up to format directives such as "%.17g" and "%(a)s"
ids = st.text(st.sampled_from('ab"\\\x00\x1f\n\té%{} ,:s.17g()'),
              max_size=5)
# ids that are themselves format directives
DIRECTIVES = ["%s", "%.17g", "%%", "%(x)s", "%d"]


def graph_of(nodes) -> WeightedGraph:
    n = len(nodes)
    empty = np.zeros(0, dtype=np.intp)
    return WeightedGraph(tuple(nodes), np.ones(n), np.ones(n), empty, empty,
                         np.zeros(0), np.zeros(0))


@st.composite
def documents(draw):
    """A nested report with node tables over one or two graphs (one may be
    empty), plain dicts and lists, and scalars."""
    graphs = [graph_of(draw(st.lists(ids, unique=True, max_size=6)))
              for _ in range(2)]

    def table(g):
        n = g.num_nodes
        return NodeTable(g, np.array(draw(st.lists(floats, min_size=n,
                                                   max_size=n)), dtype=float))

    tables = st.sampled_from(graphs).map(table)
    scalars = st.one_of(floats, st.integers(), st.booleans(), st.none(), ids)
    tree = st.recursive(
        st.one_of(scalars, tables),
        lambda sub: st.one_of(st.lists(sub, max_size=3),
                              st.dictionaries(ids, sub, max_size=3)),
        max_leaves=8)
    return draw(st.dictionaries(ids, tree, max_size=4))


class TestRenderJson:
    def test_valid_json_and_determinism(self):
        doc = {"a": 1, "b": [1.5, 2.0, True, None], "c": {"x": "y"}}
        text = reports.render_json(doc)
        assert json.loads(text) == doc
        assert text == reports.render_json(doc)

    def test_float_precision_round_trip(self):
        x = 1.0 / 3.0
        text = reports.render_json({"x": x})
        assert json.loads(text)["x"] == x

    def test_nonfinite_as_strings(self):
        text = reports.render_json({"a": math.inf, "b": -math.inf,
                                    "c": math.nan})
        parsed = json.loads(text)
        assert parsed == {"a": "inf", "b": "-inf", "c": "nan"}

    def test_empty_containers(self):
        assert reports.render_json({}) == "{}"
        assert reports.render_json([]) == "[]"

    def test_bool_not_rendered_as_int(self):
        assert reports.render_json(True) == "true"
        assert reports.render_json(1) == "1"
        assert reports.render_json(None) == "null"


class TestNodeTableRendering:
    @settings(deadline=None, max_examples=150)
    @given(documents())
    def test_matches_old_renderer(self, doc):
        old = as_dicts(doc)
        assert reports.render_json(doc) == old_render_json(old)
        assert reports.render_human(doc, "title") == old_render_human(old,
                                                                      "title")

    @pytest.mark.parametrize("values", [
        [0.1, -2.0, 1e300, 5e-324, -0.0, 3.0],
        [math.nan, 1.0, math.inf, -math.inf, 0.5, math.nan]])
    def test_directive_ids(self, values):
        g = graph_of([*DIRECTIVES, "%"])
        table = NodeTable(g, np.array(values))
        for indent in range(4):
            assert (reports.render_json(table, indent)
                    == old_render_json(as_dicts(table), indent))
        # the graph's templates are reused by the next document
        docs = [{"a": table, "b": [table, {"c": table}]},
                {"d": [{"e": table}], "f": table}]
        for doc in docs + docs:
            assert reports.render_json(doc) == old_render_json(as_dicts(doc))

    def test_mapping_view(self):
        g = graph_of(["a", "b"])
        table = gh.NodeTable(g, np.array([1.5, -0.0]))
        assert table["a"] == 1.5 and set(table) == {"a", "b"}
        assert dict(table) == {"a": 1.5, "b": -0.0}
        with pytest.raises(KeyError):
            table["c"]


class TestHumanRendering:
    def test_title_and_scalars(self):
        text = reports.render_human({"alpha": 1, "nested": {"b": 2}}, "title")
        assert text.startswith("title\n=====\n")
        assert "alpha: 1" in text
        assert "  b: 2" in text


class TestAtomicWrite:
    def test_write_and_overwrite(self, tmp_path):
        path = tmp_path / "out.json"
        reports.write_atomic(str(path), "first\n")
        assert path.read_text() == "first\n"
        reports.write_atomic(str(path), "second\n")
        assert path.read_text() == "second\n"
        # no temp files left behind
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_mode_of_an_ordinary_write(self, tmp_path, umask):
        # as open() writes: 0o666 & ~umask for a new file, and the mode
        # of a file it overwrites
        path, plain = tmp_path / "out.json", tmp_path / "plain.json"
        old = os.umask(umask)
        try:
            plain.write_text("plain\n")
            reports.write_atomic(str(path), "first\n")
            first = stat.S_IMODE(path.stat().st_mode)
            assert first == stat.S_IMODE(plain.stat().st_mode)
            path.chmod(0o640)
            plain.chmod(0o640)
            reports.write_atomic(str(path), "second\n")
            plain.write_text("second\n")
        finally:
            os.umask(old)
        assert first == 0o666 & ~umask
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert stat.S_IMODE(plain.stat().st_mode) == 0o640
        assert path.read_text() == "second\n"
