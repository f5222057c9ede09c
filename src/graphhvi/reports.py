"""Report documents: deterministic machine (JSON) and human rendering.

Machine reports are byte-deterministic for identical inputs: canonical
node order, insertion-ordered keys, floats with 17 significant digits
(lossless round trip).  Non-finite floats are rendered as strings.
"""

from __future__ import annotations

import json
import os
import math
import stat
import tempfile
from collections.abc import Mapping

import numpy as np

from .graphs import NodeTable, WeightedGraph

SCHEMA_VERSION = 2   # cli.main stamps it as every report's first key
DISTINCT_FROM = 1000   # node tables this long may format distinct values


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _table_text(g: WeightedGraph, indent: int) -> str:
    """A node table of ``g`` at ``indent`` with a NUL for each value: its ids
    escaped as ``json.dumps`` does, so that none holds a NUL."""
    pad, escape = "  " * indent, json.encoder.encode_basestring_ascii
    ids = "\0".join(map(escape, g.nodes)).replace("\0", f": \0,\n{pad}  ")
    return f"{{\n{pad}  {ids}: \0\n{pad}}}"


def _float_template(g: WeightedGraph, indent: int) -> str:
    """``template % floats`` renders a node table of ``g`` at ``indent``: its
    text with ``%`` doubled and each value a ``%.17g``; kept on ``g``."""
    key = "%.17g", indent
    if key not in g._templates:
        g._templates[key] = (_table_text(g, indent).replace("%", "%%")
                             .replace("\0", "%.17g"))
    return g._templates[key]


def _id_fragments(g: WeightedGraph, indent: int) -> list:
    """``"".join`` of a copy of this list with the value texts in its odd
    slots (``None`` here) renders a node table of ``g`` at ``indent``; kept
    on ``g``."""
    key = "join", indent
    if key not in g._templates:
        g._templates[key] = [None] * (2 * g.num_nodes + 1)
        g._templates[key][::2] = _table_text(g, indent).split("\0")
    return g._templates[key]


def render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, NodeTable) and obj and np.isfinite(obj.values).all():
        # the whole table in one format call or join; a table with a
        # non-finite value goes entry by entry, as a Mapping
        values = obj.values
        bits, n = values.view(np.int64), len(values)   # -0.0 apart from 0.0
        # at most n / 2 runs of equal values (nodes pinned at a breakpoint)
        # hold at most n / 2 distinct values: then format each of them once
        if (n < DISTINCT_FROM
                or np.count_nonzero(bits[1:] != bits[:-1]) >= n // 2):
            return _float_template(obj.graph, indent) % tuple(values.tolist())
        order = bits.argsort(kind="stable")   # quick on runs, unlike np.unique
        run = bits[order]
        first = np.concatenate(([True], run[1:] != run[:-1]))
        inverse = np.empty_like(order)
        inverse[order] = first.cumsum() - 1
        distinct = values[order[first]].tolist()
        texts = np.array(("%.17g\0" * len(distinct) % tuple(distinct))
                         .split("\0"), dtype=object)
        parts = _id_fragments(obj.graph, indent).copy()
        parts[1::2] = texts[inverse].tolist()
        return "".join(parts)
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        items = ",\n".join(f'{pad}  {json.dumps(str(k))}: '
                           f'{render_json(v, indent + 1)}'
                           for k, v in obj.items())
        return f"{{\n{items}\n{pad}}}"   # one copy of a large report
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {render_json(v, indent + 1)}" for v in obj)
        return f"[\n{items}\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def render_human(doc: dict, title: str) -> str:
    lines = [title, "=" * len(title)]

    def walk(obj, prefix=""):   # a Mapping, list or tuple
        named = isinstance(obj, Mapping)
        for k, v in obj.items() if named else enumerate(obj):
            if isinstance(v, (Mapping, list, tuple)):
                lines.append(f"{prefix}{k}:" if named else f"{prefix}[{k}]")
                walk(v, prefix + "  ")
            else:
                lines.append(f"{prefix}{k}: {v}" if named else f"{prefix}- {v}")

    walk(doc)
    return "\n".join(lines) + "\n"


def write_atomic(path: str, *parts: str) -> None:
    """Write ``parts`` as UTF-8, as ``open(path, "w")`` would (through a
    symlink; the mode of the file it replaces, else ``0o666 & ~umask``):
    a temp file in the target's directory, given that mode, renamed."""
    if os.path.islink(path):   # one lstat; realpath takes one per component
        path = os.path.realpath(path)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:   # nothing to replace; a link loop raises
        os.umask(umask := os.umask(0))   # reading the umask means setting it
        mode = 0o666 & ~umask
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".graphhvi-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
