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


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _table_template(g: WeightedGraph, indent: int) -> str:
    """``template % values`` renders a node table of ``g`` at ``indent``: its
    ids escaped as ``json.dumps`` does, ``%`` doubled; kept on ``g``."""
    if indent not in g._templates:
        pad, escape = "  " * indent, json.encoder.encode_basestring_ascii
        ids = "\0".join(map(escape, g.nodes))   # no escaped id holds a NUL
        body = ids.replace("%", "%%").replace("\0", f": %.17g,\n{pad}  ")
        g._templates[indent] = f"{{\n{pad}  {body}: %.17g\n{pad}}}"
    return g._templates[indent]


def render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, NodeTable) and obj and np.isfinite(obj.values).all():
        # the whole table in one format call; a table with a non-finite
        # value goes entry by entry, as a Mapping
        return _table_template(obj.graph, indent) % tuple(obj.values.tolist())
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        items = ",\n".join(f'{pad}  {json.dumps(str(k))}: '
                           f'{render_json(v, indent + 1)}'
                           for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {render_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
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


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` as UTF-8: a temp file in the same directory, given the
    mode an ordinary write would (that of the file it replaces, else
    ``0o666 & ~umask``), renamed."""
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except OSError:   # nothing to replace
        os.umask(umask := os.umask(0))   # reading the umask means setting it
        mode = 0o666 & ~umask
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".graphhvi-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
