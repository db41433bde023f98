"""Serialization: canonical JSON round-trips, DOT and DIMACS exports.

The JSON instance schema is the exchange format used by the CLI:

    {"problem": "lbec"|"mded"|"dsct", "directed": bool, "n": int,
     "edges": [[u, v], ...], "s": int?, "t": int?, "k": int, "ell": int}

with an optional parallel "costs" array when the instance carries non-unit
deletion costs (weighted composer output).  Plain graphs and fractals use a
"type"-tagged schema documented in the README.  parse() inverts to_json()
for every canonical form, and parse_instance() for instances alone;
parse_vc() and parse_embedding() read the vertex-cover input of the
reduction and its two-page embedding; DOT and DIMACS are exports only.
The three documents are written by one writer, which passes a document
on in fragments: to_json() joins them once, and `gen` hands them to a
stream, so it never holds its document whole.  Edge
rows are written a batch per ``%`` format from columns: a graph's or an
instance's are read off its edge tuple, and a fractal's are the closed
form's range slices (``fractal.boundary_columns``), so a fractal document
is written, and checked when parsed, from (q, directed, cost) with no
graph, and no per-edge pair, list or string is made on the way.  A graph,
instance or vertex-cover document may declare at most MAX_VERTICES vertices.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from operator import eq, itemgetter
from typing import Optional

from .errors import InputError, ParseError
from .fractal import MAX_DEPTH, TFractal, boundary_columns
from .graph import Graph
from .reducer import PAGES, TwoPageEmbedding, VcInstance
from .reference import ProblemInstance

MAX_VERTICES = 1 << (MAX_DEPTH + 1)
"""Largest vertex count ``n`` a graph, instance or vertex-cover document
may declare: twice the 2**MAX_DEPTH + 1 vertices of the deepest fractal,
which leaves room for inputs composed onto it.  A larger ``n`` is refused
before any graph is built, so a few bytes of input cannot ask for an
n-sized allocation."""

_DOT_PALETTE = ("black", "blue", "forestgreen", "orange", "magenta",
                "red", "teal", "purple", "brown", "gray40", "olive")


def _payload(obj) -> dict:
    """The JSON payload of a fractal, an instance or a graph.  Its edges
    are row batches and the row width: fractals and instances write [u, v]
    rows, plain graphs [u, v, cost, length]."""
    if isinstance(obj, TFractal):
        q, p = obj.depth, obj.tau
        return {"type": "fractal", "q": q, "directed": obj.directed,
                "cost": obj.edge_cost, "sigma": obj.sigma, "tau": p,
                "n": p + 1, "edges": (_column_batches(q), 2),
                "boundaries": obj.boundaries}
    if isinstance(obj, ProblemInstance):
        g = obj.graph
        payload = {
            "problem": obj.kind,
            "directed": g.directed,
            "n": g.n,
            "edges": (_edge_batches(g.edges, 2), 2),
            "k": obj.k,
            "ell": obj.ell,
        }
        if obj.s is not None:
            payload["s"] = obj.s
            payload["t"] = obj.t
        if not g.is_unit:
            payload["costs"] = [e.cost for e in g.edges]
        return payload
    if isinstance(obj, Graph):
        payload = {
            "type": "graph",
            "directed": obj.directed,
            "n": obj.n,
            "edges": (_edge_batches(obj.edges, 4), 4),
        }
        if obj.labels:
            payload["labels"] = {str(v): name for v, name in obj.labels.items()}
        return payload
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json(obj) -> str:
    """The canonical JSON text of a fractal, an instance or a graph: what
    ``json.dumps`` writes for the document with ``indent=2`` and
    ``sort_keys=True``, plus a newline."""
    out = []
    write_json(obj, out.append)
    return "".join(out)


_BATCH = 1024
"""Edge rows, or ints of an int list, that the writer passes on as one
fragment: enough that the per-fragment work does not show, few enough that
no fragment, template or argument tuple comes near the size of a large
edge list."""


def write_json(obj, write) -> None:
    """Pass the text of ``to_json(obj)`` to ``write`` in fragments, so the
    whole document is never held as one string."""
    _write_payload(_payload(obj), write)


def _write_payload(payload: dict, write) -> None:
    """Pass the canonical JSON text of ``payload`` to ``write``.

    ``json.dumps`` drops to its pure-Python encoder whenever ``indent`` is
    set, which dominates writing a large fractal, so the three large
    values are written here, ``_BATCH`` items a fragment: the edge rows
    by ``_emit_rows``, the costs and each boundary row by ``_emit_ints``.
    ``Graph`` refuses an endpoint or a cost that is not an int proper, and
    a fractal's columns and boundaries are ranges, so neither writer tests
    a type.  The keys are ASCII identifiers, written as they are.  Every
    other value is a scalar or the labels, and goes to ``json.dumps``
    indented one level, which is exact because ``json.dumps`` escapes every
    newline in a string.
    """
    sep = "{\n  "
    for key in sorted(payload):
        write(f'{sep}"{key}": ')
        sep = ",\n  "
        value = payload[key]
        if key == "edges":
            _emit_rows(*value, write)
        elif key == "costs":
            _emit_ints(value, "  ", write)
        elif key == "boundaries":
            write("[\n    ")
            for i, row in enumerate(value):
                if i:
                    write(",\n    ")
                _emit_ints(row, "    ", write)
            write("\n  ]")
        else:
            write(json.dumps(value, indent=2, sort_keys=True)
                  .replace("\n", "\n  "))
    write("\n}\n")


def _emit_ints(ints, pad: str, put) -> None:
    """Pass the text of ``ints``, a non-empty list or range of ints whose
    opening bracket is indented by ``pad``, to ``put``, ``_BATCH`` ints a
    fragment."""
    sep = f",\n{pad}  "
    put(f"[\n{pad}  ")
    for start in range(0, len(ints), _BATCH):
        if start:
            put(sep)
        put(sep.join(map(str, ints[start:start + _BATCH])))
    put(f"\n{pad}]")


def _edge_batches(edges: tuple, width: int):
    """The first ``width`` items of each edge, ``_BATCH`` edges a batch, as
    (row count, one column per item)."""
    getters = [itemgetter(j) for j in range(width)]
    for start in range(0, len(edges), _BATCH):
        batch = edges[start:start + _BATCH]
        yield len(batch), [map(get, batch) for get in getters]


def _column_batches(q: int):
    """The depth-q fractal's rows as (row count, [u column, v column]), at
    most ``_BATCH`` rows a batch; a batch never spans two boundaries."""
    for us, vs in boundary_columns(range((1 << q) + 1), q):
        for start in range(0, len(us), _BATCH):
            u = us[start:start + _BATCH]
            yield len(u), [u, vs[start:start + _BATCH]]


def _emit_rows(batches, width: int, put) -> None:
    """Pass the text of an edge list as a payload value to ``put``, a
    batch of ``batches`` at a time: (row count, ``width`` columns).

    A batch goes through one ``%d`` format whose arguments are the columns'
    items, interleaved by slice assignment, so no per-row object is made.
    The full batch's template is joined only once a full batch arrives.
    """
    sep = ",\n    "
    row = ",".join(["\n      %d"] * width).join(("[", "\n    ]"))
    full = None
    lead = "[\n    "
    for count, columns in batches:
        items = [None] * (width * count)
        for j, column in enumerate(columns):
            items[j::width] = column
        put(lead)
        lead = sep
        if count == _BATCH and full is None:
            full = sep.join([row] * _BATCH)
        template = full if count == _BATCH else sep.join([row] * count)
        put(template % tuple(items))
    put("\n  ]" if lead == sep else "[]")


def _field(obj: dict, name: str, kinds) -> object:
    if name not in obj:
        raise ParseError(f"missing field {name!r}")
    value = obj[name]
    # JSON true/false load as bool, a subclass of int: an integer field
    # must hold an integer proper.
    if not (type(value) is int if kinds is int else isinstance(value, kinds)):
        raise ParseError(f"field {name!r} has the wrong type")
    return value


def _optional_int(obj: dict, name: str) -> Optional[int]:
    return _field(obj, name, int) if obj.get(name) is not None else None


def _vertex_count(obj: dict) -> int:
    n = _field(obj, "n", int)
    if n > MAX_VERTICES:
        raise ParseError(f"field 'n' is {n}, above the cap of {MAX_VERTICES}")
    return n


def _first_bad_row(rows: list, lengths: Optional[set] = None) -> Optional[int]:
    """Index of the first entry of ``rows`` that is not a list of integers
    proper (JSON true, false and 1.0 are not) with a length in ``lengths``
    (any when None), or None.  Clean rows pass set tests over ``map`` and
    ``chain``, with no Python-level loop per row."""
    if (set(map(type, rows)) <= {list}
            and (lengths is None or set(map(len, rows)) <= lengths)
            and set(map(type, chain.from_iterable(rows))) <= {int}):
        return None
    return next(i for i, row in enumerate(rows) if not (
        type(row) is list and (lengths is None or len(row) in lengths)
        and all(type(x) is int for x in row)))


def _edge_rows(edges: list, lengths: set, shape: str) -> list:
    bad = _first_bad_row(edges, lengths)
    if bad is not None:
        raise ParseError(f"edges[{bad}] must be {shape}")
    return edges


def _parse_graph_obj(obj: dict) -> Graph:
    directed = _field(obj, "directed", bool)
    n = _vertex_count(obj)
    edges = _edge_rows(_field(obj, "edges", list), {2, 3, 4},
                       "[u, v(, cost(, length))]")
    labels = None
    if "labels" in obj:
        labels = {}
        for key, name in _field(obj, "labels", dict).items():
            if re.fullmatch(r"\d+", key, re.ASCII) is None:
                raise ParseError(f"labels key {key!r} is not a vertex id")
            if not isinstance(name, str):
                raise ParseError(f"labels[{key!r}] must be a string")
            labels[int(key)] = name
    try:
        return Graph(directed, n, edges, labels)
    except Exception as exc:
        raise ParseError(f"invalid graph: {exc}") from exc


def _parse_instance_obj(obj: dict) -> ProblemInstance:
    if "problem" not in obj:
        raise ParseError("unrecognized document: expected a type tag or a problem field")
    kind = _field(obj, "problem", str)
    directed = _field(obj, "directed", bool)
    n = _vertex_count(obj)
    raw = _field(obj, "edges", list)
    costs = obj.get("costs")
    if costs is not None:
        costs = _field(obj, "costs", list)
        if len(costs) != len(raw):
            raise ParseError("costs array must match the edge list")
        if not all(type(c) is int for c in costs):
            raise ParseError("costs must be integers")
    s, t = _optional_int(obj, "s"), _optional_int(obj, "t")
    _edge_rows(raw, {2}, "[u, v]")
    # The checked rows go to Graph as they are; only costed rows are
    # rebuilt, one at a time as Graph reads them.
    edges = raw if costs is None else ((u, v, c) for (u, v), c in zip(raw, costs))
    try:
        g = Graph(directed, n, edges)
        return ProblemInstance(kind, g, s=s, t=t,
                               k=_field(obj, "k", int),
                               ell=_field(obj, "ell", int))
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"invalid instance: {exc}") from exc


def _parse_fractal_obj(obj: dict) -> TFractal:
    q = _field(obj, "q", int)
    directed = _field(obj, "directed", bool)
    cost = _field(obj, "cost", int)
    try:
        f = TFractal(q, directed, cost)
    except InputError as exc:
        raise ParseError(f"invalid fractal parameters: {exc}") from exc
    # The document is held to the closed form and no graph is built, so a
    # few bytes cannot ask for a depth-q build: the scalars and the row
    # counts first, then the rows.  The row type checks come first:
    # == alone takes false, true and 1.0 for 0 and 1.  The rows are then
    # compared with the boundary columns, all u's then all v's, and the
    # boundaries one at a time, so no per-edge list is built for it.
    p = f.tau
    for name, want in (("n", p + 1), ("sigma", f.sigma), ("tau", p)):
        if _field(obj, name, int) != want:
            raise ParseError(f"fractal field {name!r} does not match its parameters")
    rows = obj.get("edges")
    columns = zip(*boundary_columns(range(p + 1), q))
    if not (type(rows) is list and len(rows) == 2 * p - 1
            and _first_bad_row(rows, {2}) is None
            and all(all(map(eq, map(itemgetter(j), rows), chain.from_iterable(column)))
                    for j, column in enumerate(columns))):
        raise ParseError("fractal edge list does not match its parameters")
    rows = obj.get("boundaries")
    if not (type(rows) is list and len(rows) == q + 1
            and _first_bad_row(rows) is None
            and all(map(eq, rows, map(list, f.boundaries)))):
        raise ParseError("fractal boundaries do not match its parameters")
    return f


def _json_object(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError("input nested too deeply") from None
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    return obj


def parse(text: str):
    """Inverse of to_json for graphs, instances, and fractals."""
    obj = _json_object(text)
    if obj.get("type") == "fractal":
        return _parse_fractal_obj(obj)
    if obj.get("type") == "graph":
        return _parse_graph_obj(obj)
    return _parse_instance_obj(obj)


def parse_instance(text: str) -> Optional[ProblemInstance]:
    """What parse() returns for an instance document, or None for a graph
    or fractal document, which is refused on its tag with no row read."""
    obj = _json_object(text)
    if obj.get("type") in ("fractal", "graph"):
        return None
    return _parse_instance_obj(obj)


def parse_vc(text: str) -> VcInstance:
    """Parse a vertex-cover input: {"n": int, "edges": [[u, v], ...], "k": int}."""
    obj = _json_object(text)
    n = _vertex_count(obj)
    edges = _edge_rows(_field(obj, "edges", list), {2}, "[u, v]")
    k = _field(obj, "k", int)
    return VcInstance(Graph(False, n, edges), k)


def parse_embedding(text: str) -> TwoPageEmbedding:
    """Parse a two-page embedding: {"order": [v, ...], "pages": {"u-v": page}}
    with integer vertex ids and each page "upper" or "lower"."""
    obj = _json_object(text)
    order = _field(obj, "order", list)
    if not all(type(v) is int for v in order):
        raise ParseError("order must list integer vertex ids")
    pages = {}
    for key, page in _field(obj, "pages", dict).items():
        match = re.fullmatch(r"(\d+)-(\d+)", key, re.ASCII)
        if match is None:
            raise ParseError(f"pages key {key!r} is not of the form 'u-v'")
        if page not in PAGES:
            raise ParseError(f"pages[{key!r}] must be one of {PAGES}")
        u, v = int(match[1]), int(match[2])
        pages[(min(u, v), max(u, v))] = page
    return TwoPageEmbedding(tuple(order), pages)


# -- exports -----------------------------------------------------------------


def _dot_string(text: str) -> str:
    """``text`` as a quoted DOT string, with backslashes, double quotes and
    line breaks escaped."""
    text = (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\r", "\\r"))
    return f'"{text}"'


_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph",
                           "strict"})


def _dot_id(name: str) -> str:
    """``name`` as a DOT graph ID: as it is when it is a plain identifier
    and no keyword (DOT keywords ignore case), else as a quoted string."""
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) and \
            name.lower() not in _DOT_KEYWORDS:
        return name
    return _dot_string(name)


def to_dot(g: Graph, roles: dict[int, str] | None = None,
           edge_colors: dict[int, str] | None = None,
           name: str = "g") -> str:
    """DOT export; terminal roles land in a node attribute, one graph per file.

    Roles, labels and colors are written as escaped DOT strings, and so is
    a name that is not a plain DOT identifier.
    """
    roles = roles or {}
    labels = g.labels or {}
    edge_colors = edge_colors or {}
    # Each distinct color is quoted once, not once per edge.
    quoted = {c: _dot_string(c) for c in set(edge_colors.values())}
    kind = "digraph" if g.directed else "graph"
    arrow = "->" if g.directed else "--"
    lines = [f"{kind} {_dot_id(name)} {{"]
    for v in range(g.n):
        if v in roles or v in labels:
            attrs = []
            if v in roles:
                attrs.append(f"role={_dot_string(roles[v])}")
            if v in labels:
                attrs.append(f"label={_dot_string(labels[v])}")
            lines.append(f"  {v} [{', '.join(attrs)}];")
        else:
            lines.append(f"  {v};")
    for idx, e in enumerate(g.edges):
        attrs = f"color={quoted[edge_colors[idx]]}" if idx in edge_colors else ""
        if e.cost != 1:
            attrs = f'{attrs}, weight="{e.cost}"' if attrs else f'weight="{e.cost}"'
        lines.append(f"  {e.u} {arrow} {e.v} [{attrs}];" if attrs
                     else f"  {e.u} {arrow} {e.v};")
    lines.append("}\n")  # the final newline, inside the one join
    return "\n".join(lines)


def fractal_to_dot(f: TFractal) -> str:
    """DOT export with one color per boundary ring."""
    colors = {}
    for level, boundary in enumerate(f.boundaries):
        colors.update(dict.fromkeys(boundary, _DOT_PALETTE[level % len(_DOT_PALETTE)]))
    return to_dot(f.graph, roles={f.sigma: "sigma", f.tau: "tau"},
                  edge_colors=colors, name=f"fractal_q{f.depth}")


def to_dimacs(g: Graph) -> str:
    """DIMACS edge format, 1-indexed; parallel edges repeat their line."""
    lines = [f"p edge {g.n} {len(g.edges)}"]
    for e in g.edges:
        lines.append(f"e {e.u + 1} {e.v + 1}")
    lines.append("")  # the final newline, inside the one join
    return "\n".join(lines)
