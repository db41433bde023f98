"""Serialization: canonical JSON round-trips, DOT and DIMACS exports.

The JSON instance schema is the exchange format used by the CLI:

    {"problem": "lbec"|"mded"|"dsct", "directed": bool, "n": int,
     "edges": [[u, v], ...], "s": int?, "t": int?, "k": int, "ell": int}

with an optional parallel "costs" array when the instance carries non-unit
deletion costs (weighted composer output).  Plain graphs and fractals use a
"type"-tagged schema documented in the README.  parse() inverts to_json()
for every canonical form; parse_vc() and parse_embedding() read the
vertex-cover input of the reduction and its two-page embedding; DOT and
DIMACS are exports only.  Every JSON document is written by one writer,
_emit(), which passes the document on in fragments: pretty_json() and
to_json() join them once, and write_json() hands them to a stream, so
`gen` never holds its document whole.  Edge rows are written straight off
the graph's edge tuple, a batch of rows per ``%`` format, so no per-edge
pair, list or string is made on the way.  A graph, instance or
vertex-cover document may declare at most MAX_VERTICES vertices.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from operator import eq, itemgetter
from typing import Optional

from .errors import ParseError
from .fractal import MAX_DEPTH, TFractal, build_fractal
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


class _EdgeRows:
    """The rows of a JSON payload's edge list: each edge's first ``width``
    items, read off the graph's own edge tuple when written."""

    __slots__ = ("edges", "width")

    def __init__(self, edges: tuple, width: int):
        self.edges = edges
        self.width = width


def _payload(obj) -> dict:
    """The JSON payload of a fractal, an instance or a graph.  Fractals and
    instances write [u, v] edge rows, plain graphs [u, v, cost, length]."""
    if isinstance(obj, TFractal):
        return {
            "type": "fractal",
            "q": obj.depth,
            "directed": obj.graph.directed,
            "cost": obj.edge_cost,
            "sigma": obj.sigma,
            "tau": obj.tau,
            "n": obj.graph.n,
            "edges": _EdgeRows(obj.graph.edges, 2),
            "boundaries": obj.boundaries,
        }
    if isinstance(obj, ProblemInstance):
        g = obj.graph
        payload = {
            "problem": obj.kind,
            "directed": g.directed,
            "n": g.n,
            "edges": _EdgeRows(g.edges, 2),
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
            "edges": _EdgeRows(obj.edges, 4),
        }
        if obj.labels:
            payload["labels"] = {str(v): name
                                 for v, name in sorted(obj.labels.items())}
        return payload
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json(obj) -> str:
    """The canonical JSON text of a fractal, an instance or a graph."""
    return pretty_json(_payload(obj))


def write_json(obj, write) -> None:
    """Pass the text of ``to_json(obj)`` to ``write`` in fragments, so the
    whole document is never held as one string.  A TypeError, which only a
    graph built in code with non-JSON values can raise, leaves part of the
    text written."""
    _emit(_payload(obj), "", write)
    write("\n")


def pretty_json(payload) -> str:
    """The canonical text of a JSON document: what the standard library's
    ``json.dumps`` writes with ``indent=2`` and ``sort_keys=True``, plus a
    newline."""
    out = []
    _emit(payload, "", out.append)
    out.append("\n")
    return "".join(out)


_BATCH = 1024
"""Rows of a row list, or ints of an int list, that ``_emit`` writes as one
fragment: enough that the per-fragment work does not show, few enough that
no fragment, template or argument tuple comes near the size of a large
edge list."""


def _emit(obj, pad: str, put) -> None:
    """Pass the ``pretty_json`` text of ``obj``, without the final newline,
    to ``put`` in fragments, for a value whose first line is indented by
    ``pad``.

    ``pretty_json`` joins the fragments once and ``write_json`` passes them
    on.  A writer that returned each value's text would copy a large
    document again at every enclosing list and dict, and once more for the
    newline.  No fragment spans more than ``_BATCH`` list items, so a
    streamed document is never held whole.

    ``json.dumps`` drops to its pure-Python encoder whenever ``indent`` is
    set, which dominates writing a large fractal.  This writer takes the
    same type tests in the same order, sends strings, floats, booleans and
    None to ``json.dumps`` (so escaping is the standard library's), joins a
    list of ints ``_BATCH`` at a time, and writes rows of ints (a list of
    int pairs, or a graph's edges) through ``_emit_rows``.  The type tests
    run as set comparisons over ``map``, with no Python-level loop per
    item.  A dict key that is not a string raises TypeError instead of
    being coerced, and so does any value ``json.dumps`` would reject.
    """
    inner = pad + "  "
    sep = f",\n{inner}"
    if isinstance(obj, (str, float)) or obj is None or obj is True or obj is False:
        put(json.dumps(obj))
    elif isinstance(obj, int):
        put(int.__repr__(obj))
    elif isinstance(obj, _EdgeRows):
        _emit_rows(obj.edges, obj.width, pad, put)
    elif isinstance(obj, (list, tuple)) and obj:
        kinds = set(map(type, obj))
        if kinds == {int}:
            put(f"[\n{inner}")
            for start in range(0, len(obj), _BATCH):
                if start:
                    put(sep)
                put(sep.join(map(str, obj[start:start + _BATCH])))
            put(f"\n{pad}]")
        # Row types are tested first, so len() is safe.
        elif kinds <= {list, tuple} and set(map(len, obj)) == {2}:
            _emit_rows(obj, 2, pad, put)
        else:
            put(f"[\n{inner}")
            for i, x in enumerate(obj):
                if i:
                    put(sep)
                _emit(x, inner, put)
            put(f"\n{pad}]")
    elif isinstance(obj, dict) and obj:
        for key in obj:
            if type(key) is not str:
                raise TypeError(f"dict key {key!r} is not a string")
        put(f"{{\n{inner}")
        for i, key in enumerate(sorted(obj)):
            if i:
                put(sep)
            put(f"{json.dumps(key)}: ")
            _emit(obj[key], inner, put)
        put(f"\n{pad}}}")
    elif isinstance(obj, (list, tuple, dict)):
        put("{}" if isinstance(obj, dict) else "[]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit_rows(rows, width: int, pad: str, put) -> None:
    """Pass the text of ``rows``, a sequence of sequences of at least
    ``width`` items each, written as a list of rows of their first
    ``width`` items, to ``put``.

    Rows go ``_BATCH`` at a time through one ``%`` format whose arguments
    are the rows' items, interleaved by slice assignment, so no per-row
    object is made.  A batch holding an item that is not an int proper
    (true, 1.0) is written row by row through ``_emit``, as ``json.dumps``
    would write it.
    """
    if not rows:
        put("[]")
        return
    inner = pad + "  "
    sep = f",\n{inner}"
    row = ",".join([f"\n{inner}  %d"] * width).join(("[", f"\n{inner}]"))
    full = sep.join([row] * _BATCH)
    getters = [itemgetter(j) for j in range(width)]
    put(f"[\n{inner}")
    for start in range(0, len(rows), _BATCH):
        batch = rows[start:start + _BATCH]
        items = [None] * (width * len(batch))
        for j, get in enumerate(getters):
            items[j::width] = map(get, batch)
        if start:
            put(sep)
        if set(map(type, items)) == {int}:
            template = (full if len(batch) == _BATCH
                        else sep.join([row] * len(batch)))
            put(template % tuple(items))
        else:
            for i in range(0, len(items), width):
                if i:
                    put(sep)
                _emit(items[i:i + width], inner, put)
    put(f"\n{pad}]")


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
    ``chain``, as in ``_emit``, with no Python-level loop per row."""
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
        f = build_fractal(q, directed=directed, cost=cost)
    except Exception as exc:
        raise ParseError(f"invalid fractal parameters: {exc}") from exc
    for name, want in (("n", f.graph.n), ("sigma", f.sigma), ("tau", f.tau)):
        if _field(obj, name, int) != want:
            raise ParseError(f"fractal field {name!r} does not match its parameters")
    # The row checks come first: == alone takes false, true and 1.0 for 0
    # and 1.  The rows are then compared with the rebuilt edges one column
    # at a time, and the boundaries one at a time, so no per-edge list is
    # built for the comparison.
    rows, edges = obj.get("edges"), f.graph.edges
    if not (type(rows) is list and len(rows) == len(edges)
            and _first_bad_row(rows, {2}) is None
            and all(all(map(eq, map(get, rows), map(get, edges)))
                    for get in (itemgetter(0), itemgetter(1)))):
        raise ParseError("fractal edge list does not match its parameters")
    rows = obj.get("boundaries")
    if not (type(rows) is list and len(rows) == len(f.boundaries)
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
    if "problem" in obj:
        return _parse_instance_obj(obj)
    raise ParseError("unrecognized document: expected a type tag or a problem field")


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
