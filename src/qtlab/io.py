"""Reading and writing JSON: parse_json turns JSON text into values and
dumps turns values into canonical JSON text, for every document qtlab reads
or writes.  Graphs and actions have two formats:

qtlab-graph-v1
    {"format": "qtlab-graph-v1", "vertices": [...], "edges": [["a","b"], ...],
     "boundary": [...]}           (boundary optional)

qtlab-action-v1
    {"format": "qtlab-action-v1", "graph": <graph object or file path>,
     "mode": "automorphism" | "isometry",
     "generators": [{"name": "a", "map": [["v","w"], ...]}, ...]}

Generator maps list forward images only; inverses are derived.  Non-injective
maps and duplicate edges are rejected.
Vertex ids are strings; the loaders here turn them into vertex indices, and
everything past them works on index arrays.  The savers turn index arrays
back into ids with one gather each.

A loader checks and translates a file in a few passes that run in C: the
sets of the types of the vertices, edges and map pairs, the set of the
edges' lengths, one dict() per generator map, and one dict lookup per id,
mapped over the flattened pairs.  A failed lookup proves that an entry is
not a vertex id string.  When a pass or a lookup fails, the entries are
checked one by one, in order, which names the first fault; those loops
also accept the str, list and dict subclasses that the passes turn away.
"""

from __future__ import annotations

import json
import os
from typing import Optional

import numpy as np

from .errors import FormatError, VertexNotFound
from .metric_graph import MetricGraph, graph_from_ids

GRAPH_FORMAT = "qtlab-graph-v1"
ACTION_FORMAT = "qtlab-action-v1"


def graph_to_dict(g: MetricGraph) -> dict:
    out = {
        "format": GRAPH_FORMAT,
        "vertices": list(g.vertex_ids),
        "edges": np.array(g.vertex_ids, dtype=object)[g.edge_array()].tolist(),
    }
    if g.boundary:
        out["boundary"] = list(g.boundary)
    return out


def graph_from_dict(d: dict, allow_disconnected: bool = False) -> MetricGraph:
    if not isinstance(d, dict) or d.get("format") != GRAPH_FORMAT:
        raise FormatError(f"expected format {GRAPH_FORMAT!r}, got {d.get('format') if isinstance(d, dict) else type(d)!r}")
    for key in ("vertices", "edges"):
        if key not in d:
            raise FormatError(f"graph object missing {key!r}")
    vertices, edges, boundary = d["vertices"], d["edges"], d.get("boundary", [])
    for key, value in (("vertices", vertices), ("edges", edges), ("boundary", boundary)):
        if not isinstance(value, list):
            raise FormatError(f"graph {key!r} must be a list, got {value!r}")
    # the ids must be str and the edges lists of two; an endpoint or boundary
    # entry that is not an id string fails its lookup in graph_from_ids
    if not (set(map(type, vertices)) <= {str} and set(map(type, edges)) <= {list}
            and set(map(len, edges)) <= {2}):
        _check_graph_entries(vertices, edges, boundary)
    try:
        return graph_from_ids(vertices, edges, boundary=boundary,
                              allow_disconnected=allow_disconnected)
    except (VertexNotFound, TypeError):
        _check_graph_entries(vertices, edges, boundary)
        raise


def _check_graph_entries(vertices: list, edges: list, boundary: list) -> None:
    """FormatError naming the first entry of the wrong type or shape, in the
    order vertices, boundary, edges.  Runs only when a pass of
    graph_from_dict fails: it names the fault, or passes str and list
    subclasses, which those passes do not."""
    for key, value in (("vertices", vertices), ("boundary", boundary)):
        for v in value:
            if not isinstance(v, str):
                raise FormatError(f"graph {key!r} entries must be vertex id strings, got {v!r}")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and isinstance(e[0], str) and isinstance(e[1], str)):
            raise FormatError(f"edge entries must be pairs of vertex ids, got {e!r}")


def dumps(obj) -> str:
    """The canonical JSON text of obj: sorted keys, no spaces and a final
    newline.  Every report, diagnostic and written file is encoded here."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def save_json(obj, path: str) -> None:
    """Write dumps(obj) to path.  json.dumps runs the C encoder; json.dump to
    a file handle runs the pure-Python one, for the same bytes."""
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def save_graph(g: MetricGraph, path: str) -> None:
    save_json(graph_to_dict(g), path)


def parse_json(source, what: str):
    """The value of the JSON text in source, a string or an open text file.
    Text that is not JSON, bytes that are not UTF-8 and an integer longer
    than the interpreter's digit limit each raise FormatError naming what."""
    try:
        return json.loads(source) if isinstance(source, str) else json.load(source)
    except ValueError as exc:
        raise FormatError(f"{what}: not valid JSON ({exc})") from exc


def load_json(path: str):
    """Parse a UTF-8 JSON file; bad input raises FormatError naming the path."""
    with open(path, encoding="utf-8") as fh:
        return parse_json(fh, path)


def load_graph(path: str, allow_disconnected: bool = False) -> MetricGraph:
    return graph_from_dict(load_json(path), allow_disconnected=allow_disconnected)


def action_to_dict(action, graph_ref: Optional[str] = None) -> dict:
    """Serialize a GroupAction; graph_ref, when given, replaces the inline
    graph object with a file path reference."""
    ids = np.array(action.space.vertex_ids, dtype=object)
    gens = [{"name": gm.name, "map": ids[np.stack(gm.pairs(), axis=1)].tolist()}
            for gm in action.generators]
    return {
        "format": ACTION_FORMAT,
        "graph": graph_ref if graph_ref is not None else graph_to_dict(action.space),
        "mode": action.mode,
        "generators": gens,
    }


def action_from_dict(d: dict, base_dir: str = ".", allow_disconnected: bool = False):
    from .group_action import action_from_maps

    if not isinstance(d, dict) or d.get("format") != ACTION_FORMAT:
        raise FormatError(f"expected format {ACTION_FORMAT!r}")
    for key in ("graph", "mode", "generators"):
        if key not in d:
            raise FormatError(f"action object missing {key!r}")
    graph = d["graph"]
    if isinstance(graph, str):
        if "\0" in graph:
            raise FormatError(f"graph reference {graph!r} is not a file path")
        g = load_graph(os.path.join(base_dir, graph), allow_disconnected=allow_disconnected)
    else:
        g = graph_from_dict(graph, allow_disconnected=allow_disconnected)
    if d["mode"] not in ("automorphism", "isometry"):
        raise FormatError(f"unknown mode {d['mode']!r}")
    if not isinstance(d["generators"], list):
        raise FormatError("'generators' must be a list")
    generators = d["generators"]
    gens = _fast_maps(generators)
    if gens is None:
        gens = _checked_maps(generators)
    try:
        return action_from_maps(g, gens, mode=d["mode"])
    except (VertexNotFound, TypeError):
        # an id that is not a string fails its lookup; a fault of an earlier
        # entry comes first
        _checked_maps(generators)
        raise


def _fast_maps(generators: list):
    """(name, {source: image}) per generator entry, each map built by one
    dict() call once a pass over its pairs finds lists and tuples only; None
    when an entry fails a check or a map repeats a source."""
    gens = []
    for entry in generators:
        if type(entry) is not dict or "name" not in entry or "map" not in entry:
            return None
        m = entry["map"]
        if type(m) is not list or not set(map(type, m)) <= {list, tuple}:
            return None
        try:
            pairs = dict(m)
        except (TypeError, ValueError):   # an unhashable source, a pair not of two
            return None
        if len(pairs) != len(m):
            return None
        gens.append((entry["name"], pairs))
    return gens


def _checked_maps(generators: list) -> list:
    """The generator entries checked one pair at a time: FormatError naming
    the first fault, or the (name, {source: image}) maps."""
    gens = []
    for entry in generators:
        if not isinstance(entry, dict):
            raise FormatError(f"generator entries must be objects, got {entry!r}")
        if "name" not in entry or "map" not in entry:
            raise FormatError("generator entries need 'name' and 'map'")
        if not isinstance(entry["map"], list):
            raise FormatError(f"generator {entry['name']!r}: 'map' must be a list")
        pairs = {}
        for p in entry["map"]:
            if not isinstance(p, (list, tuple)) or len(p) != 2 \
                    or not all(isinstance(v, str) for v in p):
                raise FormatError(f"map entries must be pairs of vertex ids, got {p!r}")
            if p[0] in pairs:
                raise FormatError(f"generator {entry['name']!r}: duplicate source {p[0]!r}")
            pairs[p[0]] = p[1]
        gens.append((entry["name"], pairs))
    return gens


def save_action(action, path: str, graph_ref: Optional[str] = None) -> None:
    save_json(action_to_dict(action, graph_ref=graph_ref), path)


def load_action(path: str, allow_disconnected: bool = False):
    return action_from_dict(load_json(path), base_dir=os.path.dirname(path) or ".",
                            allow_disconnected=allow_disconnected)
