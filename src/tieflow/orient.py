"""Degree-based edge orientation of the undirected co-occurrence graph.

Edges point from the higher-degree endpoint to the lower-degree endpoint;
equal-degree endpoints get both directions, each carrying the full payload.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from .artifacts import decoding, read_columns, read_json, write_columns, write_json, write_lines
from .cooccur import TimedEdges, _ragged
from .events import TIME_LIMIT, _bad_id

# The column companion's columns in file order; its header holds the nodes.
_LAYOUT = (("src", "<i8"), ("dst", "<i8"), ("offsets", "<i8"), ("times", "<i8"))


def _degrees(g: TimedEdges) -> np.ndarray:
    """Number of distinct neighbors per node index."""
    return np.bincount(np.concatenate([g.src, g.dst]), minlength=len(g.nodes))


def orient_edges(g: TimedEdges) -> TimedEdges:
    """Apply the degree-comparison rules to every undirected edge.

    Higher degree points to lower degree; ties produce both directions
    without splitting the weight. Degrees are computed once on the full
    undirected graph.
    """
    a, b, degree = g.src, g.dst, _degrees(g)
    forward, backward = degree[a] >= degree[b], degree[a] <= degree[b]
    src = np.concatenate([a[forward], b[backward]])
    dst = np.concatenate([b[forward], a[backward]])
    order = np.lexsort((dst, src))
    edge = np.concatenate([np.flatnonzero(forward), np.flatnonzero(backward)])[order]
    counts = np.diff(g.offsets)[edge]
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    times = g.times[_ragged(g.offsets[edge], counts)]
    return TimedEdges(g.nodes, src[order], dst[order], offsets, times)


def write_directed_edges_tsv(g: TimedEdges, path, comments: Sequence[str] = ()) -> None:
    """TSV export: src<TAB>dst<TAB>count."""
    write_lines(path, comments, g._count_lines())


def write_tie_graph_json(g: TimedEdges, path, params: dict | None = None) -> None:
    """Lossless compact JSON of the graph's columns (keeps per-edge times for
    later snapshots): edge e runs from nodes[edges[2e]] to
    nodes[edges[2e + 1]] with times[offsets[e] : offsets[e + 1]]. Then its
    column companion, which read_tie_graph_json reads while it matches the JSON."""
    write_json(path, {"params": params or {}, "nodes": list(g.nodes),
                      "edges": np.column_stack([g.src, g.dst]).ravel().tolist(),
                      "offsets": g.offsets.tolist(), "times": g.times.tolist()}, indent=None)
    write_columns(path, _LAYOUT, [g.src, g.dst, g.offsets, g.times], nodes=list(g.nodes))


def _int64_column(values: list, column: str) -> np.ndarray:
    """The int list as int64; ValueError naming the first entry beyond it."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        k = next(k for k, value in enumerate(values) if not -2**63 <= value < 2**63)
        raise ValueError(f"{column!r} entry {k} is beyond int64") from None


def read_tie_graph_json(path) -> TimedEdges:
    """Load a tie graph as write_tie_graph_json writes it, checking its order
    instead of restoring it; from its column companion while that matches the
    file and holds a graph that passes the same checks. Rejects one whose nodes
    are not distinct, ascending string ids that an event log accepts, whose
    columns are not int64 lists with 2 indices per edge and offsets rising from
    0 to len(times), that has no edges, or whose edges name unknown nodes, join
    a node to itself, carry times that are not a nonempty ascending list of
    timestamps, or do not strictly ascend in (src, dst) order."""
    read = read_columns(path, _LAYOUT)
    if read is not None:
        header, (src, dst, offsets, times) = read
        try:
            if len(src) == len(dst) == len(offsets) - 1:  # as the JSON read checks first
                return _checked(header.get("nodes"), src, dst, offsets, times)
        except ValueError:  # the JSON read names the fault, if the JSON has it
            pass
    what = "tie graph file"
    doc = read_json(path, what)
    with decoding(path, what):
        if "offsets" not in doc:
            raise ValueError("missing field 'offsets', as in the edge-object layout of earlier "
                             "versions; rebuild the graph from canonical.csv with `tieflow build`")
        ends, offsets, times = doc["edges"], doc["offsets"], doc["times"]
        for kind, values in (("endpoints", ends), ("offsets", offsets), ("times", times)):
            if not isinstance(values, list) or set(map(type, values)) - {int}:
                raise ValueError(f"edge {kind} must be integers")
        if len(ends) % 2 or len(offsets) != len(ends) // 2 + 1:
            raise ValueError(f"want 2 'edges' indices per edge and 1 'offsets' entry more than "
                             f"the edges, not {len(ends)} and {len(offsets)}")
        ends, offsets = _int64_column(ends, "edges"), _int64_column(offsets, "offsets")
        if times and not (0 <= min(times) and max(times) < TIME_LIMIT):
            times = [tau if 0 <= tau < TIME_LIMIT else -1 for tau in times]  # -1 marks the outliers
        src, dst = ends.reshape(-1, 2).T.copy()  # contiguous: snapshots gather them faster
        return _checked(doc["nodes"], src, dst, offsets, np.array(times, dtype=np.int64))


def _checked(nodes, src, dst, offsets, times) -> TimedEdges:
    """The graph of these columns if they hold a tie graph; ValueError naming its first fault."""
    if not (isinstance(nodes, list) and all(isinstance(node, str) for node in nodes)):
        raise ValueError("'nodes' must be a list of string ids")
    odd = next((node for node in nodes if _bad_id(node)), None)
    if odd is not None:
        raise ValueError(f"node id {odd!r} is empty or holds a tab or line break")
    if len(set(nodes)) < len(nodes):
        raise ValueError(f"node {min(n for n, k in Counter(nodes).items() if k > 1)!r} "
                         "is listed twice")
    late = next((b for a, b in zip(nodes, nodes[1:]) if a > b), None)
    if late is not None:
        raise ValueError(f"node {late!r} is out of order; 'nodes' must ascend")
    if not len(src):
        raise ValueError("the graph has no edges")
    counts = np.diff(offsets)
    if offsets[0] != 0 or offsets[-1] != len(times) or (counts < 0).any():
        raise ValueError(f"'offsets' must rise from 0 to {len(times)}")
    n = len(nodes)
    outside = np.flatnonzero((np.minimum(src, dst) < 0) | (np.maximum(src, dst) >= n))
    if len(outside):
        raise ValueError(f"edge {outside[0]} names a node missing from 'nodes'")
    g = TimedEdges(tuple(nodes), src, dst, offsets, times)
    edge_of = g.edge_of
    step = np.diff(src * n + dst)  # the (src, dst) order, as one key
    for fault, bad in (
        ("joins a node to itself", np.flatnonzero(src == dst)),
        ("has no times", np.flatnonzero(counts == 0)),
        ("has times outside 1970-01-01 .. 9999-12-31",
         edge_of[(times < 0) | (times >= TIME_LIMIT)]),
        ("has unsorted times", edge_of[1:][(np.diff(times) < 0) & (np.diff(edge_of) == 0)]),
        ("is listed twice", np.flatnonzero(step == 0)),
        ("is out of (src, dst) order", np.flatnonzero(step < 0) + 1),
    ):
        if len(bad):
            raise ValueError(f"edge {g.nodes[src[bad[0]]]!r} -> {g.nodes[dst[bad[0]]]!r} {fault}")
    return g
