"""Degree-based edge orientation of the undirected co-occurrence graph.

Edges point from the higher-degree endpoint to the lower-degree endpoint;
equal-degree endpoints get both directions, each carrying the full payload.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .artifacts import decoding, read_json, write_json, write_lines
from .cooccur import CooccurrenceGraph, TimedEdges, _ragged
from .events import TIME_LIMIT, _bad_id


@dataclass(frozen=True, eq=False)
class DirectedTieGraph(TimedEdges):
    """Directed graph whose edges keep the originating co-occurrence times,
    in the columnar form of TimedEdges: edge e runs from nodes[src[e]] to
    nodes[dst[e]]."""

    def start_time(self) -> int:
        """Earliest co-occurrence timestamp over all edges (ValueError if none)."""
        return int(self.times.min())

    def end_time(self) -> int:
        """Latest co-occurrence timestamp over all edges (ValueError if none)."""
        return int(self.times.max())


def _degrees(g: CooccurrenceGraph) -> np.ndarray:
    """Number of distinct neighbors per node index."""
    return np.bincount(np.concatenate([g.src, g.dst]), minlength=len(g.nodes))


def orient_edges(g: CooccurrenceGraph) -> DirectedTieGraph:
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
    return DirectedTieGraph(g.nodes, src[order], dst[order], offsets, times)


def write_directed_edges_tsv(g: DirectedTieGraph, path, comments: Sequence[str] = ()) -> None:
    """TSV export: src<TAB>dst<TAB>count."""
    write_lines(path, comments, g._count_lines())


def write_tie_graph_json(g: DirectedTieGraph, path, params: dict | None = None) -> None:
    """Lossless compact JSON of the graph's columns (keeps per-edge times for
    later snapshots): edge e runs from nodes[edges[2e]] to
    nodes[edges[2e + 1]] with times[offsets[e] : offsets[e + 1]]."""
    write_json(path, {"params": params or {}, "nodes": list(g.nodes),
                      "edges": np.column_stack([g.src, g.dst]).ravel().tolist(),
                      "offsets": g.offsets.tolist(), "times": g.times.tolist()}, indent=None)


def _int64_column(values: list, column: str) -> np.ndarray:
    """The int list as int64; ValueError naming the first entry beyond it."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        k = next(k for k, value in enumerate(values) if not -2**63 <= value < 2**63)
        raise ValueError(f"{column!r} entry {k} is beyond int64") from None


def read_tie_graph_json(path) -> DirectedTieGraph:
    """Load a tie graph as write_tie_graph_json writes it, checking its order
    instead of restoring it. Rejects one whose nodes are not distinct,
    ascending string ids that an event log accepts, whose columns are not
    int64 lists with 2 indices per edge and offsets rising from 0 to
    len(times), that has no edges, or whose edges name unknown nodes, join a
    node to itself, carry times that are not a nonempty ascending list of
    timestamps, or do not strictly ascend in (src, dst) order."""
    what = "tie graph file"
    doc = read_json(path, what)
    with decoding(path, what):
        nodes = doc["nodes"]
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
        if not ends:
            raise ValueError("the graph has no edges")
        ends, offsets = _int64_column(ends, "edges"), _int64_column(offsets, "offsets")
        counts = np.diff(offsets)
        if offsets[0] != 0 or offsets[-1] != len(times) or (counts < 0).any():
            raise ValueError(f"'offsets' must rise from 0 to {len(times)}")
        outside = np.flatnonzero((ends < 0) | (ends >= len(nodes)))
        if len(outside):
            raise ValueError(f"edge {outside[0] // 2} names a node missing from 'nodes'")
        if times and not (0 <= min(times) and max(times) < TIME_LIMIT):
            times = [tau if 0 <= tau < TIME_LIMIT else -1 for tau in times]  # -1 marks the outliers
        src, dst = ends.reshape(-1, 2).T.copy()  # contiguous: snapshots gather them faster
        g = DirectedTieGraph(tuple(nodes), src, dst, offsets, np.array(times, dtype=np.int64))
        edge_of = np.repeat(np.arange(len(g.src)), counts)
        step = np.diff(g.src * len(nodes) + g.dst)  # the (src, dst) order, as one key
        for fault, bad in (
            ("joins a node to itself", np.flatnonzero(g.src == g.dst)),
            ("has no times", np.flatnonzero(counts == 0)),
            ("has times outside 1970-01-01 .. 9999-12-31", edge_of[g.times < 0]),
            ("has unsorted times", edge_of[1:][(np.diff(g.times) < 0) & (np.diff(edge_of) == 0)]),
            ("is listed twice", np.flatnonzero(step == 0)),
            ("is out of (src, dst) order", np.flatnonzero(step < 0) + 1),
        ):
            if len(bad):
                s, d = g.nodes[g.src[bad[0]]], g.nodes[g.dst[bad[0]]]
                raise ValueError(f"edge {s!r} -> {d!r} {fault}")
    return g
