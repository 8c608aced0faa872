"""Degree-based edge orientation of the undirected co-occurrence graph.

Edges point from the higher-degree endpoint to the lower-degree endpoint;
equal-degree endpoints get both directions, each carrying the full payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .artifacts import DataError, decoding, read_json, write_json, write_lines
from .cooccur import CooccurrenceGraph, TimedEdges, _ragged
from .events import TIME_LIMIT


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


def _assemble(nodes, src, dst, starts, counts, times) -> DirectedTieGraph:
    """The tie graph of the edges src[k] -> dst[k] with ascending times
    times[starts[k] : starts[k] + counts[k]], put in (src, dst) order."""
    order = np.lexsort((dst, src))
    counts = counts[order]
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    times = times[_ragged(starts[order], counts)]
    return DirectedTieGraph(nodes, src[order], dst[order], offsets, times)


def _degrees(g: CooccurrenceGraph) -> np.ndarray:
    """Number of distinct neighbors per node index."""
    return np.bincount(np.concatenate([g.src, g.dst]), minlength=len(g.nodes))


def node_degrees(g: CooccurrenceGraph) -> dict[str, int]:
    """Number of distinct neighbors per node; isolated nodes have degree 0."""
    return dict(zip(g.nodes, _degrees(g).tolist()))


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
    edge = np.concatenate([np.flatnonzero(forward), np.flatnonzero(backward)])
    return _assemble(g.nodes, src, dst, g.offsets[edge], np.diff(g.offsets)[edge], g.times)


def write_directed_edges_tsv(g: DirectedTieGraph, path, comments: Sequence[str] = ()) -> None:
    """TSV export: src<TAB>dst<TAB>count."""
    write_lines(path, comments, (f"{s}\t{d}\t{len(times)}" for s, d, times in g._rows()))


def write_tie_graph_json(g: DirectedTieGraph, path, params: dict | None = None) -> None:
    """Lossless JSON persistence (keeps per-edge times for later snapshots)."""
    doc = {
        "params": params or {},
        "nodes": list(g.nodes),
        "edges": [{"src": s, "dst": d, "times": times} for s, d, times in g._rows()],
    }
    write_json(path, doc)


def read_tie_graph_json(path) -> DirectedTieGraph:
    """Load a tie graph, rejecting one whose edges name unknown nodes, carry
    times that are not a nonempty ascending list of integer timestamps, or
    appear twice."""
    what = "tie graph file"
    doc = read_json(path, what)
    with decoding(path, what):
        names = list(doc["nodes"])
        if not all(isinstance(node, str) for node in names):
            raise DataError(f"malformed {what} {path}: node ids must be strings")
        nodes = tuple(sorted(set(names)))
        index = {node: i for i, node in enumerate(nodes)}
        edges = doc["edges"]
        src = np.array([index.get(e["src"], -1) for e in edges], dtype=np.int64)
        dst = np.array([index.get(e["dst"], -1) for e in edges], dtype=np.int64)
        lists = [e["times"] for e in edges]
        counts = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    flat = list(chain.from_iterable(lists))
    if set(map(type, flat)) - {int}:
        raise DataError(f"malformed {what} {path}: edge times must be integers")
    if flat and not (0 <= min(flat) and max(flat) < TIME_LIMIT):
        flat = [tau if 0 <= tau < TIME_LIMIT else -1 for tau in flat]  # -1 marks the outliers
    times = np.array(flat, dtype=np.int64)
    edge_of = np.repeat(np.arange(len(counts)), counts)
    order = np.lexsort((dst, src))
    for fault, bad in (
        ("names a node missing from 'nodes'", np.flatnonzero((src < 0) | (dst < 0))),
        ("has no times", np.flatnonzero(counts == 0)),
        ("has times outside 1970-01-01 .. 9999-12-31", edge_of[times < 0]),
        ("has unsorted times", edge_of[1:][(np.diff(times) < 0) & (np.diff(edge_of) == 0)]),
        ("is listed twice", order[1:][(np.diff(src[order]) == 0) & (np.diff(dst[order]) == 0)]),
    ):
        if len(bad):
            e = edges[bad[0]]
            raise DataError(f"malformed {what} {path}: edge {e['src']!r} -> {e['dst']!r} {fault}")
    return _assemble(nodes, src, dst, np.cumsum(counts) - counts, counts, times)
