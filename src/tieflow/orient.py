"""Degree-based edge orientation of the undirected co-occurrence graph.

Edges point from the higher-degree endpoint to the lower-degree endpoint;
equal-degree endpoints get both directions, each carrying the full payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .artifacts import DataError, decoding, read_json, write_json, write_lines
from .cooccur import CooccurrenceGraph
from .events import TIME_LIMIT


@dataclass(frozen=True)
class DirectedTieGraph:
    """Directed graph whose edges keep the originating co-occurrence times."""

    nodes: frozenset[str]
    degree: dict[str, int]  # undirected degree of the source graph
    edges: dict[tuple[str, str], tuple[int, ...]]  # (src, dst) -> sorted times

    def start_time(self) -> int:
        """Earliest co-occurrence timestamp over all edges."""
        if not self.edges:
            raise ValueError("graph has no edges")
        return min(times[0] for times in self.edges.values())

    def end_time(self) -> int:
        """Latest co-occurrence timestamp over all edges."""
        if not self.edges:
            raise ValueError("graph has no edges")
        return max(times[-1] for times in self.edges.values())


def node_degrees(g: CooccurrenceGraph) -> dict[str, int]:
    """Number of distinct neighbors per node; isolated nodes have degree 0."""
    degrees = {node: 0 for node in g.nodes}
    for a, b in g.edges:
        degrees[a] += 1
        degrees[b] += 1
    return degrees


def orient_edges(g: CooccurrenceGraph) -> DirectedTieGraph:
    """Apply the degree-comparison rules to every undirected edge.

    Higher degree points to lower degree; ties produce both directions
    without splitting the weight. Degrees are computed once on the full
    undirected graph.
    """
    degrees = node_degrees(g)
    edges: dict[tuple[str, str], tuple[int, ...]] = {}
    for (a, b), times in g.edges.items():
        ka, kb = degrees[a], degrees[b]
        if ka > kb:
            edges[(a, b)] = times
        elif ka < kb:
            edges[(b, a)] = times
        else:
            edges[(a, b)] = times
            edges[(b, a)] = times
    return DirectedTieGraph(nodes=g.nodes, degree=degrees, edges=edges)


def write_directed_edges_tsv(g: DirectedTieGraph, path, comments: Sequence[str] = ()) -> None:
    """TSV export: src<TAB>dst<TAB>count."""
    write_lines(path, comments, (
        f"{src}\t{dst}\t{len(g.edges[(src, dst)])}" for (src, dst) in sorted(g.edges)
    ))


def write_tie_graph_json(g: DirectedTieGraph, path, params: dict | None = None) -> None:
    """Lossless JSON persistence (keeps per-edge times for later snapshots)."""
    doc = {
        "params": params or {},
        "nodes": sorted(g.nodes),
        "degree": {node: g.degree[node] for node in sorted(g.degree)},
        "edges": [
            {"src": src, "dst": dst, "times": list(g.edges[(src, dst)])}
            for (src, dst) in sorted(g.edges)
        ],
    }
    write_json(path, doc)


def read_tie_graph_json(path) -> DirectedTieGraph:
    """Load a tie graph, rejecting one whose edges name unknown nodes or
    carry times that are not a nonempty ascending list of integer timestamps."""
    what = "tie graph file"
    doc = read_json(path, what)
    with decoding(path, what):
        nodes = frozenset(doc["nodes"])
        degree = {node: int(k) for node, k in doc["degree"].items()}
        edges = {(e["src"], e["dst"]): tuple(e["times"]) for e in doc["edges"]}
    if not all(isinstance(node, str) for node in nodes):
        raise DataError(f"malformed {what} {path}: node ids must be strings")
    if set(map(type, chain.from_iterable(edges.values()))) - {int}:
        raise DataError(f"malformed {what} {path}: edge times must be integers")
    for (src, dst), times in edges.items():
        if src not in nodes or dst not in nodes:
            fault = "names a node missing from 'nodes'"
        elif not times:
            fault = "has no times"
        elif list(times) != sorted(times):
            fault = "has unsorted times"
        elif not (0 <= times[0] and times[-1] < TIME_LIMIT):
            fault = "has times outside 1970-01-01 .. 9999-12-31"
        else:
            continue
        raise DataError(f"malformed {what} {path}: edge {src!r} -> {dst!r} {fault}")
    return DirectedTieGraph(nodes=nodes, degree=degree, edges=edges)
