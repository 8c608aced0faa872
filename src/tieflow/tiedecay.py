"""Continuous-time tie-decay weights and network snapshots.

Each co-occurrence bumps an edge's weight by 1; between interactions the
weight decays as exp(-alpha * elapsed). One kernel, `decay_sums`, evaluates
the closed-form impulse-response sum over stored event times: a snapshot
(`snapshot_at`) and the impulses each point of a sampled curve adds both
call it, and the tests check it one edge at a time. A curve starts from
zero weights, and every point, the first included, decays the previous
weights by the semigroup law and adds the impulses since. ODE integration
exists only as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .artifacts import write_lines
from .orient import DirectedTieGraph

DEFAULT_HALF_LIFE = 7 * 86400.0  # seconds; alpha = ln(2) / half_life
SNAPSHOT_FLOOR = 1e-12  # weights at or below this are dropped from snapshots


@dataclass(frozen=True)
class DecayParams:
    alpha: float  # decay rate per second

    def __post_init__(self) -> None:
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be strictly positive and finite")

    @classmethod
    def from_half_life(cls, seconds: float) -> "DecayParams":
        if not 0 < seconds < math.inf or math.log(2.0) / seconds == math.inf:  # 1e-320 overflows
            raise ValueError(f"half-life {seconds!r} gives no positive, finite rate ln 2 / half-life")
        return cls(alpha=math.log(2.0) / seconds)


@dataclass(frozen=True, eq=False)
class NetworkSnapshot:
    """Directed weighted network at a single instant, as three arrays.

    ``nodes`` is sorted and defines the index space. Entry k is the edge
    nodes[src[k]] -> nodes[dst[k]] of weight weights[k]; entries are unique
    and in (src, dst) order, which is CSR order. The node index, row offsets,
    strengths and total weight are computed on first use and kept.
    """

    time: float
    nodes: tuple[str, ...]
    src: np.ndarray
    dst: np.ndarray
    weights: np.ndarray

    @cached_property
    def index(self) -> dict[str, int]:
        return {node: i for i, node in enumerate(self.nodes)}

    @cached_property
    def row_offsets(self) -> np.ndarray:
        """Node i's entries are row_offsets[i]:row_offsets[i + 1]."""
        return np.searchsorted(self.src, np.arange(len(self.nodes) + 1))

    @cached_property
    def matrix(self):
        """A scipy CSR copy of the entries, built on first use (tieflow's only
        scipy import). Nothing under src/ reads it; library callers and the
        traced runs of perfbench/measure.py (``matrix.nnz``) do."""
        from scipy import sparse

        n = len(self.nodes)
        return sparse.csr_matrix((self.weights, self.dst, self.row_offsets), shape=(n, n), copy=True)

    def edges(self) -> Iterator[tuple[str, str, float]]:
        for i, j, w in zip(self.src.tolist(), self.dst.tolist(), self.weights.tolist()):
            yield self.nodes[i], self.nodes[j], w

    @cached_property
    def out_strength(self) -> np.ndarray:
        """Per node, its row's weight sum, added pairwise by np.add.reduceat as
        the pinned artifacts were (np.bincount over src differs in last bits)."""
        rows = np.flatnonzero(np.diff(self.row_offsets))
        out = np.zeros(len(self.nodes))
        out[rows] = np.add.reduceat(self.weights, self.row_offsets[rows])
        return out

    @cached_property
    def in_strength(self) -> np.ndarray:
        """Per node, its column's weight sum."""
        return np.bincount(self.dst, weights=self.weights, minlength=len(self.nodes))

    @cached_property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))

    @property
    def edge_count(self) -> int:
        return len(self.weights)


def decay_sums(times: np.ndarray, edge_of: np.ndarray, n_edges: int, alpha: float,
               t: float) -> np.ndarray:
    """The one decay kernel: per edge e < n_edges, the sum of
    exp(-alpha*(t - tau)) over the times tau <= t with edge_of[tau's slot] == e.

    Events strictly after t contribute nothing; an event at exactly t
    contributes 1 (the jump happens at the event instant).
    """
    live = times <= t
    contrib = np.zeros(len(times))
    contrib[live] = np.exp(-alpha * (t - times[live]))
    return np.bincount(edge_of, weights=contrib, minlength=n_edges)


def _edge_of_times(g: DirectedTieGraph) -> np.ndarray:
    return np.repeat(np.arange(len(g.src)), np.diff(g.offsets))


def _snapshot(g: DirectedTieGraph, t: float, weights: np.ndarray) -> NetworkSnapshot:
    kept = np.flatnonzero(weights > SNAPSHOT_FLOOR)  # faster than three boolean masks
    return NetworkSnapshot(t, g.nodes, g.src[kept], g.dst[kept], weights[kept])


def snapshot_at(g: DirectedTieGraph, params: DecayParams, t: float) -> NetworkSnapshot:
    """Evaluate every edge's tie-decay weight at time t.

    Edges whose weight is at or below SNAPSHOT_FLOOR are omitted from the
    entries; isolated nodes remain in the node list.
    """
    return _snapshot(g, t, decay_sums(g.times, _edge_of_times(g), len(g.src), params.alpha, t))


def sample_snapshots(
    g: DirectedTieGraph,
    params: DecayParams,
    t_start: float,
    t_end: float,
    n_points: int,
) -> Iterator[NetworkSnapshot]:
    """Snapshots at n_points equally spaced times, both endpoints included.

    Lazily yields one snapshot at a time so long grids over large graphs
    stay memory-bounded. Weights advance incrementally with the exact
    semigroup law w(t2) = w(t1)*exp(-alpha*(t2-t1)) plus the impulses
    landing in (t1, t2].
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    if not t_start < t_end:
        raise ValueError("t_start must be earlier than t_end")
    spacing = (t_end - t_start) / (n_points - 1)
    edge_of = _edge_of_times(g)
    order = np.argsort(g.times, kind="stable")
    sorted_times, sorted_edges = g.times[order], edge_of[order]

    weights, cursor, prev_t = np.zeros(len(g.src)), 0, t_start
    for k in range(n_points):
        t = t_start + k * spacing if k < n_points - 1 else t_end
        upto = int(np.searchsorted(sorted_times, t, side="right"))
        weights = weights * math.exp(-params.alpha * (t - prev_t)) + decay_sums(
            sorted_times[cursor:upto], sorted_edges[cursor:upto], len(weights), params.alpha, t
        )
        cursor, prev_t = upto, t
        yield _snapshot(g, t, weights)


def write_snapshot_tsv(s: NetworkSnapshot, params: DecayParams, path,
                       comments: Sequence[str] = ()) -> None:
    """TSV export: src<TAB>dst<TAB>weight (12 significant digits)."""
    write_lines(
        path,
        [f"t = {s.time:.12g}", f"alpha = {params.alpha:.12g}", *comments],
        (f"{src}\t{dst}\t{w:.12g}" for src, dst, w in s.edges()),
    )
