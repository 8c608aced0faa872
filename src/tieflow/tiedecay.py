"""Continuous-time tie-decay weights and network snapshots.

Each co-occurrence bumps an edge's weight by 1; between interactions the
weight decays as exp(-alpha * elapsed). The closed-form impulse-response
sum is the implementation throughout; ODE integration exists only as a
test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np
from scipy import sparse

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
        if not seconds > 0:
            raise ValueError("half-life must be strictly positive")
        return cls(alpha=math.log(2.0) / seconds)

    @property
    def half_life(self) -> float:
        return math.log(2.0) / self.alpha


@dataclass(frozen=True)
class NetworkSnapshot:
    """Sparse directed weighted adjacency at a single instant.

    ``nodes`` is sorted and defines the matrix index space; ``matrix`` is a
    CSR matrix with matrix[i, j] = weight of edge nodes[i] -> nodes[j].
    """

    time: float
    nodes: tuple[str, ...]
    matrix: sparse.csr_matrix

    @cached_property
    def index(self) -> dict[str, int]:
        return {node: i for i, node in enumerate(self.nodes)}

    def weight(self, src: str, dst: str) -> float:
        return self.matrix[self.index[src], self.index[dst]]

    def edges(self) -> Iterator[tuple[str, str, float]]:
        coo = self.matrix.tocoo()
        for i, j, w in zip(coo.row, coo.col, coo.data):
            yield self.nodes[i], self.nodes[j], float(w)

    @property
    def total_weight(self) -> float:
        return float(self.matrix.sum())

    @property
    def edge_count(self) -> int:
        return int(self.matrix.nnz)


def edge_weight_at(times: Sequence[int], params: DecayParams, t: float) -> float:
    """Closed-form weight: sum of exp(-alpha*(t - tau)) over events tau <= t.

    Events strictly after t contribute nothing; an event at exactly t
    contributes 1 (the jump happens at the event instant).
    """
    total = 0.0
    for tau in times:
        if tau > t:
            break  # times sorted ascending
        total += math.exp(-params.alpha * (t - tau))
    return total


class _EdgeArrays:
    """Flattened per-edge event times for vectorized evaluation."""

    def __init__(self, g: DirectedTieGraph):
        self.nodes = tuple(sorted(g.nodes))
        index = {node: i for i, node in enumerate(self.nodes)}
        keys = sorted(g.edges)
        self.src = np.fromiter((index[s] for s, _ in keys), dtype=np.int64, count=len(keys))
        self.dst = np.fromiter((index[d] for _, d in keys), dtype=np.int64, count=len(keys))
        counts = np.fromiter((len(g.edges[k]) for k in keys), dtype=np.int64, count=len(keys))
        self.offsets = np.zeros(len(keys) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        flat = np.empty(int(self.offsets[-1]), dtype=np.float64)
        for e, key in enumerate(keys):
            flat[self.offsets[e] : self.offsets[e + 1]] = g.edges[key]
        self.event_times = flat
        self.edge_of_event = np.repeat(np.arange(len(keys), dtype=np.int64), counts)

    def weights_at(self, alpha: float, t: float) -> np.ndarray:
        live = self.event_times <= t
        contrib = np.zeros(len(self.event_times))
        contrib[live] = np.exp(-alpha * (t - self.event_times[live]))
        return np.bincount(self.edge_of_event, weights=contrib, minlength=len(self.src))

    def snapshot(self, t: float, weights: np.ndarray) -> NetworkSnapshot:
        keep = weights > SNAPSHOT_FLOOR
        n = len(self.nodes)
        matrix = sparse.csr_matrix(
            (weights[keep], (self.src[keep], self.dst[keep])), shape=(n, n)
        )
        return NetworkSnapshot(time=t, nodes=self.nodes, matrix=matrix)


def snapshot_at(g: DirectedTieGraph, params: DecayParams, t: float) -> NetworkSnapshot:
    """Evaluate every edge's tie-decay weight at time t.

    Edges whose weight is at or below SNAPSHOT_FLOOR are omitted from the
    sparse structure; isolated nodes remain in the node list.
    """
    arrays = _EdgeArrays(g)
    return arrays.snapshot(t, arrays.weights_at(params.alpha, t))


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
    arrays = _EdgeArrays(g)
    spacing = (t_end - t_start) / (n_points - 1)
    order = np.argsort(arrays.event_times, kind="stable")
    sorted_times = arrays.event_times[order]
    sorted_edges = arrays.edge_of_event[order]

    weights = arrays.weights_at(params.alpha, t_start)
    yield arrays.snapshot(t_start, weights)
    cursor = int(np.searchsorted(sorted_times, t_start, side="right"))
    prev_t = t_start
    for k in range(1, n_points):
        t = t_start + k * spacing if k < n_points - 1 else t_end
        weights = weights * math.exp(-params.alpha * (t - prev_t))
        upto = int(np.searchsorted(sorted_times, t, side="right"))
        if upto > cursor:
            tau = sorted_times[cursor:upto]
            contrib = np.exp(-params.alpha * (t - tau))
            weights = weights + np.bincount(
                sorted_edges[cursor:upto], weights=contrib, minlength=len(weights)
            )
            cursor = upto
        yield arrays.snapshot(t, weights)
        prev_t = t


def write_snapshot_tsv(s: NetworkSnapshot, params: DecayParams, path,
                       comments: Sequence[str] = ()) -> None:
    """TSV export: src<TAB>dst<TAB>weight (12 significant digits)."""
    write_lines(
        path,
        [f"t = {s.time:.12g}", f"alpha = {params.alpha:.12g}", *comments],
        (f"{src}\t{dst}\t{w:.12g}" for src, dst, w in sorted(s.edges())),
    )
