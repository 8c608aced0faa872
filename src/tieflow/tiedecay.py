"""Continuous-time tie-decay weights and network snapshots.

Each co-occurrence bumps an edge's weight by 1; between interactions the
weight decays as exp(-alpha * elapsed). One kernel, `decay_sums`, sums per
edge the closed-form impulse responses of the live events, those at or
before the instant. It reads the graph's time-sorted index ``by_time``, so
the live events are a prefix that one binary search finds: a snapshot
(`snapshot_at`) passes the whole index, and each point of a sampled curve a
slice. A curve starts from zero weights, and every point, the first
included, decays the previous weights by the semigroup law and adds the
impulses since into the edges they land on; `live_totals` reads a point's
edge count and total weight. ODE integration exists only as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .artifacts import write_lines
from .cooccur import TimedEdges

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
    nodes[src[k]] -> nodes[dst[k]] of finite weight weights[k] >= 0; entries
    are unique and in (src, dst) order, which is CSR order. The node index
    row offsets, strengths and total weight are computed on first use and kept.
    """

    time: float
    nodes: tuple[str, ...]
    src: np.ndarray
    dst: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if not 0 <= self.weights.min(initial=0.0) <= self.weights.max(initial=0.0) < math.inf:
            raise ValueError("edge weight must be non-negative" if (self.weights < 0).any()
                             else "edge weight must be finite, not NaN or infinite")

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
    """The one decay kernel: per edge e < n_edges, the sum of exp(-alpha*(t - tau))
    over the ascending times tau <= t, a prefix, with edge_of[tau's slot] == e.

    One at exactly t contributes 1 (the jump happens at the event), and an
    exponent that overflows to -inf gives exp(-inf) = 0, the exact limit.
    Each edge adds its live times in ascending order; the order among equal
    times does not matter, as on one edge they decay to equal values.
    """
    upto = np.searchsorted(times, t, side="right")
    decayed = np.subtract(t, times[:upto], dtype=float)
    with np.errstate(over="ignore"):
        decayed *= -alpha
        np.exp(decayed, out=decayed)
    return np.bincount(edge_of[:upto], weights=decayed, minlength=n_edges)


def _kept(weights: np.ndarray) -> np.ndarray | None:
    """The indices of the weights above SNAPSHOT_FLOOR, or None if that is every one."""
    kept = np.flatnonzero(weights > SNAPSHOT_FLOOR)  # faster than three boolean masks
    return None if len(kept) == len(weights) else kept


def _snapshot(g: TimedEdges, t: float, weights: np.ndarray) -> NetworkSnapshot:
    """The edges above SNAPSHOT_FLOOR; owns ``weights``, a fresh array, and holds
    read-only views of the graph's endpoints when every edge survives."""
    kept = _kept(weights)
    if kept is None:
        src, dst = g.src.view(), g.dst.view()
        src.flags.writeable = dst.flags.writeable = False
        return NetworkSnapshot(t, g.nodes, src, dst, weights)
    return NetworkSnapshot(t, g.nodes, g.src[kept], g.dst[kept], weights[kept])


def live_totals(weights: np.ndarray) -> tuple[int, float]:
    """The edge count and total weight, bit for bit, of the snapshot of weights."""
    kept = _kept(weights)
    live = weights if kept is None else weights[kept]
    return len(live), float(np.sum(live))


def snapshot_at(g: TimedEdges, params: DecayParams, t: float) -> NetworkSnapshot:
    """Evaluate every edge's tie-decay weight at time t.

    Edges whose weight is at or below SNAPSHOT_FLOOR are omitted from the
    entries; isolated nodes remain in the node list. A NaN or infinite t is rejected.
    """
    if not math.isfinite(t):
        raise ValueError(f"snapshot time {t!r} is not a finite instant")
    return _snapshot(g, t, decay_sums(*g.by_time, len(g.src), params.alpha, t))


def sample_snapshots(g: TimedEdges, params: DecayParams, t_start: float, t_end: float,
                     n_points: int) -> Iterator[tuple[float, np.ndarray]]:
    """Per point of n_points equally spaced times, both endpoints included,
    (t, every edge's weight at t); _snapshot(g, t, weights) is its snapshot.

    Lazily yields one point at a time so long grids over large graphs stay
    memory-bounded. Weights advance incrementally with the exact semigroup
    law w(t2) = w(t1)*exp(-alpha*(t2-t1)) plus the impulses landing in
    (t1, t2], which are added only to the edges they land on.
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    if not math.isfinite(t_start) or not math.isfinite(t_end):
        raise ValueError(f"curve bounds {t_start!r} and {t_end!r} must be finite instants")
    if not t_start < t_end:
        raise ValueError("t_start must be earlier than t_end")
    grid = (t_start + np.arange(n_points) * ((t_end - t_start) / (n_points - 1))).tolist()
    grid[-1] = t_end
    sorted_times, sorted_edges = g.by_time
    uptos = np.searchsorted(sorted_times, grid, side="right").tolist()

    weights, cursor, prev_t = np.zeros(len(g.src)), 0, t_start
    for t, upto in zip(grid, uptos):
        # A new array each point, updated in place only before it is yielded.
        weights = weights * math.exp(-params.alpha * (t - prev_t))
        edges, slots = np.unique(sorted_edges[cursor:upto], return_inverse=True)
        weights[edges] += decay_sums(sorted_times[cursor:upto], slots, len(edges), params.alpha, t)
        cursor, prev_t = upto, t
        yield t, weights


def write_snapshot_tsv(s: NetworkSnapshot, params: DecayParams, path,
                       comments: Sequence[str] = ()) -> None:
    """TSV export: src<TAB>dst<TAB>weight (12 significant digits)."""
    write_lines(
        path,
        [f"t = {s.time:.12g}", f"alpha = {params.alpha:.12g}", *comments],
        (f"{src}\t{dst}\t{w:.12g}" for src, dst, w in s.edges()),
    )
