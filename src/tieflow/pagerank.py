"""Teleporting random-walk PageRank on a network snapshot.

Power iteration is the production algorithm; the dense leading-eigenvector
solve of the full rate matrix lives in the test suite as an oracle. The
result holds the scores by node index over the snapshot's own node tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .artifacts import write_lines
from .tiedecay import NetworkSnapshot


@dataclass(frozen=True)
class WalkParams:
    damping: float = 0.85  # probability of following an edge (teleport with 1 - damping)
    tolerance: float = 1e-10  # L1 convergence threshold
    max_iterations: int = 1000

    def __post_init__(self) -> None:
        if not 0 < self.damping < 1:
            raise ValueError("damping must lie strictly between 0 and 1")
        if not self.tolerance >= 0:
            raise ValueError("tolerance must be non-negative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


@dataclass(frozen=True, eq=False)
class PageRankVector:
    """Scores by node index: values[i] is the score of nodes[i], and ``nodes``
    is the snapshot's sorted tuple, the same object. ``order`` and ``scores``
    (node -> score, in node order) are views built on first use."""

    nodes: tuple[str, ...]
    values: np.ndarray
    iterations: int
    converged: bool
    residuals: tuple[float, ...] = field(default=(), repr=False)

    def __len__(self) -> int:
        return len(self.nodes)

    @cached_property
    def order(self) -> np.ndarray:
        """Indices into ``nodes`` in descending score order; ties broken by
        ascending node id, since ``nodes`` ascends."""
        return np.argsort(-self.values, kind="stable")

    @cached_property
    def scores(self) -> dict[str, float]:
        return dict(zip(self.nodes, self.values.tolist()))


def pagerank(s: NetworkSnapshot, params: WalkParams = WalkParams()) -> PageRankVector:
    """Power iteration from the uniform start vector.

    Iterates pi <- damping * P^T pi + (1 - damping) * v until the L1 change
    drops to the tolerance or the iteration budget runs out. Non-convergence
    is flagged, not fatal: the map is a contraction for damping < 1, so
    hitting the budget indicates misconfiguration.
    """
    n = len(s.nodes)
    if n == 0:
        raise ValueError("snapshot has no nodes")
    out = s.out_strength
    dangling = np.flatnonzero(out == 0)  # rows with no out-strength teleport uniformly
    inv = np.divide(1.0, out, out=np.zeros_like(out), where=out != 0)
    # P^T x is a bincount over the CSR-ordered entries: it adds each dst's entries in
    # ascending src, as a transposed CSR mat-vec does. weights * inv[src] is diag(inv) @ W.
    src, dst = s.src, s.dst
    normalized = s.weights * inv[src]
    v = 1.0 / n
    x = np.full(n, v)
    residuals: list[float] = []
    converged = False
    for iterations in range(1, params.max_iterations + 1):
        dangling_mass = float(x[dangling].sum())
        walked = np.bincount(dst, weights=normalized * x[src], minlength=n)
        y = params.damping * (walked + dangling_mass * v) + (1.0 - params.damping) * v
        residual = float(np.abs(y - x).sum())
        residuals.append(residual)
        x = y
        if residual <= params.tolerance:
            converged = True
            break
    return PageRankVector(s.nodes, x, iterations, converged, tuple(residuals))


def write_scores_tsv(pr: PageRankVector, path, comments: Sequence[str] = ()) -> None:
    """TSV export: node<TAB>score<TAB>rank (scores to 12 significant digits)."""
    nodes, values = pr.nodes, pr.values.tolist()
    ranked = enumerate(pr.order.tolist(), start=1)
    write_lines(path, comments,
                (f"{nodes[i]}\t{values[i]:.12g}\t{rank}" for rank, i in ranked))
