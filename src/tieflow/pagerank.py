"""Teleporting random-walk PageRank on a network snapshot.

Power iteration is the production algorithm; the dense leading-eigenvector
solve of the full rate matrix lives in the test suite as an oracle.
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


@dataclass(frozen=True)
class PageRankVector:
    scores: dict[str, float]
    iterations: int
    converged: bool
    residuals: tuple[float, ...] = field(default=(), repr=False)

    def __len__(self) -> int:
        return len(self.scores)

    @cached_property
    def nodes(self) -> tuple[str, ...]:
        """The node ids, sorted: a snapshot's index space."""
        return tuple(sorted(self.scores))

    @cached_property
    def order(self) -> np.ndarray:
        """Indices into ``nodes`` in descending score order; ties broken by
        ascending node id."""
        return np.argsort(-np.array([self.scores[node] for node in self.nodes]), kind="stable")

    @cached_property
    def ranking(self) -> tuple[str, ...]:
        """Nodes in descending score order; ties broken by ascending node id."""
        nodes = self.nodes
        return tuple(nodes[i] for i in self.order.tolist())


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
    return PageRankVector(
        scores=dict(zip(s.nodes, x.tolist())),
        iterations=iterations,
        converged=converged,
        residuals=tuple(residuals),
    )


def write_scores_tsv(pr: PageRankVector, path, comments: Sequence[str] = ()) -> None:
    """TSV export: node<TAB>score<TAB>rank (scores to 12 significant digits)."""
    ranked = enumerate(pr.ranking, start=1)
    write_lines(path, comments,
                (f"{node}\t{pr.scores[node]:.12g}\t{rank}" for rank, node in ranked))
