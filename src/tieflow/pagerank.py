"""Teleporting random-walk PageRank on a network snapshot.

Power iteration is the production algorithm; the dense leading-eigenvector
solve of the full rate matrix lives in the test suite as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import sparse

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
    residual: float
    converged: bool
    residuals: tuple[float, ...] = field(default=(), repr=False)

    def __len__(self) -> int:
        return len(self.scores)


def _row_normalized(s: NetworkSnapshot) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Out-weight-normalized rows plus the dangling-row indicator.

    The diagonal out-degree matrix is pseudo-inverted as reciprocal-or-zero
    per row; rows with zero out-strength are flagged dangling.
    """
    matrix = s.matrix.tocsr()
    out = np.asarray(matrix.sum(axis=1)).ravel()
    dangling = out == 0
    inv = np.zeros_like(out)
    inv[~dangling] = 1.0 / out[~dangling]
    normalized = sparse.diags(inv) @ matrix
    return normalized.tocsr(), dangling


def transition_matrix(s: NetworkSnapshot) -> sparse.csr_matrix:
    """Row-stochastic transition matrix of the teleporting walk.

    Rows with positive out-strength are the normalized out-weights; dangling
    rows teleport uniformly (every entry 1/S).
    """
    n = len(s.nodes)
    if n == 0:
        raise ValueError("snapshot has no nodes")
    normalized, dangling = _row_normalized(s)
    # Outer product: 1/n in every column of each dangling row, zero elsewhere.
    teleport = sparse.csr_matrix(dangling[:, None] / n) @ sparse.csr_matrix(np.ones((1, n)))
    return (normalized + teleport).tocsr()


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
    normalized, dangling = _row_normalized(s)
    transposed = normalized.T.tocsr()
    v = 1.0 / n
    x = np.full(n, v)
    residuals: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, params.max_iterations + 1):
        dangling_mass = float(x[dangling].sum())
        y = params.damping * (transposed @ x + dangling_mass * v) + (1.0 - params.damping) * v
        residual = float(np.abs(y - x).sum())
        residuals.append(residual)
        x = y
        if residual <= params.tolerance:
            converged = True
            break
    scores = {node: float(x[i]) for i, node in enumerate(s.nodes)}
    return PageRankVector(
        scores=scores,
        iterations=iterations,
        residual=residuals[-1] if residuals else 0.0,
        converged=converged,
        residuals=tuple(residuals),
    )


def rank_nodes(pr: PageRankVector) -> list[str]:
    """Nodes in descending score order; ties broken by ascending node id."""
    return sorted(pr.scores, key=lambda node: (-pr.scores[node], node))


def write_scores_tsv(pr: PageRankVector, path, comments: Sequence[str] = ()) -> None:
    """TSV export: node<TAB>score<TAB>rank (scores to 12 significant digits)."""
    ranked = enumerate(rank_nodes(pr), start=1)
    write_lines(path, comments,
                (f"{node}\t{pr.scores[node]:.12g}\t{rank}" for rank, node in ranked))
