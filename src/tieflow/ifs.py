"""Community detection by simulated information flow.

Top-PageRank nodes seed community labels; labels propagate stochastically
along directed edges with probability (w / out_strength)^beta. Detection
runs in rounds: every labeled node re-attempts each of its out-edges once
per round, newly labeled nodes start relaying the following round, and the
first label to reach a node is final. A full round with no new labels (or
the round budget) terminates the run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import metrics
from .artifacts import DataError, decoding, read_json, write_json
from .pagerank import PageRankVector, rank_nodes
from .tiedecay import NetworkSnapshot


@dataclass(frozen=True)
class FlowParams:
    beta: float = 0.25  # propagation exponent, strictly inside (0, 1)
    seed: int = 0
    max_rounds: int = 100
    relay: bool = True  # False: only origins transmit (single-hop variant)

    def __post_init__(self) -> None:
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie strictly between 0 and 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be positive")


@dataclass(frozen=True)
class OriginSet:
    origins: tuple[str, ...]  # descending PageRank
    epsilon: float
    labels: dict[str, int]  # origin -> 1-based rank label

    def __len__(self) -> int:
        return len(self.origins)


@dataclass(frozen=True)
class CommunityAssignment:
    """Final labeling; labels and isolated partition the node set.

    ``origin_of`` maps each surviving community label to its seeding origin.
    ``trace`` records every label assignment as (round, node, label); each
    node appears at most once since a label, once assigned, is final.
    """

    labels: dict[str, int]
    isolated: frozenset[str]
    origin_of: dict[int, str]
    rounds: int
    trace: tuple[tuple[int, str, int], ...] = ()

    def communities(self) -> dict[int, list[str]]:
        members: dict[int, list[str]] = {label: [] for label in self.origin_of}
        for node, label in self.labels.items():
            members[label].append(node)
        return {label: sorted(nodes) for label, nodes in members.items()}


def select_origins(pr: PageRankVector, epsilon: float) -> OriginSet:
    """Take the top floor(epsilon * S) ranked nodes (at least one) as origins."""
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if len(pr) == 0:
        raise ValueError("PageRank vector is empty")
    count = max(1, math.floor(epsilon * len(pr)))
    origins = tuple(rank_nodes(pr)[:count])
    return OriginSet(
        origins=origins,
        epsilon=epsilon,
        labels={origin: i for i, origin in enumerate(origins, start=1)},
    )


def propagation_probability(w: float, out_strength: float, beta: float) -> float:
    """(w / out_strength)^beta; zero when the node has no out-strength."""
    if w < 0:
        raise ValueError("edge weight must be non-negative")
    if w > out_strength:
        raise ValueError("edge weight cannot exceed the node's out-strength")
    if out_strength == 0 or w == 0:
        return 0.0
    return (w / out_strength) ** beta


def detect_communities(
    s: NetworkSnapshot,
    pr: PageRankVector,
    epsilon: float,
    params: FlowParams = FlowParams(),
) -> CommunityAssignment:
    """Run the seeded stochastic cascade to convergence.

    Deterministic for a fixed seed: one RNG stream, consumed in
    (round, origin rank, transmitting node id, destination id) order.
    Origins never accept another origin's label; within a round, contention
    for a node is resolved by origin rank since earlier communities act
    first. Origins that never transmit successfully end up isolated.
    """
    if set(pr.scores) != set(s.nodes):
        raise ValueError("snapshot and PageRank cover different node sets")
    origin_set = select_origins(pr, epsilon)
    origin_label = origin_set.labels

    matrix = s.matrix.tocsr()
    matrix.sort_indices()  # ascending column index = ascending node id
    out_strength = np.asarray(matrix.sum(axis=1)).ravel()
    index = {node: i for i, node in enumerate(s.nodes)}
    # Per-edge probability (w / out_strength)^beta, computed once per run.
    per_edge_strength = np.repeat(out_strength, np.diff(matrix.indptr))
    edge_probability = np.power(matrix.data / per_edge_strength, params.beta)
    edge_cache: dict[str, list[tuple[str, float]]] = {}

    def attempts_from(node: str) -> list[tuple[str, float]]:
        cached = edge_cache.get(node)
        if cached is None:
            row = index[node]
            start, stop = matrix.indptr[row], matrix.indptr[row + 1]
            cached = [
                (s.nodes[col], float(p))
                for col, p in zip(matrix.indices[start:stop], edge_probability[start:stop])
            ]
            edge_cache[node] = cached
        return cached

    rng = random.Random(params.seed)
    labels: dict[str, int] = {}
    transmitters: dict[int, list[str]] = {label: [origin] for origin, label in origin_label.items()}
    trace: list[tuple[int, str, int]] = []
    non_origin_count = len(s.nodes) - len(origin_set)
    rounds_run = 0

    for round_no in range(1, params.max_rounds + 1):
        rounds_run = round_no
        newly_labeled: dict[int, list[str]] = {}
        new_count = 0
        for label in sorted(transmitters):  # ascending label = descending origin rank
            for src in transmitters[label]:
                for dst, probability in attempts_from(src):
                    if dst in origin_label or dst in labels:
                        continue
                    if rng.random() < probability:
                        labels[dst] = label
                        trace.append((round_no, dst, label))
                        newly_labeled.setdefault(label, []).append(dst)
                        new_count += 1
        if params.relay:
            for label, fresh in newly_labeled.items():
                transmitters[label] = sorted(transmitters[label] + fresh)
        if new_count == 0 or len(labels) == non_origin_count:
            break

    member_counts = {label: 0 for label in origin_label.values()}
    for label in labels.values():
        member_counts[label] += 1
    isolated = set()
    origin_of: dict[int, str] = {}
    for origin, label in origin_label.items():
        if member_counts[label] > 0:
            labels[origin] = label
            origin_of[label] = origin
        else:
            isolated.add(origin)
    isolated.update(node for node in s.nodes if node not in labels)
    return CommunityAssignment(
        labels=labels,
        isolated=frozenset(isolated),
        origin_of=origin_of,
        rounds=rounds_run,
        trace=tuple(trace),
    )


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    modularity: float
    community_count: int
    avg_size: float


def sweep_epsilon(
    s: NetworkSnapshot,
    pr: PageRankVector,
    epsilons: Sequence[float],
    params: FlowParams = FlowParams(),
) -> list[SweepRow]:
    """One detection plus evaluation per origin fraction, same seed each run."""
    if not epsilons:
        raise ValueError("epsilons must be nonempty")
    rows = []
    for epsilon in epsilons:
        assignment = detect_communities(s, pr, epsilon, params)
        report = metrics.partition_report(s, assignment)
        rows.append(
            SweepRow(
                epsilon=epsilon,
                modularity=report.modularity,
                community_count=report.community_count,
                avg_size=report.avg_size,
            )
        )
    return rows


def assignment_to_doc(
    a: CommunityAssignment,
    time: float,
    epsilon: float,
    params: FlowParams,
    extra_params: dict | None = None,
) -> dict:
    """JSON-ready document with per-community origin and member lists."""
    communities = a.communities()
    doc = {
        "time": time,
        "epsilon": epsilon,
        "beta": params.beta,
        "seed": params.seed,
        "communities": [
            {"label": label, "origin": a.origin_of[label], "members": communities[label]}
            for label in sorted(communities)
        ],
        "isolated": sorted(a.isolated),
    }
    if extra_params:
        doc["params"] = extra_params
    return doc


def write_assignment_json(doc: dict, path) -> None:
    write_json(path, doc)


def read_assignment_json(path) -> CommunityAssignment:
    """The assignment in a document of assignment_to_doc's shape. Rounds
    and the trace are not stored, so they come back as 0 and empty."""
    what = "communities file"
    doc = read_json(path, what)
    labels: dict[str, int] = {}
    origin_of: dict[int, str] = {}
    with decoding(path, what):
        for community in doc["communities"]:
            label = int(community["label"])
            origin_of[label] = community["origin"]
            for member in community["members"]:
                labels[member] = label
        isolated = frozenset(doc["isolated"])
    if not all(isinstance(node, str) for node in [*labels, *isolated, *origin_of.values()]):
        raise DataError(f"malformed {what} {path}: node ids must be strings")
    return CommunityAssignment(labels=labels, isolated=isolated, origin_of=origin_of, rounds=0)
