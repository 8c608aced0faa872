"""Community detection by simulated information flow.

Top-PageRank nodes seed community labels; labels propagate stochastically
along directed edges with probability (w / out_strength)^beta. Detection
runs in rounds: every labeled node re-attempts each of its out-edges once
per round, newly labeled nodes start relaying the following round, and the
first label to reach a node is final. A full round with no new labels (or
the round budget) terminates the run.

A try into a labeled node (an origin included) is skipped without a draw,
and labels are final. The open tries are one sorted array of keys,
label * m + edge for a snapshot of m edges; CSR rows follow node order, so
that is (label, sender, edge) order, the order in which tries draw. Each
round the new relays' out-edges join the array, one mask drops every try
into a labeled node, and the Python loop runs only over the tries left,
skipping a destination that an earlier try of the same round labeled.

The cascade runs on node indices and keeps nothing between calls: the
origins are the first indices of the PageRank order, and each round
computes the propagation probabilities of the tries it has left.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from . import metrics
from .artifacts import DataError, decoding, read_json, write_json
from .cooccur import _ragged
from .pagerank import PageRankVector
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
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be positive")


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


def select_origins(pr: PageRankVector, epsilon: float) -> tuple[str, ...]:
    """The top floor(epsilon * S) ranked nodes (at least one), in descending
    PageRank; origin k seeds label k + 1."""
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if len(pr) == 0:
        raise ValueError("PageRank vector is empty")
    count = max(1, math.floor(epsilon * len(pr)))
    return pr.ranking[:count]


def propagation_probability(w, out_strength, beta: float):
    """(w / out_strength)^beta, for scalars or arrays of edge weights and
    their source's out-strength; zero where the weight is zero."""
    w, out_strength = np.asarray(w, dtype=float), np.asarray(out_strength, dtype=float)
    if (w < 0).any():
        raise ValueError("edge weight must be non-negative")
    if (w > out_strength).any():
        raise ValueError("edge weight cannot exceed the node's out-strength")
    p = _probability(w, out_strength, beta)
    return p if p.ndim else float(p)


def _probability(w: np.ndarray, out_strength: np.ndarray, beta: float) -> np.ndarray:
    """propagation_probability of valid arrays; a zero weight is divided by out_strength + 1."""
    return np.power(w / (out_strength + (w == 0)), beta)


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
    if pr.nodes != s.nodes:  # both sorted, so equal exactly when the node sets are
        raise ValueError("snapshot and PageRank cover different node sets")
    if (s.weights < 0).any():  # out-strengths are row sums, so no weight exceeds its own
        raise ValueError("edge weight must be non-negative")
    origins = pr.order[:len(select_origins(pr, epsilon))]  # node indices: pr.nodes equals s.nodes
    offsets, src, dst, weights, strength = s.row_offsets, s.src, s.dst, s.weights, s.out_strength
    label = np.zeros(len(s.nodes), dtype=np.int64)  # by node index; 0 while unlabeled
    label[origins] = np.arange(1, len(origins) + 1)
    # Open tries as sorted keys label * m + edge; the origins relay first.
    m, tries, relays = len(dst), np.empty(0, dtype=np.int64), origins

    rng, nodes = random.Random(params.seed), s.nodes
    trace: list[tuple[int, str, int]] = []
    for round_no in range(1, params.max_rounds + 1):
        counts = offsets[relays + 1] - offsets[relays]
        tries = np.concatenate([tries, np.repeat(label[relays] * m, counts)
                                + _ragged(offsets[relays], counts)])
        tries = np.sort(tries[label[dst[tries % m]] == 0])
        senders, edges = np.divmod(tries, m)
        probability = _probability(weights[edges], strength[src[edges]], params.beta)
        fresh: dict[int, int] = {}  # node -> label, for the nodes labeled after the mask
        for k, j, p in zip(senders.tolist(), dst[edges].tolist(), probability.tolist()):
            if j not in fresh and rng.random() < p:
                fresh[j] = k
        trace.extend((round_no, nodes[j], k) for j, k in fresh.items())
        if not fresh or len(trace) == len(s.nodes) - len(origins):
            break
        label[list(fresh)] = list(fresh.values())
        relays = np.array(list(fresh) if params.relay else [], dtype=np.int64)

    labels = {node: k for _, node, k in trace}
    origin_of = {k: pr.ranking[k - 1] for k in sorted(set(labels.values()))}
    labels.update((origin, k) for k, origin in origin_of.items())
    return CommunityAssignment(
        labels=labels,
        isolated=frozenset(s.index.keys() - labels.keys()),
        origin_of=origin_of,
        rounds=round_no,
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


def read_assignment_json(path, nodes: Sequence[str]) -> CommunityAssignment:
    """The assignment in a document of assignment_to_doc's shape, rejecting
    one with a label that is not an integer, whose members or isolated are
    not lists of string ids, that lists a node or a label twice, whose
    members and isolated do not partition the snapshot's nodes, or whose
    community origin is not among its members.
    Rounds and the trace are not stored, so they come back as 0 and empty."""
    what = "communities file"
    doc = read_json(path, what)
    with decoding(path, what):
        groups = [(c["label"], c["origin"], c["members"]) for c in doc["communities"]]
        isolated = doc["isolated"]
    for label, _, _ in groups:
        if type(label) is not int:  # a JSON integer; bool is a subclass of int
            raise DataError(f"malformed {what} {path}: label {label!r} is not an integer")
    lists = [members for _, _, members in groups] + [isolated]
    if not all(isinstance(ids, list) for ids in lists):
        raise DataError(f"malformed {what} {path}: members and isolated must be lists")
    listed = list(chain.from_iterable(lists))
    if not all(isinstance(node, str) for node in [*listed, *(origin for _, origin, _ in groups)]):
        raise DataError(f"malformed {what} {path}: node ids must be strings")
    for kind, items in (("node", listed), ("label", [label for label, _, _ in groups])):
        if len(set(items)) < len(items):
            twice = min(item for item, n in Counter(items).items() if n > 1)
            raise DataError(f"malformed {what} {path}: {kind} {twice!r} is listed twice")
    unknown = set(listed).difference(nodes)
    if unknown:
        raise DataError(f"{what} {path} names nodes missing from the graph: {sorted(unknown)[:5]}")
    if len(listed) < len(nodes):
        missing = min(set(nodes).difference(listed))
        raise DataError(f"malformed {what} {path}: node {missing!r} is in neither members "
                        "nor isolated")
    for label, origin, members in groups:
        if origin not in members:
            raise DataError(f"malformed {what} {path}: origin {origin!r} of label {label} "
                            "is not one of its members")
    return CommunityAssignment(
        labels={node: label for label, _, members in groups for node in members},
        isolated=frozenset(isolated),
        origin_of={label: origin for label, origin, _ in groups},
        rounds=0,
    )
