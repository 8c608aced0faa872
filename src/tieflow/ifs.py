"""Community detection by simulated information flow.

Top-PageRank nodes seed community labels; labels propagate stochastically
along directed edges with probability (w / out_strength)^beta. Detection
runs in rounds: every labeled node re-attempts each of its out-edges once
per round, newly labeled nodes start relaying the following round, and the
first label to reach a node is final. A full round with no new labels (or
the round budget) terminates the run.

A try into a labeled node (an origin included) is skipped without a draw.
The open tries are one sorted array of keys, label * m + edge for a
snapshot of m edges; CSR rows follow node order, so that is (label, sender,
edge) order, the order in which tries draw. Each round the new relays'
out-edges join the array, one mask drops every try into a labeled node, and
the Python loop runs only over the tries left.

The cascade runs on node indices and keeps nothing between calls. Its
origins are the first indices of the PageRank order, and its result holds a
community code per node index: node names are views built on first use,
which a sweep never reads.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from . import metrics
from .artifacts import DataError, decoding, read_json, write_json
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


@dataclass(frozen=True, eq=False)
class CommunityAssignment:
    """A partition of ``nodes``, a sorted tuple (a snapshot's index space), by
    node index: codes[i] is k when node i belongs to the community with the
    k-th smallest label, values[k] (a Python int of any size), and -1 when it
    is isolated. ``origin_of`` maps each label to its seeding origin, and
    ``steps`` lists the cascade's (round, node index) labelings in draw order.

    The name-keyed views ``labels``, ``isolated`` and ``trace`` (round, node,
    label) are built on first use; ``labels`` lists the labeled nodes in node
    index order. Assignments compare by identity, as ``codes`` is an array.
    """

    nodes: tuple[str, ...]
    codes: np.ndarray
    values: tuple[int, ...]
    origin_of: dict[int, str]
    rounds: int
    steps: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_names(cls, labels: dict[str, int], nodes: Sequence[str], origin_of=None,
                   rounds: int = 0, trace=()) -> "CommunityAssignment":
        """The assignment of a node -> label map over ``nodes``, a sorted
        sequence of node ids; the nodes it does not label are isolated."""
        nodes = tuple(nodes)
        index = {node: i for i, node in enumerate(nodes)}
        values = tuple(sorted(set(labels.values())))
        number = {label: k for k, label in enumerate(values)}
        codes = np.full(len(nodes), -1)
        codes[[index[node] for node in labels]] = [number[label] for label in labels.values()]
        if any(labels.get(node) != label for _, node, label in trace):
            raise ValueError("a trace entry disagrees with its node's label")
        return cls(nodes, codes, values, dict(origin_of or {}), rounds,
                   tuple((r, index[node]) for r, node, _ in trace))

    @cached_property
    def labels(self) -> dict[str, int]:
        nodes, values, codes = self.nodes, self.values, self.codes.tolist()
        return {nodes[j]: values[codes[j]] for j in np.flatnonzero(self.codes >= 0).tolist()}

    @cached_property
    def isolated(self) -> frozenset[str]:
        return frozenset(self.nodes[j] for j in np.flatnonzero(self.codes < 0).tolist())

    @cached_property
    def trace(self) -> tuple[tuple[int, str, int], ...]:
        codes = self.codes.tolist()
        return tuple((r, self.nodes[j], self.values[codes[j]]) for r, j in self.steps)

    def communities(self) -> dict[int, list[str]]:
        """Label -> its members, sorted, in ascending label order."""
        members: dict[int, list[str]] = {label: [] for label in self.values}
        for node, label in sorted(self.labels.items()):
            members[label].append(node)
        return members


def _origin_count(pr: PageRankVector, epsilon: float) -> int:
    """floor(epsilon * S) for a ranking of S nodes, and at least one."""
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if len(pr) == 0:
        raise ValueError("PageRank vector is empty")
    return max(1, math.floor(epsilon * len(pr)))


def _probability(w: np.ndarray, out_strength: np.ndarray, beta: float) -> np.ndarray:
    """(w / out_strength)^beta per edge, from its weight and its source's
    out-strength; zero where the weight is zero (divided by out_strength + 1)."""
    return np.power(w / (out_strength + (w == 0)), beta)


def detect_communities(s: NetworkSnapshot, pr: PageRankVector, epsilon: float,
                       params: FlowParams = FlowParams()) -> CommunityAssignment:
    """Run the seeded stochastic cascade to convergence.

    Deterministic for a fixed seed: one RNG stream, consumed in
    (round, origin rank, transmitting node id, destination id) order.
    Origins never accept another origin's label; within a round, contention
    for a node is resolved by origin rank since earlier communities act
    first. Origins that never transmit successfully end up isolated.
    """
    if pr.nodes is not s.nodes and pr.nodes != s.nodes:  # both sorted: equal iff the sets are
        raise ValueError("snapshot and PageRank cover different node sets")
    origins = pr.order[:_origin_count(pr, epsilon)]  # node indices, as pr.nodes equals s.nodes
    offsets, src, dst, weights, strength = s.row_offsets, s.src, s.dst, s.weights, s.out_strength
    n = len(s.nodes)
    label = np.zeros(n, dtype=np.int64)  # by node index; 0 while unlabeled
    label[origins] = relay_labels = np.arange(1, len(origins) + 1)
    # Open tries as sorted keys label * m + edge; the origins relay first.
    m, tries, relays = len(dst), np.empty(0, dtype=np.int64), origins

    draw = random.Random(params.seed).random
    steps: list[tuple[int, int]] = []
    for round_no in range(1, params.max_rounds + 1):
        # The relays' out-edges as keys: _ragged with the label folded into its repeat.
        starts = offsets[relays]
        counts = offsets[relays + 1] - starts
        ends = np.cumsum(counts)
        new = np.repeat(relay_labels * m + starts - ends + counts, counts)
        tries = np.concatenate([tries, new + np.arange(len(new))])
        tries = np.sort(tries[label[dst[tries % m]] == 0])
        senders, edges = np.divmod(tries, m)
        probability = _probability(weights[edges], strength[src[edges]], params.beta)
        fresh: dict[int, int] = {}  # node -> label, for the nodes labeled after the mask
        for k, j, p in zip(senders.tolist(), dst[edges].tolist(), probability.tolist()):
            if j not in fresh and draw() < p:
                fresh[j] = k
        labeled = np.fromiter(fresh, np.int64, len(fresh))
        labels = np.fromiter(fresh.values(), np.int64, len(fresh))
        label[labeled] = labels
        steps.extend(zip([round_no] * len(fresh), fresh))
        if not fresh or len(steps) == n - len(origins):
            break
        relays, relay_labels = (labeled, labels) if params.relay else (relays[:0], relay_labels[:0])

    # Community k is the k-th smallest label that reached a node beyond its
    # origin; the other origins and the unlabeled nodes (label 0) get -1.
    sizes = np.bincount(label, minlength=len(origins) + 1)
    values = np.flatnonzero(sizes[1:] > 1) + 1
    code = np.full(len(sizes), -1)
    code[values] = np.arange(len(values))
    values, origin_names = values.tolist(), [s.nodes[i] for i in origins[values - 1].tolist()]
    return CommunityAssignment(nodes=s.nodes, codes=code[label], values=tuple(values),
                               origin_of=dict(zip(values, origin_names)),
                               rounds=round_no, steps=tuple(steps))


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    modularity: float
    community_count: int
    avg_size: float


def sweep_epsilon(s: NetworkSnapshot, pr: PageRankVector, epsilons: Sequence[float],
                  params: FlowParams = FlowParams()) -> list[SweepRow]:
    """One detection plus evaluation per origin fraction, same seed each run."""
    if not epsilons:
        raise ValueError("epsilons must be nonempty")
    rows = []
    for epsilon in epsilons:  # through the modules' names, which callers may wrap
        report = metrics.partition_report(s, detect_communities(s, pr, epsilon, params))
        rows.append(SweepRow(epsilon, report.modularity, report.community_count, report.avg_size))
    return rows


def assignment_to_doc(a: CommunityAssignment, time: float, epsilon: float, params: FlowParams,
                      extra_params: dict | None = None) -> dict:
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
    return CommunityAssignment.from_names(
        {node: label for label, _, members in groups for node in members},
        origin_of={label: origin for label, origin, _ in groups}, nodes=nodes)
