"""Independent reference implementations used to check production code.

Everything here favors directness over speed: a row-by-row CSV parser,
full-list greedy matching, exhaustive enumeration, augmenting-path
matching, dense eigensolves, power iteration over the entries in transposed
order, explicit ODE integration, literal double sums, modularity from one
entry mask per community, the cascade keyed by node name, co-visit
placement by a scan of (time, tag) tuples, node ranking and the cascade's
origins by a key sort, node degrees by counting edge endpoints, behavior
indicators from one slot Counter per student and group, and variances by
np.var per community. None of it shares code with the package, except that
the reference parser uses its time parser and error type, the reference
profiles its meal windows, BehaviorProfile and INDICATORS, the reference
cascade CommunityAssignment.from_names and, through
`propagation_probability` (the checked scalar-or-array form of the
cascade's `_probability`, which only tests call), its propagation
probabilities, the reference cascade, modularity and transposed PageRank
the snapshot's out-strength (whose summation order the pinned artifacts
fix), and the reference placement its mixed tag and retry budget; the
other package classes used are EventLog, CooccurrenceGraph, NetworkSnapshot
and PageRankVector, which `make_log`, `make_cooccurrence`, `make_snapshot`
and `make_ranking` build for the tests through the constructors production
uses, and which the oracles read only through their arrays
(`reference_degrees` through the `edges` mapping built from them).
`kernel_edge_weight` is no oracle: it is the tests' way into the production
decay kernel. Nor are `ranking`, the names of a PageRank result's order,
and `same_assignment`, which compares two assignments field by field.
`masked_decay_sums` is the kernel's earlier formula, over the events in the
graph's slot order rather than sorted by time, kept to check that reading
only the live prefix of the time index leaves every weight's bits
unchanged.
"""

from __future__ import annotations

import csv
import functools
import math
import random
from collections import Counter, defaultdict
from itertools import chain

import numpy as np
from scipy.integrate import odeint

from tieflow.cooccur import CooccurrenceGraph
from tieflow.events import CSV_HEADER, KINDS, EventLog, ParseError, parse_time
from tieflow.ifs import CommunityAssignment, _probability
from tieflow.metrics import INDICATORS, MEALS, BehaviorProfile
from tieflow.pagerank import PageRankVector
from tieflow.synth import _MIXED, _PLACEMENT_RETRIES
from tieflow.tiedecay import NetworkSnapshot, decay_sums


# ---------------------------------------------------------------- event logs


def make_log(rows) -> EventLog:
    """The log of (student, time, location[, kind[, amount]]) rows; kind
    defaults to "spend" and amount to 1.0."""
    rows = [(*row, "spend", 1.0)[:5] for row in rows]
    # Ids in first-seen order, which from_codes sorts.
    students, locations = ({row[k]: None for row in rows} for k in (0, 2))
    code = [{name: i for i, name in enumerate(names)} for names in (students, locations)]
    return EventLog.from_codes(
        tuple(students), [code[0][row[0]] for row in rows],
        tuple(locations), [code[1][row[2]] for row in rows],
        [row[1] for row in rows], [row[4] for row in rows], [row[3] == "spend" for row in rows],
    )


def log_rows(log: EventLog) -> list[tuple]:
    """The log's (student, time, location, kind, amount) rows, in log order."""
    return [
        (log.students[s], t, log.locations[loc], "spend" if spend else "recharge", amount)
        for s, t, loc, spend, amount in zip(
            log.student.tolist(), log.time.tolist(), log.location.tolist(),
            log.spend.tolist(), log.amount.tolist())
    ]


def reference_parse(stream) -> list[tuple]:
    """parse_events one row at a time: the (student, time, location, kind,
    amount) rows, stably sorted by (location, time); ParseError naming the
    first physical line of the first faulty row."""
    reader = csv.reader(stream)
    rows = []
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError(1, "missing header")
        if [h.strip() for h in header] != CSV_HEADER:
            raise ParseError(1, f"bad header {header!r}, expected {','.join(CSV_HEADER)}")
        end = reader.line_num
        for row in reader:
            line, end = end + 1, reader.line_num
            if row:
                rows.append(_reference_row(row, line))
    except csv.Error as exc:
        raise ParseError(reader.line_num, str(exc)) from None
    return sorted(rows, key=lambda row: (row[2], row[1]))


def _reference_row(row, line: int) -> tuple:
    if len(row) != len(CSV_HEADER):
        raise ParseError(line, f"expected {len(CSV_HEADER)} columns, got {len(row)}")
    student, raw_ts, location, kind, raw_amount = (field.strip() for field in row)
    for column, value in (("student_id", student), ("location_id", location)):
        if not value:
            raise ParseError(line, f"empty {column}")
        if "\t" in value or "\r" in value or "\n" in value:
            raise ParseError(line, f"{column} {value!r} contains a tab or line break")
    if kind not in KINDS:
        raise ParseError(line, f"unknown kind {kind!r}")
    try:
        timestamp = parse_time(raw_ts)
    except ValueError as exc:
        raise ParseError(line, f"bad timestamp: {exc}") from None
    try:
        amount = float(raw_amount)
    except ValueError:
        raise ParseError(line, f"unparsable amount {raw_amount!r}") from None
    if not math.isfinite(amount):
        raise ParseError(line, f"non-finite amount {raw_amount!r}")
    if amount < 0:
        raise ParseError(line, f"negative amount {raw_amount!r}")
    return (student, timestamp, location, kind, amount)


# ---------------------------------------------------------------- snapshots


def make_snapshot(weights: dict, nodes, time: float = 0.0) -> NetworkSnapshot:
    """The snapshot of {(src, dst): weight} entries over the sorted nodes,
    lexsorted into the (src, dst) index order NetworkSnapshot requires."""
    nodes = tuple(sorted(nodes))
    index = {node: i for i, node in enumerate(nodes)}
    src = np.array([index[a] for a, _ in weights], dtype=np.intp)
    dst = np.array([index[b] for _, b in weights], dtype=np.intp)
    order = np.lexsort((dst, src))
    values = np.array(list(weights.values()), dtype=float)
    return NetworkSnapshot(time, nodes, src[order], dst[order], values[order])


def make_ranking(scores: dict) -> PageRankVector:
    """A converged PageRank result of {node: score}, in any order: the names
    sorted, as a snapshot's index space, and the scores by node index."""
    nodes = tuple(sorted(scores))
    return PageRankVector(nodes, np.array([scores[node] for node in nodes], dtype=float),
                          iterations=1, converged=True)


def dense_weights(snapshot) -> np.ndarray:
    """The snapshot's n x n adjacency, from its entry arrays."""
    n = len(snapshot.nodes)
    weights = np.zeros((n, n))
    np.add.at(weights, (snapshot.src, snapshot.dst), snapshot.weights)
    return weights


# ---------------------------------------------------------------- matching


def cooccurrences_at_location(events_m, events_n, window: int) -> list[int]:
    """Greedy one-to-one matching of two students' full sorted timestamp
    lists at one location.

    Walks both lists in order, pairing the earliest compatible events
    (|t_m - t_n| <= window, boundary inclusive); each event participates in
    at most one pair. Returns min(t_m, t_n) for every matched pair.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    i = j = 0
    matches: list[int] = []
    while i < len(events_m) and j < len(events_n):
        tm, tn = events_m[i], events_n[j]
        if abs(tm - tn) <= window:
            matches.append(tm if tm < tn else tn)
            i += 1
            j += 1
        elif tm < tn:
            i += 1
        else:
            j += 1
    return matches


def per_location_lists(log) -> dict:
    """location -> student -> that student's timestamps there, in log order."""
    by_location: dict = {}
    for student, timestamp, location, _, _ in log_rows(log):
        by_location.setdefault(location, {}).setdefault(student, []).append(timestamp)
    return by_location


def make_cooccurrence(nodes, edges: dict) -> CooccurrenceGraph:
    """The co-occurrence graph of {(a, b): times} edges (a < b) over nodes."""
    nodes = tuple(sorted(nodes))
    index = {node: i for i, node in enumerate(nodes)}
    keys = sorted(edges)
    counts = [len(edges[key]) for key in keys]
    return CooccurrenceGraph(
        nodes,
        np.array([index[a] for a, _ in keys], dtype=np.int64),
        np.array([index[b] for _, b in keys], dtype=np.int64),
        np.cumsum([0, *counts], dtype=np.int64),
        np.array([t for key in keys for t in sorted(edges[key])], dtype=np.int64),
    )


def reference_degrees(g) -> Counter:
    """Distinct neighbors per node, counted over the endpoints of the
    graph's edge keys; a node without edges counts 0."""
    return Counter(chain.from_iterable(g.edges))


def enumerate_max_matching(events_a, events_b, window) -> int:
    """Maximum one-to-one pairing count by trying every assignment."""

    def best(i: int, used: frozenset) -> int:
        if i == len(events_a):
            return 0
        # skip events_a[i]
        top = best(i + 1, used)
        for j, tb in enumerate(events_b):
            if j in used or abs(events_a[i] - tb) > window:
                continue
            top = max(top, 1 + best(i + 1, used | {j}))
        return top

    return best(0, frozenset())


def kuhn_max_matching(events_a, events_b, window) -> int:
    """Maximum bipartite matching via augmenting paths on the |dt| graph."""
    compatible = [
        [j for j, tb in enumerate(events_b) if abs(ta - tb) <= window]
        for ta in events_a
    ]
    match_of_b: dict[int, int] = {}

    def augment(i: int, seen: set) -> bool:
        for j in compatible[i]:
            if j in seen:
                continue
            seen.add(j)
            if j not in match_of_b or augment(match_of_b[j], seen):
                match_of_b[j] = i
                return True
        return False

    total = 0
    for i in range(len(events_a)):
        if augment(i, set()):
            total += 1
    return total


def all_pairs_cooccurrence_counts(log, window) -> dict:
    """Per unordered student pair: max-matching count summed over locations.

    Enumerates every event pair per location to build the compatibility
    structure, then scores it with augmenting-path matching.
    """
    by_location = per_location_lists(log)
    counts: dict = {}
    for location in sorted(by_location):
        per_student = by_location[location]
        students = sorted(per_student)
        for x in range(len(students)):
            for y in range(x + 1, len(students)):
                a, b = students[x], students[y]
                matched = kuhn_max_matching(per_student[a], per_student[b], window)
                if matched:
                    counts[(a, b)] = counts.get((a, b), 0) + matched
    return counts


# ---------------------------------------------------------------- tie decay


def kernel_edge_weight(times, params, t: float) -> float:
    """One edge's weight at time t, from the production kernel `decay_sums`,
    which takes its times ascending."""
    times = np.sort(np.asarray(times))
    return float(decay_sums(times, np.zeros(len(times), dtype=np.intp), 1, params.alpha, t)[0])


def masked_decay_sums(times, edge_of, n_edges: int, alpha: float, t: float) -> np.ndarray:
    """Per edge, the decay sum over every event slot, those after t adding
    a zero: the kernel as it was before it skipped them."""
    live = times <= t
    contrib = np.zeros(len(times))
    contrib[live] = np.exp(-alpha * (t - times[live]))
    return np.bincount(edge_of, weights=contrib, minlength=n_edges)


def ode_edge_weight(times, alpha: float, t: float) -> float:
    """Integrate dw/dt = -alpha*w between events, with unit jumps at events."""
    w = 0.0
    previous = None
    for tau in times:
        if tau > t:
            break
        if previous is not None and tau > previous:
            w = _decay_segment(w, alpha, previous, tau)
        w += 1.0
        previous = tau
    if previous is None:
        return 0.0
    if t > previous:
        w = _decay_segment(w, alpha, previous, t)
    return w


def _decay_segment(w0: float, alpha: float, t0: float, t1: float) -> float:
    if w0 == 0.0:
        return 0.0
    trajectory = odeint(
        lambda y, _: -alpha * y, [w0], [t0, t1],
        rtol=1e-10, atol=1e-280, mxstep=100_000,
    )
    return float(trajectory[-1, 0])


# ---------------------------------------------------------------- pagerank


def dense_rate_matrix(snapshot, damping: float) -> np.ndarray:
    """The full teleporting-walk rate matrix built explicitly."""
    n = len(snapshot.nodes)
    weights = dense_weights(snapshot)
    out = weights.sum(axis=1)
    p = np.zeros((n, n))
    for i in range(n):
        if out[i] > 0:
            p[i] = weights[i] / out[i]
        else:
            p[i] = 1.0 / n  # dangling: c_i = 1 row becomes v^T
    return damping * p + (1.0 - damping) * np.ones((n, n)) / n


def dense_pagerank(snapshot, damping: float) -> np.ndarray:
    """Leading eigenvector of G^T with eigenvalue 1, L1-normalized positive."""
    g = dense_rate_matrix(snapshot, damping)
    eigenvalues, eigenvectors = np.linalg.eig(g.T)
    lead = int(np.argmin(np.abs(eigenvalues - 1.0)))
    vector = np.real(eigenvectors[:, lead])
    if vector.sum() < 0:
        vector = -vector
    return vector / vector.sum()


def transposed_pagerank(s, damping: float = 0.85, tolerance: float = 1e-10,
                        max_iterations: int = 1000):
    """pagerank's power iteration over the entries re-sorted into (dst, src)
    order, the order of a transposed CSR mat-vec: (scores, iterations,
    residuals). A bincount adds each bin's entries in array order, so this
    adds every destination's terms in the same sequence as the CSR order."""
    n = len(s.nodes)
    out = s.out_strength
    dangling = out == 0
    inv = np.divide(1.0, out, out=np.zeros_like(out), where=~dangling)
    order = np.argsort(s.dst * n + s.src)
    src, dst = s.src[order], s.dst[order]
    normalized = (s.weights * inv[s.src])[order]
    x, v, residuals = np.full(n, 1.0 / n), 1.0 / n, []
    for iterations in range(1, max_iterations + 1):
        walked = np.bincount(dst, weights=normalized * x[src], minlength=n)
        y = damping * (walked + float(x[dangling].sum()) * v) + (1.0 - damping) * v
        residuals.append(float(np.abs(y - x).sum()))
        x = y
        if residuals[-1] <= tolerance:
            break
    return x.tolist(), iterations, tuple(residuals)


# ----------------------------------------------------------------- ranking


def reference_rank_nodes(scores: dict) -> list[str]:
    """The PageRank order by name, as one key sort of {node: score}:
    descending score, then ascending node id."""
    return sorted(scores, key=lambda node: (-scores[node], node))


def ranking(pr: PageRankVector) -> tuple[str, ...]:
    """The names of a PageRank result's nodes in its ``order``; no oracle,
    the tests' name view of the production order."""
    return tuple(pr.nodes[i] for i in pr.order.tolist())


def reference_origins(pr: PageRankVector, epsilon: float) -> list[str]:
    """The cascade's origins by name: the top floor(epsilon * S) of the S
    nodes in reference_rank_nodes order, and at least one."""
    ranked = reference_rank_nodes(pr.scores)
    return ranked[:max(1, math.floor(epsilon * len(ranked)))]


# -------------------------------------------------------------- modularity


def double_sum_modularity(snapshot, labels: dict, directed: bool = True) -> float:
    """Literal O(n^2) double sum over labeled node pairs."""
    weights = dense_weights(snapshot)
    if not directed:
        weights = weights + weights.T
    total = weights.sum()
    out = weights.sum(axis=1)
    incoming = weights.sum(axis=0)
    index = {node: i for i, node in enumerate(snapshot.nodes)}
    q = 0.0
    for node_a, label_a in labels.items():
        for node_b, label_b in labels.items():
            if label_a != label_b:
                continue
            i, j = index[node_a], index[node_b]
            q += weights[i, j] - out[i] * incoming[j] / total
    return q / total


def reference_modularity(snapshot, labels: dict, directed: bool = True) -> float:
    """modularity one community at a time, from an entry mask per community:
    its intra-community weight over the entries in (src, dst) order, less
    the product of its members' strength sums in ascending node id, added
    in ascending label order. These are the orders production sums in, so
    the two agree bit for bit."""
    total = float(np.sum(snapshot.weights))
    if total <= 0:
        raise ValueError("snapshot has zero total weight")
    out_strength = snapshot.out_strength
    in_strength = np.bincount(snapshot.dst, weights=snapshot.weights,
                              minlength=len(snapshot.nodes))
    if not directed:
        out_strength = in_strength = (out_strength + in_strength) / 2
    index = {node: i for i, node in enumerate(snapshot.nodes)}
    members: dict = {}
    for node, label in labels.items():
        members.setdefault(label, []).append(index[node])
    q = 0.0
    for _, nodes in sorted(members.items()):
        inside = np.zeros(len(snapshot.nodes), dtype=bool)
        inside[nodes] = True
        idx = np.flatnonzero(inside)
        entries = np.flatnonzero(inside[snapshot.src] & inside[snapshot.dst])
        q += float(np.sum(snapshot.weights[entries])) / total
        q -= float(out_strength[idx].sum()) * float(in_strength[idx].sum()) / (total * total)
    return q


# ------------------------------------------------------ behavior indicators


def shannon_entropy(counts: dict) -> float:
    """Natural-log entropy of an empirical count distribution, its terms
    subtracted in the order the counts are listed in."""
    total = sum(counts.values())
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in counts.values():
        if count > 0:
            p = count / total
            entropy -= p * math.log(p)
    return entropy


def reference_behavior_profiles(log: EventLog, category_map: dict, semester) -> dict:
    """behavior_profiles one row at a time: sums and counts per student in log
    order, a set of days, and one Counter of slots per (student, meal or
    bath) fed row by row, whose entropy shannon_entropy takes."""
    amount, times, days = defaultdict(float), Counter(), defaultdict(set)
    slots = defaultdict(Counter)
    for student, t, location, kind, value in log_rows(log):
        if kind != "spend" or not semester.start <= t < semester.end:
            continue
        amount[student] += value
        times[student] += 1
        days[student].add(t // 86400)
        hour, category = t // 3600 % 24, category_map[location]
        if category == "dining":
            for meal, (start, end) in MEALS.items():
                if start <= hour < end:
                    slots[student, meal][hour] += 1
        elif category == "bath":
            slots[student, "bath"][(t // 86400 + 3) % 7] += 1  # 1970-01-01 was a Thursday
    return {
        student: BehaviorProfile(
            amount[student], times[student], len(days[student]),
            *(shannon_entropy(slots[student, group])
              for group in ("bath", "breakfast", "lunch", "dinner")))
        for student in log.students
    }


def reference_variance_comparison(profiles: dict, labels: dict) -> dict:
    """variance_comparison through np.var per indicator and per community of
    two or more profiled members, each in ascending node id, the communities
    in ascending label order."""
    members = defaultdict(list)
    for node, label in sorted(labels.items(), key=lambda item: (item[1], item[0])):
        if node in profiles:
            members[label].append(node)
    eligible = [nodes for nodes in members.values() if len(nodes) >= 2]
    table = {}
    for name in INDICATORS:
        value = {node: float(getattr(profile, name)) for node, profile in profiles.items()}
        within = [np.var([value[node] for node in nodes]) for nodes in eligible]
        table[name] = (float(np.var(list(value.values()))),
                       float(np.mean(within)) if within else math.nan)
    return table


# ----------------------------------------------------------------- cascade


def propagation_probability(w, out_strength, beta: float):
    """(w / out_strength)^beta, for scalars or arrays of edge weights and
    their source's out-strength, from the cascade's `_probability`; zero
    where the weight is zero. Rejects a negative weight, or one above its
    source's out-strength, which no snapshot holds."""
    w, out_strength = np.asarray(w, dtype=float), np.asarray(out_strength, dtype=float)
    if (w < 0).any():
        raise ValueError("edge weight must be non-negative")
    if (w > out_strength).any():
        raise ValueError("edge weight cannot exceed the node's out-strength")
    p = _probability(w, out_strength, beta)
    return p if p.ndim else float(p)


def reference_cascade(s, pr, epsilon: float, params) -> CommunityAssignment:
    """detect_communities keyed by node name: the same contract, with each
    node's (destination, probability) out-edges rebuilt from the snapshot's
    rows, dict membership tests for origins and labeled nodes, and each
    round's new relays merged into re-sorted transmitter lists."""
    if set(pr.scores) != set(s.nodes):
        raise ValueError("snapshot and PageRank cover different node sets")
    origin_label = {origin: k for k, origin in enumerate(reference_origins(pr, epsilon), start=1)}

    edge_probability = propagation_probability(s.weights, s.out_strength[s.src], params.beta)
    offsets, index = s.row_offsets, {node: i for i, node in enumerate(s.nodes)}

    @functools.cache
    def attempts_from(node: str) -> list[tuple[str, float]]:
        """(destination, probability) per out-edge, in ascending node id."""
        start, stop = offsets[index[node]], offsets[index[node] + 1]
        return list(zip([s.nodes[j] for j in s.dst[start:stop].tolist()],
                        edge_probability[start:stop].tolist()))

    rng = random.Random(params.seed)
    labels: dict[str, int] = {}
    transmitters: dict[int, list[str]] = {label: [origin] for origin, label in origin_label.items()}
    trace: list[tuple[int, str, int]] = []
    non_origin_count = len(s.nodes) - len(origin_label)
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

    # An origin that labeled no node stays unlabeled, so isolated.
    member_counts = {label: 0 for label in origin_label.values()}
    for label in labels.values():
        member_counts[label] += 1
    origin_of: dict[int, str] = {}
    for origin, label in origin_label.items():
        if member_counts[label] > 0:
            labels[origin] = label
            origin_of[label] = origin
    return CommunityAssignment.from_names(labels, s.nodes, origin_of, rounds_run, trace)


def same_assignment(a: CommunityAssignment, b: CommunityAssignment) -> bool:
    """Whether two assignments hold equal fields, their code arrays compared
    element by element (an assignment itself compares by identity)."""
    return (np.array_equal(a.codes, b.codes)
            and (a.nodes, a.values, a.origin_of, a.rounds, a.steps)
            == (b.nodes, b.values, b.origin_of, b.rounds, b.steps))


# --------------------------------------------------------------------- BFS


def rank_priority_bfs(nodes, out_edges, origins) -> dict:
    """Multi-source BFS, one hop per round, earlier origins claim first.

    ``origins`` is rank-ordered; labels are 1-based rank positions. Mirrors
    the cascade semantics when every propagation succeeds: origins never
    relabel, first label wins, newly claimed nodes expand next round.
    """
    origin_rank = {origin: rank for rank, origin in enumerate(origins, start=1)}
    labels: dict = {}
    frontier = {rank: [origin] for origin, rank in origin_rank.items()}
    while True:
        claimed: dict = {}
        new_count = 0
        for rank in sorted(frontier):
            next_frontier = []
            for src in frontier[rank]:
                for dst in out_edges.get(src, ()):
                    if dst in origin_rank or dst in labels:
                        continue
                    labels[dst] = rank
                    next_frontier.append(dst)
                    new_count += 1
            claimed[rank] = sorted(next_frontier)
        frontier = claimed
        if new_count == 0:
            break
    return labels


# --------------------------------------------------------------- placement


def reference_placement(
    rng: np.random.Generator,
    location_ids: np.ndarray,
    tags: np.ndarray,
    start: int,
    end: int,
    separation: int,
) -> np.ndarray:
    """synth._place_covisit_times as a scan of sorted (time, tag) tuples:
    each draw walks its location's timeline from the window's left edge
    until a conflict or a time past the window."""
    from bisect import bisect_left, insort

    placed: dict[int, list[tuple[int, int]]] = defaultdict(list)
    times = np.empty(len(location_ids), dtype=np.int64)
    for k in range(len(location_ids)):
        location = int(location_ids[k])
        tag = int(tags[k])
        timeline = placed[location]
        for _ in range(_PLACEMENT_RETRIES):
            t0 = int(rng.integers(start, end))
            left = bisect_left(timeline, (t0 - separation, _MIXED - 1))
            conflict = False
            for existing_t, existing_tag in timeline[left:]:
                if existing_t > t0 + separation:
                    break
                if existing_tag == _MIXED or tag == _MIXED or existing_tag != tag:
                    conflict = True
                    break
            if not conflict:
                break
        else:
            raise ValueError(
                "could not separate cross-community co-visits; "
                "the configuration is too dense for the semester"
            )
        insort(timeline, (t0, tag))
        times[k] = t0
    return times


# --------------------------------------------------------------------- NMI


def contingency_nmi(a: dict, b: dict) -> float:
    """Direct contingency-table evaluation (arithmetic-mean normalization)."""
    common = sorted(set(a) & set(b))
    n = len(common)
    labels_a = sorted({a[k] for k in common})
    labels_b = sorted({b[k] for k in common})
    table = np.zeros((len(labels_a), len(labels_b)))
    for node in common:
        table[labels_a.index(a[node]), labels_b.index(b[node])] += 1
    pa = table.sum(axis=1) / n
    pb = table.sum(axis=0) / n
    h_a = -sum(p * np.log(p) for p in pa if p > 0)
    h_b = -sum(p * np.log(p) for p in pb if p > 0)
    info = 0.0
    for i in range(len(labels_a)):
        for j in range(len(labels_b)):
            p = table[i, j] / n
            if p > 0:
                info += p * np.log(p / (pa[i] * pb[j]))
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    mean = (h_a + h_b) / 2.0
    return float(info / mean) if mean > 0 else 0.0
