"""Partition quality and student behavior indicators.

Modularity follows the directed-weighted form: observed intra-community
weight minus the out-strength/in-strength null expectation, normalized by
total weight. A symmetrized undirected variant is available for comparison
with undirected baselines. It reads an assignment's community code per node
index and scores only the labeled nodes' rows. Scores depend on the node ->
label map alone: community terms are added in ascending label order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .cooccur import _distinct, _ragged
from .events import TIME_LIMIT, EventLog, TimeRange

if TYPE_CHECKING:  # circular at runtime only
    from .ifs import CommunityAssignment
    from .tiedecay import NetworkSnapshot

LOCATION_CATEGORIES = ("dining", "bath", "shop", "other")
MEALS = {"breakfast": (5, 10), "lunch": (10, 15), "dinner": (15, 22)}  # half-open UTC hours


@dataclass(frozen=True)
class PartitionReport:
    modularity: float
    community_count: int
    avg_size: float  # labeled nodes / community_count, 0 when no communities
    isolated_count: int


INDICATORS = ("amount", "times", "days",  # the rows of behavior_profiles' matrix, in order
              "bath_entropy", "breakfast_entropy", "lunch_entropy", "dinner_entropy")


def modularity(s: "NetworkSnapshot", a: "CommunityAssignment", directed: bool = True) -> float:
    """Partition quality on the snapshot; labeled node pairs only. Community
    terms are added in ascending label order, each summing its entries in
    (src, dst) order and its members' strengths in ascending node id.

    directed=False is the classic undirected weighted form on the symmetrized
    adjacency w_ij + w_ji. Halved, that adjacency has the same total and the
    same intra-community weights, and out- and in-strength both (out + in) / 2.
    The assignment must cover the snapshot's own node tuple, or an equal one.
    """
    if a.nodes is not s.nodes and a.nodes != s.nodes:  # codes index the snapshot's nodes
        raise ValueError("snapshot and assignment cover different node sets")
    total = s.total_weight
    if total <= 0:
        raise ValueError("snapshot has zero total weight")
    out_strength, in_strength = s.out_strength, s.in_strength
    if not directed:
        out_strength = in_strength = (out_strength + in_strength) / 2

    codes = a.codes
    # Members by (community, node id), and their rows' entries in (community,
    # src, dst) order: the orders a submatrix sum adds them in.
    labeled = np.flatnonzero(codes >= 0)
    members = labeled[np.argsort(codes[labeled], kind="stable")]
    member_codes = codes[members]
    counts = s.row_offsets[members + 1] - s.row_offsets[members]
    entries, entry_codes = _ragged(s.row_offsets[members], counts), np.repeat(member_codes, counts)
    intra = codes[s.dst[entries]] == entry_codes
    entries, entry_codes = entries[intra], entry_codes[intra]
    communities = np.arange(len(a.values) + 1)
    inside = _segment_sums(s.weights[entries], np.searchsorted(entry_codes, communities))
    out_sums, in_sums = _segment_sums(np.stack((out_strength[members], in_strength[members])),
                                      np.searchsorted(member_codes, communities))

    q = 0.0
    for w, out_sum, in_sum in zip(inside.tolist(), out_sums.tolist(), in_sums.tolist()):
        q += w / total
        q -= out_sum * in_sum / (total * total)
    return q


def _segment_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per k, np.add.reduce(values[..., bounds[k]:bounds[k + 1]]) bit for bit,
    row by row for 2-D values: the sum a submatrix sum (np.sum) takes, unlike
    np.add.reduceat.

    np.add.reduce adds fewer than 8 values one at a time, first to last, so
    short segments are added a column at a time across all segments and rows;
    only longer ones, which it sums pairwise, are reduced one by one, each row
    on its own (along axis 1, numpy may add each row one value at a time).
    """
    start, size = bounds[:-1], np.diff(bounds)
    rows = np.atleast_2d(values)
    sums = np.zeros((len(rows), len(size)))
    for j in range(7):
        more = np.flatnonzero(size > j)
        sums[:, more] += rows[:, start[more] + j]
    for k in np.flatnonzero(size >= 8).tolist():
        for row, row_sums in zip(rows, sums):
            row_sums[k] = np.add.reduce(row[bounds[k]:bounds[k + 1]])
    return sums.reshape(values.shape[:-1] + (len(size),))


def partition_report(
    s: "NetworkSnapshot", a: "CommunityAssignment", directed: bool = True
) -> PartitionReport:
    labeled, count = int(np.count_nonzero(a.codes >= 0)), len(a.values)
    return PartitionReport(modularity(s, a, directed=directed), count,
                           labeled / count if count else 0.0, len(a.nodes) - labeled)


def behavior_profiles(
    log: EventLog,
    category_map: Mapping[str, str],
    semester: TimeRange,
) -> np.ndarray:
    """Aggregate spend behavior per student over the semester: a float64
    matrix with one row per INDICATORS entry, in that order, and one column
    per student of log.students.

    Meal entropies bin a student's dining events by hour-of-day inside each
    meal window; bath entropy bins by day of week. Point-mass
    distributions give entropy 0 (perfectly regular behavior).
    """
    missing = set(log.locations) - set(category_map)
    if missing:
        raise ValueError(f"category_map missing locations: {sorted(missing)[:5]}")
    bad = set(category_map.values()) - set(LOCATION_CATEGORIES)
    if bad:
        raise ValueError(f"unknown location categories: {sorted(bad)}")

    n = len(log.students)
    keep = log.spend & (semester.start <= log.time) & (log.time < semester.end)
    student, day, location = log.student[keep], log.time[keep] // 86400, log.location[keep]
    amounts = np.bincount(student, weights=log.amount[keep], minlength=n)
    counts = np.bincount(student, minlength=n)
    per_day = TIME_LIMIT // 86400
    days = np.bincount(_distinct(student * per_day + day) // per_day, minlength=n)

    # Slots: the hour of a dining event inside a meal window, the weekday
    # (1970-01-01 was a Thursday) of a bath event.
    groups = ("bath", "breakfast", "lunch", "dinner")  # the entropy rows of INDICATORS
    hour = log.time[keep] // 3600 % 24
    meal = np.full(24, -1)
    for name, (start, end) in MEALS.items():
        meal[start:end] = groups.index(name)
    categories = [category_map[name] for name in log.locations]
    dining = np.array([c == "dining" for c in categories], dtype=bool)[location]
    other = np.array([groups.index(c) if c in groups else -1 for c in categories],
                     dtype=np.int64)[location]
    group = np.where(dining, meal[hour], other)
    slot = np.where(dining, hour, (day + 3) % 7)
    # Per (student, group): slot counts in first-seen order, the order a
    # Counter fed row by row holds them in.
    rows = group >= 0
    key = (student[rows] * len(groups) + group[rows]) * 24 + slot[rows]
    keys, first, tally = np.unique(key, return_index=True, return_counts=True)
    order = np.lexsort((first, keys // 24))
    owner, tally = keys[order] // 24, tally[order]
    # Natural-log entropy of each (student, group) segment: 0.0 minus
    # p * log(p) per slot in that order, a column of segments at a time;
    # math.log, as np.log may differ in the last bits.
    start = np.flatnonzero(np.diff(owner, prepend=-1))
    size = np.diff(start, append=len(owner))
    p = tally / np.repeat(np.add.reduceat(tally, start), size)
    terms = p * np.array([math.log(value) for value in p.tolist()])
    sums = np.zeros(len(start))
    for j in range(int(size.max(initial=0))):
        more = np.flatnonzero(size > j)
        sums[more] -= terms[start[more] + j]
    entropy = np.zeros((n, len(groups)))
    entropy.flat[owner[start]] = sums
    return np.vstack((amounts, counts, days, entropy.T))


def variance_comparison(
    students: Sequence[str], profiles: np.ndarray, a: "CommunityAssignment"
) -> dict[str, tuple[float, float]]:
    """Per indicator: (variance over all students, mean within-community variance),
    from the indicator matrix of behavior_profiles, whose columns are students.

    Communities need at least two profiled members to contribute; if none
    qualify the within column is NaN. A variance that overflows raises
    ValueError naming the indicator's first infinite value, or else its largest.
    """
    # Each profiled member's column, by (community, node id): codes ascend
    # with labels and node indices with ids.
    column = {student: k for k, student in enumerate(students)}
    columns = np.array([column.get(node, -1) for node in a.nodes], dtype=np.int64)
    members = np.flatnonzero((a.codes >= 0) & (columns >= 0))
    members = members[np.argsort(a.codes[members], kind="stable")]
    size = np.bincount(a.codes[members], minlength=len(a.values))
    members = members[size[a.codes[members]] >= 2]
    size = size[size >= 2]
    within = [math.nan] * len(profiles)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        variance_all = [float(np.var(row)) for row in profiles]  # ddof=0: population variance
        if len(size):
            # Each community's variance as np.var takes it: the segment's sum over its
            # size is the mean, then the sum of squared deviations over its size.
            inside = profiles[:, columns[members]]
            bounds = np.concatenate(([0], np.cumsum(size)))
            mean = _segment_sums(inside, bounds) / size
            within = [float(np.mean(row)) for row in _segment_sums(
                np.square(inside - np.repeat(mean, size, axis=1)), bounds) / size]
    for name, row, var, mean in zip(INDICATORS, profiles, variance_all, within):
        if not math.isfinite(var) or (len(size) and not math.isfinite(mean)):
            k = int(np.argmax(row))  # indicators are never negative
            raise ValueError(f"student {students[k]!r} has {name} {float(row[k])!r}, "
                             "too large to take a variance of")
    return dict(zip(INDICATORS, zip(variance_all, within)))
