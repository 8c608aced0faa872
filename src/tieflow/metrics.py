"""Partition quality and student behavior indicators.

Modularity follows the directed-weighted form: observed intra-community
weight minus the out-strength/in-strength null expectation, normalized by
total weight. A symmetrized undirected variant is available for comparison
with undirected baselines.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .cooccur import _distinct
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


@dataclass(frozen=True)
class BehaviorProfile:
    """One student's indicators; INDICATORS lists their names in field order."""

    amount: float
    times: int
    days: int
    bath_entropy: float
    breakfast_entropy: float
    lunch_entropy: float
    dinner_entropy: float


INDICATORS = tuple(f.name for f in fields(BehaviorProfile))


def modularity(s: "NetworkSnapshot", a: "CommunityAssignment", directed: bool = True) -> float:
    """Partition quality on the snapshot; labeled node pairs only.

    directed=False is the classic undirected weighted form on the symmetrized
    adjacency w_ij + w_ji. Halved, that adjacency has the same total and the
    same intra-community weights, and out- and in-strength both (out + in) / 2.
    """
    total = s.total_weight
    if total <= 0:
        raise ValueError("snapshot has zero total weight")
    out_strength = s.out_strength()
    in_strength = np.bincount(s.dst, weights=s.weights, minlength=len(s.nodes))
    if not directed:
        out_strength = in_strength = (out_strength + in_strength) / 2

    codes: dict[int, int] = {}  # label -> community number, in first-seen order
    community = np.full(len(s.nodes), -1)
    for node, label in a.labels.items():
        community[s.index[node]] = codes.setdefault(label, len(codes))
    intra = np.where(community[s.src] == community[s.dst], community[s.src], -1)
    # Stable sorts keep each community's entries in (src, dst) order and its
    # members in ascending node id: the orders a submatrix sum adds them in.
    entries, members = np.argsort(intra, kind="stable"), np.argsort(community, kind="stable")
    entry_bounds = np.searchsorted(intra[entries], np.arange(len(codes) + 1))
    member_bounds = np.searchsorted(community[members], np.arange(len(codes) + 1))

    q = 0.0
    for k in range(len(codes)):
        idx = members[member_bounds[k]:member_bounds[k + 1]]
        q += float(np.sum(s.weights[entries[entry_bounds[k]:entry_bounds[k + 1]]])) / total
        q -= float(out_strength[idx].sum()) * float(in_strength[idx].sum()) / (total * total)
    return q


def partition_report(
    s: "NetworkSnapshot", a: "CommunityAssignment", directed: bool = True
) -> PartitionReport:
    community_count = len(set(a.labels.values()))
    labeled = len(a.labels)
    return PartitionReport(
        modularity=modularity(s, a, directed=directed),
        community_count=community_count,
        avg_size=labeled / community_count if community_count else 0.0,
        isolated_count=len(a.isolated),
    )


def shannon_entropy(counts: Mapping) -> float:
    """Natural-log entropy of an empirical count distribution."""
    total = sum(counts.values())
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in counts.values():
        if count > 0:
            p = count / total
            entropy -= p * math.log(p)
    return entropy


def behavior_profiles(
    log: EventLog,
    category_map: Mapping[str, str],
    semester: TimeRange,
) -> dict[str, BehaviorProfile]:
    """Aggregate spend behavior per student over the semester.

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
    amounts = np.bincount(student, weights=log.amount[keep], minlength=n).tolist()
    counts = np.bincount(student, minlength=n).tolist()
    per_day = TIME_LIMIT // 86400
    days = np.bincount(_distinct(student * per_day + day) // per_day, minlength=n).tolist()

    # Slots: the hour of a dining event inside a meal window, the weekday
    # (1970-01-01 was a Thursday) of a bath event.
    groups = ("breakfast", "lunch", "dinner", "bath")
    hour = log.time[keep] // 3600 % 24
    meal = np.full(24, -1)
    for name, (start, end) in MEALS.items():
        meal[start:end] = groups.index(name)
    categories = [category_map[name] for name in log.locations]
    dining = np.array([c == "dining" for c in categories])[location]
    other = np.array([groups.index(c) if c in groups else -1 for c in categories])[location]
    group = np.where(dining, meal[hour], other)
    slot = np.where(dining, hour, (day + 3) % 7)
    # Per (student, group): slot counts in first-seen order, the order a
    # Counter fed row by row holds them in.
    rows = group >= 0
    key = (student[rows] * len(groups) + group[rows]) * 24 + slot[rows]
    keys, first, tally = np.unique(key, return_index=True, return_counts=True)
    order = np.lexsort((first, keys // 24))
    owner, tally = keys[order] // 24, tally[order].tolist()
    entropy = np.zeros((n, len(groups)))
    bounds = np.flatnonzero(np.diff(owner, append=-1)) + 1
    for lo, hi in zip([0, *bounds[:-1].tolist()], bounds.tolist()):
        entropy.flat[owner[lo]] = shannon_entropy(dict(enumerate(tally[lo:hi])))
    entropy = entropy.tolist()

    return {
        student_id: BehaviorProfile(amounts[k], counts[k], days[k], bath, breakfast, lunch, dinner)
        for k, (student_id, (breakfast, lunch, dinner, bath)) in enumerate(zip(log.students, entropy))
    }


def variance_comparison(
    profiles: Mapping[str, BehaviorProfile], a: "CommunityAssignment"
) -> dict[str, tuple[float, float]]:
    """Per indicator: (variance over all students, mean within-community variance).

    Communities need at least two profiled members to contribute; if none
    qualify the within column is NaN.
    """
    members: dict[int, list[str]] = defaultdict(list)
    for node, label in a.labels.items():
        if node in profiles:
            members[label].append(node)
    eligible = [nodes for nodes in members.values() if len(nodes) >= 2]

    table = {}
    for name in INDICATORS:
        value = {node: float(getattr(profile, name)) for node, profile in profiles.items()}
        variance_all = float(np.var(list(value.values())))  # ddof=0: population variance
        if eligible:
            within = [np.var([value[node] for node in nodes]) for nodes in eligible]
            mean_within = float(np.mean(within))
        else:
            mean_within = float("nan")
        table[name] = (variance_all, mean_within)
    return table
