"""Pairwise co-occurrence detection and the weighted undirected graph.

Two students co-occur when they transact at the same location within the
time window (inclusive). Multiple events per student are paired one-to-one
by a greedy earliest-first matcher so that a burst of events from one
student cannot inflate counts quadratically.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from .artifacts import write_lines
from .events import EventLog

DEFAULT_WINDOW = 120  # seconds


@dataclass(frozen=True)
class CooccurrenceGraph:
    """Undirected graph; edge payload is the sorted list of co-occurrence times.

    Edge keys are ordered pairs (a, b) with a < b lexicographically. The edge
    count is len(times); zero-count pairs are never stored.
    """

    nodes: frozenset[str]
    edges: dict[tuple[str, str], tuple[int, ...]]

    def count(self, a: str, b: str) -> int:
        key = (a, b) if a < b else (b, a)
        return len(self.edges.get(key, ()))


def cooccurrences_at_location(
    events_m: Sequence[int], events_n: Sequence[int], window: int
) -> list[int]:
    """Greedy one-to-one matching of two sorted timestamp lists.

    Walks both lists in order, pairing the earliest compatible events
    (|t_m - t_n| <= window, boundary inclusive); each event participates in
    at most one pair. Returns min(t_m, t_n) for every matched pair. For this
    interval-compatibility structure the greedy pairing attains the maximum
    possible number of matches.
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


def _location_events(log: EventLog) -> dict[str, list[tuple[int, str]]]:
    """Per location: time-sorted (timestamp, student) pairs."""
    by_location: dict[str, list[tuple[int, str]]] = defaultdict(list)
    for r in log.records:
        by_location[r.location_id].append((r.timestamp, r.student_id))
    return by_location


def build_cooccurrence_graph(log: EventLog, window: int = DEFAULT_WINDOW) -> CooccurrenceGraph:
    """Sum per-location co-occurrence counts over all locations.

    Candidate student pairs at a location are discovered with a sliding
    window over the time-sorted event list, then scored by the greedy
    matcher on the two students' full timestamp lists at that location.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    merged: dict[tuple[str, str], list[int]] = defaultdict(list)
    by_location = _location_events(log)
    for location in sorted(by_location):
        events = by_location[location]  # already time-sorted via log ordering
        per_student: dict[str, list[int]] = defaultdict(list)
        for ts, student in events:
            per_student[student].append(ts)
        candidates: set[tuple[str, str]] = set()
        for i, (ts, student) in enumerate(events):
            for j in range(i + 1, len(events)):
                other_ts, other = events[j]
                if other_ts - ts > window:
                    break
                if other != student:
                    candidates.add((student, other) if student < other else (other, student))
        for a, b in sorted(candidates):
            matches = cooccurrences_at_location(per_student[a], per_student[b], window)
            if matches:
                merged[(a, b)].extend(matches)
    edges = {pair: tuple(sorted(times)) for pair, times in merged.items()}
    return CooccurrenceGraph(nodes=log.students, edges=edges)


def write_pair_counts_tsv(g: CooccurrenceGraph, path, comments: Sequence[str] = ()) -> None:
    """TSV export: student_a<TAB>student_b<TAB>count, student_a < student_b."""
    write_lines(path, comments, (f"{a}\t{b}\t{len(g.edges[(a, b)])}" for (a, b) in sorted(g.edges)))
