"""Pairwise co-occurrence detection and the weighted undirected graph.

Two students co-occur when they transact at the same location within the
time window (inclusive). Multiple events per student are paired one-to-one
by a greedy earliest-first matcher so that a burst of events from one
student cannot inflate counts quadratically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .artifacts import write_lines
from .events import TIME_LIMIT, EventLog

DEFAULT_WINDOW = 120  # seconds
_PAIR_BLOCK = 1 << 20  # event pairs held at once while finding partners
# Most same-location event pairs a window may bring within reach: 40 times the scale
# log's 254k at the default window; a build peaks near 90 bytes per pair (0.9 GB).
MAX_WINDOW_PAIRS = 10_000_000


@dataclass(frozen=True, eq=False)
class TimedEdges:
    """Edges in columnar form: edge e joins nodes[src[e]] to nodes[dst[e]]
    with ascending int64 times[offsets[e] : offsets[e + 1]]. Edges are in
    (src, dst) order; the sorted ``nodes`` are the index space. A co-occurrence
    graph holds each pair once, with src < dst; orient_edges returns directed edges."""

    nodes: tuple[str, ...]
    src: np.ndarray
    dst: np.ndarray
    offsets: np.ndarray
    times: np.ndarray

    @cached_property
    def edges(self) -> Mapping[tuple[str, str], tuple[int, ...]]:
        """Read-only (src, dst) -> times view, built on first use."""
        names, times = np.array(self.nodes, dtype=object), self.times.tolist()
        bounds = self.offsets.tolist()
        return MappingProxyType({(s, d): tuple(times[start:stop]) for s, d, start, stop
                                 in zip(names[self.src], names[self.dst], bounds, bounds[1:])})

    def _count_lines(self):
        """src id<TAB>dst id<TAB>number of times, per edge in edge order."""
        names = np.array(self.nodes, dtype=object)
        counts = np.diff(self.offsets).tolist()
        return map("{}\t{}\t{}".format, names[self.src], names[self.dst], counts)

    @cached_property
    def edge_of(self) -> np.ndarray:
        """Per time, its edge e (times[offsets[e] : offsets[e + 1]]); built on first
        use and kept, so the reader's checks, snapshots and curves share it."""
        return np.repeat(np.arange(len(self.src)), np.diff(self.offsets))

    @cached_property
    def by_time(self) -> tuple[np.ndarray, np.ndarray]:
        """Every time (float64: an instant's search casts nothing) and its edge,
        ascending in time; built on first use and kept for snapshots and curves."""
        order = np.argsort(self.times)
        return self.times[order].astype(float), self.edge_of[order]

    def start_time(self) -> int:
        """Earliest co-occurrence timestamp over all edges (ValueError if none)."""
        return int(self.times.min())

    def end_time(self) -> int:
        """Latest co-occurrence timestamp over all edges (ValueError if none)."""
        return int(self.times.max())


def _ragged(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated index ranges starts[k] .. starts[k] + counts[k] - 1."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if len(ends) else 0)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a non-negative array (np.unique hashes,
    and takes about 20 times as long on these arrays)."""
    values = np.sort(values)
    return values[np.diff(values, prepend=-1) != 0]


def _greedy(first: list[int], second: list[int], window: int) -> list[int]:
    """Earliest-first one-to-one matching of two ascending time lists; the
    earlier time of each matched pair. For this interval structure the
    greedy pairing attains the maximum possible number of matches."""
    i = j = 0
    matches = []
    while i < len(first) and j < len(second):
        tm, tn = first[i], second[j]
        if abs(tm - tn) <= window:
            matches.append(tm if tm < tn else tn)
            i += 1
            j += 1
        elif tm < tn:
            i += 1
        else:
            j += 1
    return matches


def _matches(student: np.ndarray, time: np.ndarray, within: np.ndarray, m: int, window: int):
    """The student pair (lower code * m + higher code, where m exceeds every
    code) and time of each greedy match among one location's time-ordered
    events, each of which has within[k] later events within the window."""
    n = len(time)
    # Each event's partners: the students with an event within the window,
    # as codes event * m + partner, found from at most about _PAIR_BLOCK
    # event pairs at a time.
    total = np.cumsum(within)
    cuts = np.searchsorted(total, np.arange(_PAIR_BLOCK, total[-1], _PAIR_BLOCK)).tolist()
    partners = []
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        i = np.repeat(np.arange(lo, hi), within[lo:hi])
        j = _ragged(np.arange(lo, hi) + 1, within[lo:hi])
        apart = student[i] != student[j]
        i, j = i[apart], j[apart]
        partners.append(_distinct(np.concatenate([i * m + student[j], j * m + student[i]])))
    event, partner = np.divmod(_distinct(np.concatenate(partners)), m)
    # Group them by student pair, the lower student's events first, each
    # student's events in time order.
    a, b = np.minimum(student[event], partner), np.maximum(student[event], partner)
    later = student[event] > partner
    order = np.lexsort((event, later, b, a))
    a, b, event, later = a[order], b[order], event[order], later[order]
    starts = np.flatnonzero(np.diff(a, prepend=-1) | np.diff(b, prepend=-1))
    sizes = np.diff(np.append(starts, len(a)))
    # A group of one event per student is one match at the earlier time.
    single, multi = starts[sizes == 2], starts[sizes > 2]
    times = np.minimum(time[event[single]], time[event[single + 1]]).tolist()
    counts = [1] * len(single)
    if len(multi):
        mids = (starts + np.add.reduceat(~later, starts, dtype=np.int64))[sizes > 2].tolist()
        event_times = time[event].tolist()
        for lo, mid, hi in zip(multi.tolist(), mids, (multi + sizes[sizes > 2]).tolist()):
            matches = _greedy(event_times[lo:mid], event_times[mid:hi], window)
            times.extend(matches)
            counts.append(len(matches))
    firsts = np.append(single, multi)
    return np.repeat(a[firsts] * m + b[firsts], counts), np.array(times, dtype=np.int64)


def build_cooccurrence_graph(log: EventLog, window: int = DEFAULT_WINDOW) -> TimedEdges:
    """Sum per-location co-occurrence counts over all locations.

    One time-ordered pass per location finds every pair of events by
    different students within the window. Per student pair, the greedy
    matcher then runs over only the events in such pairs: an event with no
    partner within the window can never be matched, and skipping it leaves
    the greedy result unchanged. Every match is an event pair within the
    window, and more than MAX_WINDOW_PAIRS of those are refused up front.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    span = min(window, TIME_LIMIT)  # no gap is longer; keeps time + span in int64
    bounds = np.searchsorted(log.location, np.arange(len(log.locations) + 1)).tolist()
    m, ranges = len(log.students), list(zip(bounds[:-1], bounds[1:]))
    within = [np.searchsorted(log.time[lo:hi], log.time[lo:hi] + span, side="right")
              - np.arange(1, hi - lo + 1) for lo, hi in ranges]
    reach = sum(int(w.sum()) for w in within)
    if reach > MAX_WINDOW_PAIRS:
        raise ValueError(f"window {window} s brings {reach} event pairs within reach, more than the "
                         f"cap of {MAX_WINDOW_PAIRS} (cooccur.MAX_WINDOW_PAIRS); use a smaller window")
    found = [_matches(log.student[lo:hi], log.time[lo:hi], w, m, span)
             for (lo, hi), w in zip(ranges, within)]
    pairs, times = (np.concatenate([np.zeros(0, np.int64)] + [f[k] for f in found]) for k in (0, 1))
    del found
    order = np.lexsort((times, pairs))
    pairs, times = pairs[order], times[order]
    edge = np.flatnonzero(np.diff(pairs, prepend=-1))
    src, dst = np.divmod(pairs[edge], m)
    return TimedEdges(log.students, src, dst, np.append(edge, len(times)), times)


def write_pair_counts_tsv(g: TimedEdges, path, comments: Sequence[str] = ()) -> None:
    """TSV export: student_a<TAB>student_b<TAB>count, student_a < student_b."""
    write_lines(path, comments, g._count_lines())
