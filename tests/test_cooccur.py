import random
from pathlib import Path

import numpy as np
import pytest

from tieflow import cooccur
from tieflow.cooccur import build_cooccurrence_graph
from tieflow.events import EventLog, parse_events_path
from tieflow.orient import orient_edges

from oracles import (
    all_pairs_cooccurrence_counts,
    cooccurrences_at_location,
    enumerate_max_matching,
    kuhn_max_matching,
    log_rows,
    make_log,
    per_location_lists,
)


def spend(student, ts, location="caf"):
    return (student, ts, location)


def random_log(rng, n_events, n_students=8, n_locations=4, horizon=5_000) -> EventLog:
    return make_log(
        spend(
            f"s{rng.randrange(n_students)}",
            rng.randrange(horizon),
            f"loc{rng.randrange(n_locations)}",
        )
        for _ in range(n_events)
    )


def pair_count(a, b, window) -> int:
    """Production's count for students "a" and "b" with these times at one place."""
    log = make_log([("a", t, "x") for t in a] + [("b", t, "x") for t in b])
    return len(build_cooccurrence_graph(log, window).edges.get(("a", "b"), ()))


# ------------------------------------------------- single-pair matching


def test_boundary_is_inclusive_at_exactly_window():
    assert cooccurrences_at_location([100], [220], 120) == [100]
    assert pair_count([100], [220], 120) == 1


def test_just_outside_window_is_excluded():
    assert cooccurrences_at_location([100], [221], 120) == []
    assert pair_count([100], [221], 120) == 0


def test_multi_event_burst_matches_once():
    # Greedy must agree with the exhaustively enumerated maximum matching.
    assert enumerate_max_matching([100, 105], [110], 120) == 1
    assert cooccurrences_at_location([100, 105], [110], 120) == [100]
    assert pair_count([100, 105], [110], 120) == 1


def test_reported_time_is_earlier_of_pair():
    assert cooccurrences_at_location([150], [100], 120) == [100]
    log = make_log([("a", 150, "x"), ("b", 100, "x")])
    assert build_cooccurrence_graph(log, 120).edges == {("a", "b"): (100,)}


def test_window_must_be_positive():
    with pytest.raises(ValueError):
        cooccurrences_at_location([1], [2], 0)
    with pytest.raises(ValueError):
        build_cooccurrence_graph(make_log([("a", 1, "x"), ("b", 2, "x")]), 0)


def test_greedy_equals_enumerated_maximum_on_small_lists():
    rng = random.Random(42)
    for _ in range(300):
        a = sorted(rng.randrange(0, 600) for _ in range(rng.randrange(0, 6)))
        b = sorted(rng.randrange(0, 600) for _ in range(rng.randrange(0, 6)))
        window = rng.choice([60, 120, 250])
        expected = enumerate_max_matching(a, b, window)
        assert len(cooccurrences_at_location(a, b, window)) == expected, (a, b, window)
        assert pair_count(a, b, window) == expected, (a, b, window)


def test_kuhn_oracle_agrees_with_enumeration():
    rng = random.Random(9)
    for _ in range(200):
        a = sorted(rng.randrange(0, 400) for _ in range(rng.randrange(0, 5)))
        b = sorted(rng.randrange(0, 400) for _ in range(rng.randrange(0, 5)))
        assert kuhn_max_matching(a, b, 100) == enumerate_max_matching(a, b, 100)


# ------------------------------------------------------- graph building


def test_two_students_one_edge():
    log = make_log([spend("s1", 100), spend("s2", 160)])
    g = build_cooccurrence_graph(log, window=120)
    assert g.edges == {("s1", "s2"): (100,)}


def test_single_student_no_edges():
    log = make_log([spend("s1", 100), spend("s1", 200)])
    g = build_cooccurrence_graph(log, window=120)
    assert g.nodes == ("s1",)
    assert g.edges == {}


def test_hand_built_schedule_matches_oracle():
    records = [
        spend("a", 0, "x"), spend("b", 50, "x"), spend("c", 100, "x"),
        spend("d", 500, "x"), spend("a", 560, "x"),
        spend("a", 1000, "y"), spend("b", 1030, "y"), spend("b", 1100, "y"),
        spend("c", 5000, "y"), spend("d", 5119, "y"), spend("d", 5121, "y"),
    ]
    log = make_log(records)
    g = build_cooccurrence_graph(log, window=120)
    assert dict(g.edges) != {}
    counts = {pair: len(times) for pair, times in g.edges.items()}
    assert counts == all_pairs_cooccurrence_counts(log, 120)


def test_counts_match_oracle_on_random_logs():
    rng = random.Random(2024)
    for _ in range(25):
        log = random_log(rng, rng.randrange(0, 200))
        g = build_cooccurrence_graph(log, window=120)
        counts = {pair: len(times) for pair, times in g.edges.items()}
        assert counts == all_pairs_cooccurrence_counts(log, 120)


def hard_log(rng, window):
    """A small log full of the cases a sweep can get wrong: bursts of one
    student, equal timestamps, duplicate rows, and gaps of exactly window
    and window + 1."""
    rows = []
    for _ in range(rng.randrange(1, 12)):
        student, location = f"s{rng.randrange(5)}", f"loc{rng.randrange(3)}"
        t = rng.randrange(0, 3_000)
        shape = rng.randrange(5)
        if shape == 0:  # a burst
            rows += [(student, t + rng.randrange(0, window), location)
                     for _ in range(rng.randrange(2, 6))]
        elif shape == 1:  # several students at one instant
            rows += [(f"s{rng.randrange(5)}", t, location) for _ in range(rng.randrange(2, 5))]
        elif shape == 2:  # the same row more than once
            rows += [(student, t, location)] * rng.randrange(2, 4)
        elif shape == 3:  # a gap of exactly window, then one past it
            other = f"s{rng.randrange(5)}"
            rows += [(student, t, location), (other, t + window, location),
                     (student, t + 2 * window + 1, location)]
        else:
            rows.append((student, t, location))
    rng.shuffle(rows)
    return make_log(rows)


@pytest.mark.parametrize("block", [None, 3])
def test_times_match_full_list_oracle_on_every_pair(monkeypatch, block):
    if block is not None:  # expand a location's event pairs a few at a time
        monkeypatch.setattr(cooccur, "_PAIR_BLOCK", block)
    rng = random.Random(77)
    for _ in range(400):
        window = rng.choice([1, 30, 120])
        log = hard_log(rng, window)
        expected: dict = {}
        for per_student in per_location_lists(log).values():
            students = sorted(per_student)
            for x, a in enumerate(students):
                for b in students[x + 1:]:
                    times = cooccurrences_at_location(per_student[a], per_student[b], window)
                    if times:
                        expected[(a, b)] = tuple(sorted(expected.get((a, b), ()) + tuple(times)))
        g = build_cooccurrence_graph(log, window)
        assert dict(g.edges) == expected, log_rows(log)


def test_symmetry_of_count_lookup():
    # The pair is keyed (lower id, higher id) when the higher id acts first too.
    log = make_log([spend("s2", 100), spend("s1", 160)])
    assert build_cooccurrence_graph(log).edges == {("s1", "s2"): (100,)}


def test_window_monotonicity():
    rng = random.Random(5)
    log = random_log(rng, 150)
    narrow = build_cooccurrence_graph(log, window=60)
    wide = build_cooccurrence_graph(log, window=240)
    for pair, times in narrow.edges.items():
        assert len(wide.edges.get(pair, ())) >= len(times)


def test_location_additivity():
    rng = random.Random(11)
    log = random_log(rng, 180, n_locations=3)
    whole = build_cooccurrence_graph(log, window=120)
    summed: dict = {}
    for location in sorted(log.locations):
        partial = make_log(row[:3] for row in log_rows(log) if row[2] == location)
        partial_graph = build_cooccurrence_graph(partial, window=120)
        for pair, times in partial_graph.edges.items():
            summed[pair] = tuple(sorted(summed.get(pair, ()) + times))
    assert dict(whole.edges) == summed


def test_merged_times_are_sorted_and_counts_positive():
    rng = random.Random(3)
    log = random_log(rng, 180)
    g = build_cooccurrence_graph(log, window=120)
    for (a, b), times in g.edges.items():
        assert a < b
        assert len(times) >= 1
        assert list(times) == sorted(times)


def test_export_tsv_sorted_pairs(tmp_path):
    log = make_log([spend("s2", 100), spend("s3", 150), spend("s1", 140)])
    g = build_cooccurrence_graph(log, window=120)
    path = tmp_path / "pairs.tsv"
    from tieflow.cooccur import write_pair_counts_tsv

    write_pair_counts_tsv(g, path)
    lines = path.read_text().splitlines()
    pairs = [tuple(line.split("\t")[:2]) for line in lines]
    assert pairs == sorted(pairs)
    assert all(a < b for a, b in pairs)


def test_time_index_of_the_golden_graph_agrees_with_its_columns():
    golden = Path(__file__).parent / "golden" / "chain" / "canonical.csv"
    g = build_cooccurrence_graph(parse_events_path(golden), window=120)
    assert len(g.src) and (g.src < g.dst).all()
    assert (g.start_time(), g.end_time()) == (g.times.min(), g.times.max())
    bounds = g.offsets.tolist()
    slots = [(t, e) for e, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
             for t in g.times[lo:hi].tolist()]
    assert g.edge_of.tolist() == [e for _, e in slots]
    times, edges = g.by_time
    assert times.dtype == np.float64 and (np.diff(times) >= 0).all()
    assert sorted(zip(times.tolist(), edges.tolist())) == sorted(slots)
    directed = orient_edges(g)
    assert (directed.start_time(), directed.end_time()) == (g.start_time(), g.end_time())
