import math
import random
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tieflow import metrics
from tieflow.events import TimeRange
from tieflow.ifs import CommunityAssignment
from tieflow.synth import SyntheticConfig, default_category_map, generate
from tieflow.metrics import (
    INDICATORS,
    behavior_profiles,
    modularity,
    partition_report,
    variance_comparison,
)
from tieflow.tiedecay import NetworkSnapshot

from oracles import (
    double_sum_modularity,
    make_log,
    make_snapshot,
    reference_behavior_profiles,
    reference_modularity,
    reference_variance_comparison,
    same_assignment,
    shannon_entropy,
)


def assignment(labels: dict, nodes) -> CommunityAssignment:
    """The assignment of labels over nodes, the others isolated."""
    origin_of = {label: min(n for n, l in labels.items() if l == label) for label in set(labels.values())}
    return CommunityAssignment.from_names(labels, nodes, origin_of)


# ----------------------------------------------------------- modularity


def test_mutual_pair_single_community_is_zero():
    snap = make_snapshot({("a", "b"): 2.0, ("b", "a"): 2.0}, ["a", "b"])
    a = assignment({"a": 1, "b": 1}, snap.nodes)
    value = modularity(snap, a)
    assert value == pytest.approx(0.0, abs=1e-15)
    assert value == pytest.approx(double_sum_modularity(snap, a.labels), abs=1e-15)


def test_two_disjoint_mutual_pairs_score_half():
    snap = make_snapshot(
        {("a", "b"): 1.0, ("b", "a"): 1.0, ("c", "d"): 1.0, ("d", "c"): 1.0},
        ["a", "b", "c", "d"],
    )
    a = assignment({"a": 1, "b": 1, "c": 2, "d": 2}, snap.nodes)
    value = modularity(snap, a)
    assert value == pytest.approx(0.5, abs=1e-15)
    assert value == pytest.approx(double_sum_modularity(snap, a.labels), abs=1e-15)


def test_singleton_partition_never_positive():
    rng = random.Random(1)
    snap = random_snapshot(rng, 12)
    labels = {node: i for i, node in enumerate(snap.nodes)}
    assert modularity(snap, assignment(labels, snap.nodes)) <= 0.0


def random_snapshot(rng, n, density=0.25) -> NetworkSnapshot:
    names = [f"n{i:02d}" for i in range(n)]
    weights = {}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                weights[(names[i], names[j])] = rng.random() * 4 + 0.05
    if not weights:
        weights[(names[0], names[-1])] = 1.0
    return make_snapshot(weights, names)


def test_matches_double_sum_oracle_on_random_graphs():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randrange(2, 31)
        snap = random_snapshot(rng, n)
        k = rng.randrange(1, 6)
        labels = {node: rng.randrange(k) for node in snap.nodes}
        if rng.random() < 0.3:  # leave some nodes unlabeled
            labels = {node: label for node, label in labels.items() if rng.random() < 0.7}
        a = assignment(labels, snap.nodes)
        mine = modularity(snap, a)
        reference = double_sum_modularity(snap, labels) if labels else 0.0
        assert mine == pytest.approx(reference, abs=1e-12)
        assert -0.5 - 1e-12 <= mine <= 1.0 + 1e-12


def test_undirected_variant_matches_symmetrized_oracle():
    rng = random.Random(3)
    for _ in range(10):
        snap = random_snapshot(rng, 15)
        labels = {node: rng.randrange(3) for node in snap.nodes}
        mine = modularity(snap, assignment(labels, snap.nodes), directed=False)
        reference = double_sum_modularity(snap, labels, directed=False)
        assert mine == pytest.approx(reference, abs=1e-12)


def test_full_labelings_match_networkx_directed_modularity():
    # networkx counts isolated nodes differently, so every node is labeled here.
    rng = random.Random(5)
    for _ in range(50):
        snap = random_snapshot(rng, rng.randrange(2, 31))
        k = rng.randrange(1, 6)
        labels = {node: rng.randrange(k) for node in snap.nodes}
        graph = nx.DiGraph()
        graph.add_nodes_from(snap.nodes)
        graph.add_weighted_edges_from(snap.edges())
        communities = [{node for node in labels if labels[node] == label}
                       for label in set(labels.values())]
        reference = nx.community.modularity(graph, communities, weight="weight")
        mine = modularity(snap, assignment(labels, snap.nodes))
        assert mine == pytest.approx(reference, abs=1e-12)


def test_segment_sums_equal_np_sum_of_each_segment_exactly():
    rng = np.random.default_rng(3)
    sizes = rng.permutation(list(range(20)) * 20 + [40, 128, 129, 300])
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    values = rng.random(bounds[-1]) * 10.0 ** rng.integers(-9, 9, bounds[-1])
    sums = metrics._segment_sums(values, bounds)
    assert sums.tolist() == [float(np.sum(values[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]


def test_shared_segment_passes_equal_one_dimensional_reduces_exactly():
    rng = np.random.default_rng(5)
    sizes = rng.permutation(301)  # every size from 0 to 300, in random order
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    rows = rng.random((2, bounds[-1])) * 10.0 ** rng.integers(-9, 9, (2, bounds[-1]))
    expected = [[float(np.add.reduce(row[lo:hi].copy())) for lo, hi in zip(bounds, bounds[1:])]
                for row in rows]
    # Along axis 1, numpy adds a Fortran-ordered array's rows one value at a time.
    for layout in (np.ascontiguousarray, np.asfortranarray):
        assert metrics._segment_sums(layout(rows), bounds).tolist() == expected


ANY_LABEL = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.one_of(st.none(), ANY_LABEL), min_size=2, max_size=25))
@example(0, [None] * 6)  # nothing labeled: every node isolated
@example(1, [2**63, -(2**63) - 1, 2**63, 5])  # labels beyond int64, every node labeled
def test_index_partition_scores_equal_its_name_rebuild(seed, drawn):
    rng = random.Random(seed)
    snap = random_snapshot(rng, len(drawn), density=rng.choice([0.1, 0.4]))
    labels = {node: label for node, label in zip(snap.nodes, drawn) if label is not None}
    own = CommunityAssignment.from_names(labels, snap.nodes)  # the snapshot's tuple
    rebuilt = CommunityAssignment.from_names(labels, tuple(sorted(snap.nodes)))  # an equal one
    assert own.nodes is snap.nodes and rebuilt.nodes is not snap.nodes
    assert same_assignment(own, rebuilt) and own.labels == labels
    assert {snap.nodes[j] for j in np.flatnonzero(own.codes < 0)} == set(snap.nodes) - set(labels)
    for directed in (True, False):
        assert (modularity(snap, own, directed) == modularity(snap, rebuilt, directed)
                == reference_modularity(snap, labels, directed))
    report = partition_report(snap, own)
    assert report == partition_report(snap, rebuilt)
    assert report.community_count == len(set(labels.values()))
    assert report.isolated_count == len(snap.nodes) - len(labels)


@pytest.mark.parametrize("nodes", [("a", "b"), ("a", "b", "c", "d"), ("a", "b", "x")],
                         ids=["labeled-only", "one-more", "one-id-differs"])
def test_an_assignment_over_another_node_tuple_is_rejected(nodes):
    # Codes index the snapshot's nodes: production passes the snapshot's own
    # tuple, and a library caller's other tuple is an error, not a remap.
    snap = make_snapshot({("a", "b"): 1.0, ("b", "c"): 2.0}, ["a", "b", "c"])
    a = assignment({"a": 1, "b": 1}, nodes)
    mismatch = "^snapshot and assignment cover different node sets$"
    for directed in (True, False):
        with pytest.raises(ValueError, match=mismatch):
            modularity(snap, a, directed)
        with pytest.raises(ValueError, match=mismatch):
            partition_report(snap, a, directed)


def test_modularity_equals_per_community_reference_exactly():
    rng = random.Random(7)
    kinds = set()
    for trial in range(60):
        snap = random_snapshot(rng, rng.randrange(2, 41), density=rng.choice([0.05, 0.25, 0.6]))
        nodes = list(snap.nodes)
        rng.shuffle(nodes)  # label order, and so summation order, differs from node order
        labels = {node: rng.randrange(1, rng.randrange(2, 9) + 1) for node in nodes}
        if trial % 3 == 1:  # unlabeled nodes
            labels = {node: label for node, label in labels.items() if rng.random() < 0.6}
        if trial % 3 == 2:  # singleton communities beside larger ones
            labels.update((node, 100 + k) for k, node in enumerate(nodes[: len(nodes) // 3]))
        kinds.add((len(labels) < len(nodes), 1 in Counter(labels.values()).values()))
        for directed in (True, False):
            assert (modularity(snap, assignment(labels, snap.nodes), directed)
                    == reference_modularity(snap, labels, directed))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_scores_ignore_the_order_the_labels_are_listed_in():
    rng = random.Random(8)
    for _ in range(20):
        snap = random_snapshot(rng, rng.randrange(10, 41), density=rng.choice([0.1, 0.3]))
        labels = {node: rng.randrange(1, 9) for node in snap.nodes}
        profiles = matrix([[rng.random() * 10.0 ** rng.randrange(-3, 4) for _ in INDICATORS]
                           for _ in snap.nodes])
        items = list(labels.items())
        rng.shuffle(items)
        listed, shuffled = assignment(labels, snap.nodes), assignment(dict(items), snap.nodes)
        for directed in (True, False):
            assert modularity(snap, shuffled, directed) == modularity(snap, listed, directed)
        assert partition_report(snap, shuffled) == partition_report(snap, listed)
        assert (variance_comparison(snap.nodes, profiles, shuffled)
                == variance_comparison(snap.nodes, profiles, listed))


def test_random_labels_have_small_modularity_on_average():
    rng = random.Random(4)
    snap = random_snapshot(rng, 20, density=0.3)
    values = []
    for _ in range(100):
        labels = {node: rng.randrange(4) for node in snap.nodes}
        values.append(modularity(snap, assignment(labels, snap.nodes)))
    assert abs(float(np.mean(values))) < 0.1


def test_zero_weight_snapshot_rejected():
    snap = make_snapshot({}, ["a", "b"])
    with pytest.raises(ValueError):
        modularity(snap, assignment({"a": 1, "b": 1}, snap.nodes))


# ----------------------------------------------------- partition report


def test_partition_report_counts():
    snap = make_snapshot({("a", "b"): 1.0, ("b", "c"): 1.0}, ["a", "b", "c", "d"])
    a = assignment({"a": 1, "b": 1, "c": 2}, snap.nodes)  # "d" isolated
    report = partition_report(snap, a)
    assert report.community_count == 2
    assert report.avg_size == pytest.approx(1.5)
    assert report.isolated_count == 1


def test_partition_report_empty_labels():
    snap = make_snapshot({("a", "b"): 1.0}, ["a", "b", "c"])
    a = CommunityAssignment.from_names({}, snap.nodes)
    report = partition_report(snap, a)
    assert report.community_count == 0
    assert report.avg_size == 0.0
    assert report.isolated_count == 3
    assert report.modularity == 0.0


# -------------------------------------------------------------- entropy


def test_entropy_point_mass_is_zero():
    assert shannon_entropy({3: 17}) == 0.0


def test_entropy_uniform_is_log_k():
    for k in (2, 5, 9):
        counts = {i: 4 for i in range(k)}
        assert shannon_entropy(counts) == pytest.approx(math.log(k), rel=1e-12)


def test_entropy_mixed_three_slot_value():
    # (0.5, 0.25, 0.25): 1.5 * ln 2, directly evaluated
    counts = {0: 2, 1: 1, 2: 1}
    assert shannon_entropy(counts) == pytest.approx(1.5 * math.log(2), rel=1e-12)
    assert shannon_entropy(counts) == pytest.approx(1.0397207708399179, rel=1e-12)


def test_entropy_permutation_invariant_and_uniform_maximal():
    rng = random.Random(5)
    for _ in range(50):
        counts = [rng.randrange(1, 30) for _ in range(6)]
        shuffled = counts[:]
        rng.shuffle(shuffled)
        assert shannon_entropy(dict(enumerate(counts))) == pytest.approx(
            shannon_entropy(dict(enumerate(shuffled))), rel=1e-12
        )
        assert shannon_entropy(dict(enumerate(counts))) <= math.log(6) + 1e-12


# ------------------------------------------------------------- profiles


SEMESTER = TimeRange(0, 12 * 7 * 86400)


def indicators(profiles: np.ndarray, column: int = 0) -> dict:
    """One student's indicators, by name, from an indicator matrix."""
    return dict(zip(INDICATORS, profiles[:, column].tolist()))


def matrix(rows) -> np.ndarray:
    """The indicator matrix of one row of INDICATORS values per student."""
    return np.ascontiguousarray(np.array(rows, dtype=float).reshape(-1, len(INDICATORS)).T)


def spend(student, ts, location, amount=5.0):
    return (student, ts, location, "spend", amount)


def test_profiles_basic_aggregates():
    day = 86400
    log = make_log(
        [
            spend("s1", 6 * 3600, "caf", 4.0),  # breakfast, day 0
            spend("s1", day + 6 * 3600, "caf", 6.0),  # breakfast, day 1
            spend("s1", day + 12 * 3600, "caf", 10.0),  # lunch
            spend("s1", 2 * day + 19 * 3600, "bath1", 3.0),  # dinner-time bath
        ]
    )
    profiles = behavior_profiles(
        log, {"caf": "dining", "bath1": "bath"}, SEMESTER
    )
    profile = indicators(profiles)
    assert profile["amount"] == pytest.approx(23.0)
    assert profile["times"] == 4
    assert profile["days"] == 3
    assert profile["breakfast_entropy"] == 0.0  # both breakfasts in the 06h slot
    assert profile["lunch_entropy"] == 0.0
    assert profile["bath_entropy"] == 0.0


def test_breakfast_spread_over_slots_gives_positive_entropy():
    log = make_log(
        [spend("s1", d * 86400 + h * 3600, "caf") for d, h in [(0, 5), (1, 6), (2, 7), (3, 8)]]
    )
    profiles = behavior_profiles(log, {"caf": "dining"}, SEMESTER)
    assert indicators(profiles)["breakfast_entropy"] == pytest.approx(math.log(4), rel=1e-12)


def test_bath_entropy_uses_weekday_slots():
    # Jan 1 1970 was a Thursday; add days to place events on distinct weekdays.
    log = make_log(
        [spend("s1", d * 86400 + 12 * 3600, "bath1") for d in range(7)]
    )
    profiles = behavior_profiles(log, {"bath1": "bath"}, SEMESTER)
    assert indicators(profiles)["bath_entropy"] == pytest.approx(math.log(7), rel=1e-12)


def test_missing_category_rejected():
    log = make_log([spend("s1", 100, "caf")])
    with pytest.raises(ValueError, match="missing locations"):
        behavior_profiles(log, {}, SEMESTER)
    with pytest.raises(ValueError, match="unknown location categories"):
        behavior_profiles(log, {"caf": "arcade"}, SEMESTER)


def test_events_outside_semester_ignored():
    log = make_log(
        [spend("s1", 100, "caf"), spend("s1", SEMESTER.end + 50, "caf")]
    )
    profiles = behavior_profiles(log, {"caf": "dining"}, SEMESTER)
    assert indicators(profiles)["times"] == 1


def test_recharge_events_ignored():
    log = make_log(
        [
            spend("s1", 100, "caf"),
            ("s1", 200, "caf", "recharge", 50.0),
        ]
    )
    profiles = behavior_profiles(log, {"caf": "dining"}, SEMESTER)
    assert indicators(profiles)["times"] == 1
    assert indicators(profiles)["amount"] == pytest.approx(5.0)


EXACT = settings(derandomize=True, database=None, deadline=None, max_examples=200)
CATEGORIES = {"caf": "dining", "grill": "dining", "bath1": "bath", "bath2": "bath",
              "kiosk": "shop", "gym": "other"}
EVENT_ROWS = st.lists(st.tuples(
    st.sampled_from(["s1", "s2", "s3", "s4"]),
    st.integers(0, 3 * 7 * 86400) | st.sampled_from([5 * 3600, 10 * 3600 - 1, 21 * 3600]),
    st.sampled_from(sorted(CATEGORIES)),
    st.sampled_from(["spend", "spend", "spend", "recharge"]),
    st.floats(0, 100, allow_nan=False) | st.sampled_from([0.1, 0.2, 1e-300, 7.0])),
    max_size=120)


@EXACT
@given(EVENT_ROWS, st.integers(0, 7 * 86400))
def test_profiles_equal_the_row_by_row_reference_exactly(rows, start):
    log = make_log(rows)
    semester = TimeRange(start, start + 2 * 7 * 86400)
    got = behavior_profiles(log, CATEGORIES, semester)
    assert got.shape == (len(INDICATORS), len(log.students)) and got.dtype == np.float64
    assert got.tolist() == reference_behavior_profiles(log, CATEGORIES, semester).tolist()


def test_indicators_of_a_synthetic_semester_equal_the_references_exactly():
    config = SyntheticConfig(n_students=60, n_communities=3, semester=TimeRange(0, 3 * 7 * 86400),
                             intra_rate=3.0, inter_rate=0.2, jitter=60, seed=4)
    log, truth = generate(config)
    categories = default_category_map(config)
    profiles = behavior_profiles(log, categories, config.semester)
    reference = reference_behavior_profiles(log, categories, config.semester)
    assert profiles.tolist() == reference.tolist()
    assert variance_comparison(log.students, profiles, assignment(truth, sorted(truth))) == (
        reference_variance_comparison(log.students, profiles, truth))


@EXACT
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=60),
       st.lists(st.integers(0, 5), max_size=60))
def test_variance_comparison_equals_per_community_np_var_exactly(amounts, labels):
    # Communities of up to 60 members: segments longer than 8 are summed pairwise.
    students = [f"s{k:02d}" for k in range(len(amounts))]
    profiles = matrix([[x, k, k % 7, x / 3, 0.0, x * x, 1.5] for k, x in enumerate(amounts)])
    names = sorted(students, reverse=True)
    labeled = {names[k % len(names)]: label for k, label in enumerate(labels)}
    got = variance_comparison(students, profiles, assignment(labeled, students))
    expected = reference_variance_comparison(students, profiles, labeled)
    assert list(got) == list(expected)
    for name in got:
        assert [repr(v) for v in got[name]] == [repr(v) for v in expected[name]], name


def test_active_days_bounded_by_semester_span():
    log = make_log(
        [spend("s1", d * 86400 + 3600, "caf") for d in range(30)]
    )
    profiles = behavior_profiles(log, {"caf": "dining"}, SEMESTER)
    assert indicators(profiles)["days"] == 30 <= SEMESTER.span_seconds / 86400


# --------------------------------------------------- variance comparison


def profiles_with(amounts: dict) -> tuple[list, np.ndarray]:
    """Students and their indicator matrix: the given amounts, every other
    indicator the same for all."""
    return list(amounts), matrix([[x, 1, 1, 0.0, 0.0, 0.0, 0.0] for x in amounts.values()])


def test_identity_partition_gives_equal_columns():
    students, profiles = profiles_with({f"s{i}": float(i) for i in range(10)})
    a = assignment({f"s{i}": 1 for i in range(10)}, sorted(students))
    table = variance_comparison(students, profiles, a)
    for name, (variance_all, within) in table.items():
        assert within == pytest.approx(variance_all, abs=1e-15), name


def test_separated_clusters_have_zero_within_variance():
    amounts = {f"a{i}": 10.0 for i in range(5)}
    amounts.update({f"b{i}": 50.0 for i in range(5)})
    students, profiles = profiles_with(amounts)
    labels = {f"a{i}": 1 for i in range(5)}
    labels.update({f"b{i}": 2 for i in range(5)})
    table = variance_comparison(students, profiles, assignment(labels, sorted(students)))
    variance_all, within = table["amount"]
    assert within == pytest.approx(0.0, abs=1e-15)
    assert variance_all > 0


def test_random_partitions_show_no_reduction_on_homogeneous_data():
    rng = random.Random(6)
    students, profiles = profiles_with({f"s{i:03d}": rng.gauss(20.0, 4.0) for i in range(200)})
    variance_all = float(np.var(profiles[INDICATORS.index("amount")]))
    ratios = []
    for _ in range(100):
        labels = {s: rng.randrange(4) for s in students}
        table = variance_comparison(students, profiles, assignment(labels, sorted(students)))
        ratios.append(table["amount"][1] / variance_all)
    assert float(np.mean(ratios)) == pytest.approx(1.0, abs=0.05)


def test_small_communities_skipped():
    students, profiles = profiles_with({f"s{i}": float(i) for i in range(4)})
    labels = {"s0": 1, "s1": 1, "s2": 2}  # community 2 has a single member
    table = variance_comparison(students, profiles, assignment(labels, sorted(students)))
    _, within = table["amount"]
    assert within == pytest.approx(np.var([0.0, 1.0]), abs=1e-15)


def test_no_eligible_communities_gives_nan():
    students, profiles = profiles_with({"s0": 1.0, "s1": 2.0})
    table = variance_comparison(students, profiles, assignment({"s0": 1}, sorted(students)))
    assert math.isnan(table["amount"][1])


def test_nodes_and_students_that_partly_overlap_give_the_reference_exactly():
    # Graph nodes missing from the log and log students missing from the
    # graph, the students in the log's sorted order or in any other.
    rng = random.Random(11)
    ids = [f"u{k:02d}" for k in range(60)]
    kinds = set()
    for trial in range(80):
        students = rng.sample(ids, rng.randrange(2, 40))
        if trial % 2:
            students.sort()
        nodes = sorted(rng.sample(ids, rng.randrange(1, 40)))
        labels = {node: rng.randrange(1, rng.randrange(2, 8)) for node in nodes
                  if rng.random() < 0.8}
        profiles = matrix([[rng.random() * 10.0 ** rng.randrange(-3, 4) for _ in INDICATORS]
                           for _ in students])
        got = variance_comparison(students, profiles, assignment(labels, nodes))
        expected = reference_variance_comparison(students, profiles, labels)
        assert list(got) == list(expected) == list(INDICATORS)
        for name in got:
            assert [repr(v) for v in got[name]] == [repr(v) for v in expected[name]], name
        kinds.add((set(nodes) <= set(students), set(students) <= set(nodes),
                   math.isnan(got["amount"][1])))
    assert {(False, False, False), (False, False, True)} <= kinds
