import gc
import math
import random
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tieflow import ifs, metrics
from tieflow.cooccur import build_cooccurrence_graph
from tieflow.events import TimeRange
from tieflow.ifs import (
    CommunityAssignment,
    FlowParams,
    SweepRow,
    assignment_to_doc,
    detect_communities,
    read_assignment_json,
    sweep_epsilon,
    write_assignment_json,
)
from tieflow.metrics import partition_report
from tieflow.orient import orient_edges
from tieflow.pagerank import PageRankVector, pagerank
from tieflow.synth import SyntheticConfig, generate
from tieflow.tiedecay import DEFAULT_HALF_LIFE, DecayParams, NetworkSnapshot, snapshot_at

import oracles
from oracles import (
    make_ranking,
    make_snapshot,
    propagation_probability,
    rank_priority_bfs,
    same_assignment,
)


def uniform_scores(nodes, top=()) -> PageRankVector:
    """Hand-crafted ranking: listed nodes first, the rest tied below."""
    scores = {node: 1.0 / (10 * len(nodes)) for node in nodes}
    for position, node in enumerate(top):
        scores[node] = 1.0 - 0.01 * position
    total = sum(scores.values())
    return make_ranking({node: value / total for node, value in scores.items()})


# ------------------------------------------------------------- origins


def cycle_cascade(pr: PageRankVector, epsilon: float) -> tuple[CommunityAssignment, set]:
    """detect_communities on the directed cycle over pr's nodes, and its
    origins: each edge is its source's only out-edge, so every try succeeds
    and every node but the origins is labeled."""
    nodes = pr.nodes
    snap = make_snapshot(dict.fromkeys(zip(nodes, nodes[1:] + nodes[:1]), 1.0), nodes)
    a = detect_communities(snap, pr, epsilon, FlowParams())
    return a, set(nodes).difference(snap.nodes[j] for _, j in a.steps)


def test_top_fraction_selected():
    pr = uniform_scores([f"n{i}" for i in range(10)], top=["n3", "n7"])
    assert ifs._origin_count(pr, 0.2) == 2
    a, origins = cycle_cascade(pr, 0.2)
    assert origins == {"n3", "n7"} and a.origin_of == {1: "n3", 2: "n7"}


def test_full_selection():
    pr = uniform_scores([f"n{i}" for i in range(10)])
    assert ifs._origin_count(pr, 1.0) == 10
    assert cycle_cascade(pr, 1.0)[1] == set(pr.nodes)


def test_floor_rule():
    pr = uniform_scores([f"n{i}" for i in range(7)])
    assert ifs._origin_count(pr, 0.5) == 3  # floor(3.5)
    assert cycle_cascade(pr, 0.5)[1] == {"n0", "n1", "n2"}  # tied: by node id


def test_at_least_one_origin():
    pr = uniform_scores(["a", "b", "c"])
    assert ifs._origin_count(pr, 0.01) == 1
    assert cycle_cascade(pr, 0.01)[1] == {"a"}


def test_epsilon_bounds():
    pr = uniform_scores(["a", "b"])
    snap = make_snapshot({("a", "b"): 1.0}, pr.nodes)
    for epsilon in (0.0, 1.5):
        with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, 1\]$"):
            ifs._origin_count(pr, epsilon)
        with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, 1\]$"):
            detect_communities(snap, pr, epsilon, FlowParams())


def test_empty_vector_rejected():
    empty = make_ranking({})
    with pytest.raises(ValueError, match="^PageRank vector is empty$"):
        ifs._origin_count(empty, 0.5)
    with pytest.raises(ValueError, match="^PageRank vector is empty$"):
        detect_communities(make_snapshot({}, []), empty, 0.5, FlowParams())


@pytest.mark.parametrize("epsilon, count", [(0.01, 1), (0.3, 3), (0.35, 3), (1.0, 10)])
def test_cascade_origins_are_select_origins(epsilon, count):
    # The origins production selects are the reference's, by name, at the
    # floor and at-least-one counts, with ties in score three nodes wide.
    nodes = [f"n{i}" for i in range(10)]
    shuffled = random.Random(5).sample(nodes, len(nodes))
    pr = make_ranking({node: 1.0 / (1 + rank // 3) for rank, node in enumerate(shuffled)})
    expected = oracles.reference_origins(pr, epsilon)
    assert len(expected) == ifs._origin_count(pr, epsilon) == count
    a, origins = cycle_cascade(pr, epsilon)
    assert origins == set(expected)
    assert a.origin_of == {k: expected[k - 1] for k in a.values}


# --------------------------------------------------------- probability


def test_sole_out_edge_is_certain():
    assert ifs._probability(np.array([4.2]), np.array([4.2]), 0.25).tolist() == [1.0]


def test_fourth_root_form():
    # (1/16)^(1/4) = 1/2 exactly
    assert ifs._probability(np.array([1.0]), np.array([16.0]), 0.25)[0] == pytest.approx(0.5, abs=1e-15)


def test_zero_weight_no_flow():
    assert ifs._probability(np.zeros(2), np.array([5.0, 0.0]), 0.25).tolist() == [0.0, 0.0]


def test_weight_above_strength_rejected():
    # The oracle's guard; a snapshot's weight never exceeds its row's sum.
    with pytest.raises(ValueError):
        propagation_probability(2.0, 1.0, 0.25)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(1, 300), st.integers(0, 2**32 - 1),
       st.sampled_from([0.25, 0.5, 0.9]) | st.floats(0, 1, exclude_min=True, exclude_max=True))
def test_probability_of_some_edges_equals_full_array_bit_for_bit(n, seed, beta):
    # A cascade round computes the probabilities of only its tries' edges, in
    # any order and some twice; each must be the bits the full array holds
    # there, whatever lanes a vectorised power puts the entry in.
    rng = np.random.default_rng(seed)
    w = rng.lognormal(size=n) * (rng.random(n) < 0.8)  # about a fifth zero
    out_strength = w + rng.lognormal(size=n) * (rng.random(n) < 0.7)  # some w == out_strength
    edges = rng.integers(0, n, size=rng.integers(1, n + 1))
    full = propagation_probability(w, out_strength, beta)
    some = ifs._probability(w[edges], out_strength[edges], beta)
    assert np.array_equal(some.view(np.int64), full[edges].view(np.int64))


def test_beta_bounds():
    with pytest.raises(ValueError):
        FlowParams(beta=0.0)
    with pytest.raises(ValueError):
        FlowParams(beta=1.0)


# ------------------------------------------------------------ detection


def test_zero_edges_means_everyone_isolated():
    snap = make_snapshot({}, [f"n{i}" for i in range(6)])
    pr = uniform_scores(snap.nodes)
    assignment = detect_communities(snap, pr, 0.5, FlowParams(seed=1))
    assert assignment.labels == {}
    assert assignment.origin_of == {}
    assert assignment.isolated == frozenset(snap.nodes)


def _star_coverage_oracle(p: float, trials: int, max_rounds: int, seed: int) -> float:
    """Direct simulation of the 3-leaf star: Binomial successes per round,
    stop on a zero round; returns mean fraction of leaves labeled."""
    rng = np.random.default_rng(seed)
    remaining = np.full(trials, 3, dtype=np.int64)
    active = np.ones(trials, dtype=bool)
    for _ in range(max_rounds):
        draws = rng.binomial(remaining, p)
        draws[~active] = 0
        active &= draws > 0
        remaining -= draws
        active &= remaining > 0
        if not active.any():
            break
    return float((3 - remaining).mean() / 3.0)


def star_snapshot():
    weights = {("o", "a"): 2.0, ("o", "b"): 2.0, ("o", "c"): 2.0}
    return make_snapshot(weights, ["o", "a", "b", "c"])


def test_star_coverage_matches_markov_oracle():
    # Each leaf attempt succeeds with (1/3)^(1/4) ~ 0.76 per round; the
    # zero-new-labels stopping rule caps expected coverage at the exact
    # absorbing-chain value 0.94395 (it would exceed 0.99 only without
    # early stopping).
    snap = star_snapshot()
    pr = uniform_scores(snap.nodes, top=["o"])
    p = propagation_probability(2.0, 6.0, 0.25)
    assert p == pytest.approx((1 / 3) ** 0.25, rel=1e-12)

    oracle = _star_coverage_oracle(p, trials=100_000, max_rounds=10, seed=7)
    assert oracle == pytest.approx(0.9439490, abs=0.005)

    covered = 0
    runs = 2_000
    for seed in range(runs):
        a = detect_communities(snap, pr, 0.25, FlowParams(seed=seed, max_rounds=10))
        covered += len([n for n in a.labels if n != "o"])
    production = covered / (3 * runs)
    assert production == pytest.approx(oracle, abs=0.015)

    full = detect_communities(snap, pr, 0.25, FlowParams(seed=0))
    assert set(full.labels) == {"o", "a", "b", "c"}
    assert set(full.labels.values()) == {1}


def test_disjoint_components_never_cross_label():
    weights = {
        ("a1", "a2"): 1.0, ("a2", "a1"): 1.0, ("a1", "a3"): 2.0,
        ("b1", "b2"): 1.0, ("b2", "b1"): 1.0, ("b1", "b3"): 2.0,
    }
    snap = make_snapshot(weights, ["a1", "a2", "a3", "b1", "b2", "b3"])
    pr = uniform_scores(snap.nodes, top=["a1", "b1"])
    assignment = detect_communities(snap, pr, 0.34, FlowParams(seed=5, max_rounds=50))
    for node, label in assignment.labels.items():
        origin = assignment.origin_of[label]
        assert node[0] == origin[0]  # same component prefix
    assert len(assignment.origin_of) == 2


def test_fixed_seed_is_reproducible():
    rng = random.Random(0)
    snap = random_weighted_snapshot(rng, 40)
    pr = pagerank(snap)
    first = detect_communities(snap, pr, 0.2, FlowParams(seed=99))
    second = detect_communities(snap, pr, 0.2, FlowParams(seed=99))
    assert same_assignment(first, second)


def random_weighted_snapshot(rng, n, density=0.12) -> NetworkSnapshot:
    weights = {}
    names = [f"n{i:03d}" for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                weights[(names[i], names[j])] = 0.1 + rng.random() * 5
    return make_snapshot(weights, names)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 1.0), st.sampled_from([0.25, 0.9]), st.booleans())
def test_detected_partition_equals_and_scores_as_its_name_rebuild(seed, epsilon, beta, relay):
    rng = random.Random(seed)
    snap = random_weighted_snapshot(rng, rng.randrange(2, 60), density=rng.choice([0.03, 0.12]))
    pr = pagerank(snap)
    detected = detect_communities(snap, pr, epsilon, FlowParams(seed=seed, beta=beta, relay=relay))
    # Rebuilt over an equal node tuple that is another object.
    rebuilt = CommunityAssignment.from_names(detected.labels, tuple(list(snap.nodes)),
                                             detected.origin_of, detected.rounds, detected.trace)
    assert rebuilt.nodes is not snap.nodes and same_assignment(rebuilt, detected)
    # The labels view lists the labeled nodes in node index order.
    assert list(detected.labels) == [node for node in snap.nodes if node in detected.labels]
    assert detected.isolated == set(snap.nodes).difference(detected.labels)
    if snap.total_weight > 0:
        for directed in (True, False):
            assert (metrics.modularity(snap, detected, directed)
                    == metrics.modularity(snap, rebuilt, directed)
                    == oracles.reference_modularity(snap, detected.labels, directed))
        assert partition_report(snap, detected) == partition_report(snap, rebuilt)


def test_no_node_labeled_twice_and_origins_keep_own_labels():
    rng = random.Random(10)
    for _ in range(10):
        snap = random_weighted_snapshot(rng, 30)
        pr = pagerank(snap)
        assignment = detect_communities(snap, pr, 0.3, FlowParams(seed=rng.randrange(1000)))
        seen = [node for _, node, _ in assignment.trace]
        assert len(seen) == len(set(seen))
        for label, origin in enumerate(oracles.reference_origins(pr, 0.3), start=1):
            if origin in assignment.labels:
                assert assignment.labels[origin] == label


def test_community_count_bounded_by_origin_count():
    rng = random.Random(20)
    for _ in range(10):
        n = rng.randrange(5, 60)
        snap = random_weighted_snapshot(rng, n)
        pr = pagerank(snap)
        epsilon = rng.choice([0.1, 0.2, 0.5, 1.0])
        assignment = detect_communities(snap, pr, epsilon, FlowParams(seed=3))
        assert len(assignment.origin_of) <= max(1, math.floor(epsilon * n))
        assert len(set(assignment.labels.values())) == len(assignment.origin_of)


def test_labels_and_isolated_partition_nodes():
    rng = random.Random(30)
    snap = random_weighted_snapshot(rng, 50)
    pr = pagerank(snap)
    assignment = detect_communities(snap, pr, 0.25, FlowParams(seed=4))
    labeled = set(assignment.labels)
    assert labeled | set(assignment.isolated) == set(snap.nodes)
    assert labeled & set(assignment.isolated) == set()


def test_every_labeled_node_reachable_from_its_origin():
    rng = random.Random(40)
    snap = random_weighted_snapshot(rng, 60)
    pr = pagerank(snap)
    assignment = detect_communities(snap, pr, 0.2, FlowParams(seed=8))
    out_edges: dict = {}
    for src, dst, _ in snap.edges():
        out_edges.setdefault(src, []).append(dst)
    for label, origin in assignment.origin_of.items():
        reached = {origin}
        frontier = [origin]
        while frontier:
            node = frontier.pop()
            for nxt in out_edges.get(node, ()):
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        for node, node_label in assignment.labels.items():
            if node_label == label:
                assert node in reached


def functional_snapshot(rng, n) -> NetworkSnapshot:
    """Every node has at most one out-edge, so each propagation is certain."""
    names = [f"n{i:03d}" for i in range(n)]
    weights = {}
    for i, src in enumerate(names):
        if rng.random() < 0.8:
            dst = names[rng.randrange(n - 1)]
            if dst == src:
                dst = names[n - 1]
            weights[(src, dst)] = 0.5 + rng.random()
    return make_snapshot(weights, names)


def test_deterministic_probabilities_match_bfs_oracle():
    rng = random.Random(314)
    for trial in range(25):
        n = rng.randrange(4, 101)
        snap = functional_snapshot(rng, n)
        pr = pagerank(snap)
        origins = oracles.reference_origins(pr, 0.2)
        assignment = detect_communities(snap, pr, 0.2, FlowParams(seed=trial))
        out_edges: dict = {}
        for src, dst, _ in snap.edges():
            out_edges.setdefault(src, []).append(dst)
        expected = rank_priority_bfs(snap.nodes, out_edges, origins)
        mine = {
            node: label
            for node, label in assignment.labels.items()
            if node not in origins
        }
        assert mine == expected, f"trial {trial}, n {n}"


@pytest.fixture(scope="module")
def cascade_graphs(planted_pipeline):
    """The planted snapshot, and a sparse random one where about a fifth of
    the nodes have no out-edge, so some origins end up isolated."""
    sparse = random_weighted_snapshot(random.Random(50), 80, density=0.02)
    return {
        "planted": (planted_pipeline["snapshot"], planted_pipeline["ranking"]),
        "sparse": (sparse, pagerank(sparse)),
    }


def counting_rngs(monkeypatch, module) -> list:
    """Patch `module`'s random.Random with a subclass that counts its
    random() draws; returns the instances it makes, in order."""
    made = []

    class CountingRandom(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            self.draws = 0
            made.append(self)

        def random(self):
            self.draws += 1
            return super().random()

    monkeypatch.setattr(module, "random", types.SimpleNamespace(Random=CountingRandom))
    return made


@pytest.mark.parametrize("relay", [True, False], ids=["relay", "single-hop"])
@pytest.mark.parametrize("graph", ["planted", "sparse"])
def test_cascade_matches_name_keyed_reference(monkeypatch, cascade_graphs, graph, relay):
    snap, pr = cascade_graphs[graph]
    mine_rngs, reference_rngs = counting_rngs(monkeypatch, ifs), counting_rngs(monkeypatch, oracles)
    isolated_origins = cut_while_running = 0
    for seed in (0, 1, 7):
        # 0.0002 leaves one origin; at 1.0 every node is an origin and nothing draws.
        for epsilon in (0.0002, 0.05, 0.2, 0.5, 1.0):
            for max_rounds in (100, 2):
                params = FlowParams(seed=seed, relay=relay, max_rounds=max_rounds)
                mine = detect_communities(snap, pr, epsilon, params)
                reference = oracles.reference_cascade(snap, pr, epsilon, params)
                case = f"seed {seed}, epsilon {epsilon}, max_rounds {max_rounds}"
                assert list(mine.labels.items()) == list(reference.labels.items()), case
                assert list(mine.origin_of.items()) == list(reference.origin_of.items()), case
                assert mine.isolated == reference.isolated, case
                assert mine.rounds == reference.rounds, case
                assert mine.trace == reference.trace, case
                assert mine_rngs[-1].draws == reference_rngs[-1].draws, case
                assert (mine_rngs[-1].draws == 0) == (epsilon == 1.0), case
                if max_rounds == 100:
                    full_rounds = mine.rounds
                    isolated_origins += len(mine.isolated.intersection(
                        oracles.reference_origins(pr, epsilon)))
                else:
                    cut_while_running += full_rounds > 2
    assert graph == "planted" or isolated_origins > 0
    assert cut_while_running > 0


def ring_snapshot(rng, n) -> NetworkSnapshot:
    """n nodes on a ring, each with six out-edges to nodes at most twelve
    places ahead: a cascade creeps along it for dozens of rounds."""
    names = [f"n{i:04d}" for i in range(n)]
    weights = {}
    for i in range(n):
        for step in rng.sample(range(1, 13), 6):
            weights[(names[i], names[(i + step) % n])] = rng.lognormvariate(0, 1)
    return make_snapshot(weights, names)


def test_long_cascades_match_name_keyed_reference(monkeypatch):
    snap = ring_snapshot(random.Random(70), 1200)
    pr = pagerank(snap)
    mine_rngs, reference_rngs = counting_rngs(monkeypatch, ifs), counting_rngs(monkeypatch, oracles)
    longest = 0
    overtaken = False
    for seed, epsilon in ((0, 0.002), (1, 0.01)):
        params = FlowParams(seed=seed, beta=0.9)  # mean edge probability about 0.2
        mine = detect_communities(snap, pr, epsilon, params)
        reference = oracles.reference_cascade(snap, pr, epsilon, params)
        case = f"seed {seed}, epsilon {epsilon}"
        assert list(mine.labels.items()) == list(reference.labels.items()), case
        assert mine.rounds == reference.rounds, case
        assert mine.trace == reference.trace, case
        assert mine_rngs[-1].draws == reference_rngs[-1].draws, case
        longest = max(longest, mine.rounds)
        # A relay of label k joins the round after label k first spreads, while
        # a higher label k2 still labels nodes: its tries go in before k2's.
        first, last = {}, {}
        for r, _, k in mine.trace:
            first.setdefault(k, r)
            last[k] = r
        overtaken |= any(last[k2] > first[k] for k in first for k2 in last if k2 > k)
    assert longest >= 20
    assert overtaken


def test_second_try_into_a_node_labeled_this_round_draws_nothing(monkeypatch):
    # Origins "a" and "b" each have one out-edge, to "x", so each try succeeds
    # with probability 1; "a" labels "x" first and "b"'s try is skipped.
    snap = make_snapshot({("a", "x"): 1.0, ("b", "x"): 2.0}, ["a", "b", "x"])
    pr = uniform_scores(snap.nodes, top=["a", "b"])
    mine_rngs, reference_rngs = counting_rngs(monkeypatch, ifs), counting_rngs(monkeypatch, oracles)
    mine = detect_communities(snap, pr, 0.7, FlowParams(seed=3))
    reference = oracles.reference_cascade(snap, pr, 0.7, FlowParams(seed=3))
    assert mine.trace == reference.trace == ((1, "x", 1),)
    assert mine.labels == reference.labels == {"x": 1, "a": 1}
    assert mine.isolated == reference.isolated == {"b"}
    assert mine_rngs[-1].draws == reference_rngs[-1].draws == 1


def test_single_hop_only_labels_direct_neighbors():
    weights = {("o", "m"): 1.0, ("m", "far"): 1.0}
    snap = make_snapshot(weights, ["o", "m", "far"])
    pr = uniform_scores(snap.nodes, top=["o"])
    assignment = detect_communities(
        snap, pr, 0.34, FlowParams(seed=2, relay=False, max_rounds=50)
    )
    assert "far" not in assignment.labels
    relayed = detect_communities(snap, pr, 0.34, FlowParams(seed=2, max_rounds=50))
    assert relayed.labels.get("far") == 1


def test_node_set_mismatch_rejected():
    snap = make_snapshot({("a", "b"): 1.0}, ["a", "b", "c"])
    # One node missing, one extra, and one id differing at the same size.
    for nodes in (["a", "b"], ["a", "b", "c", "d"], ["a", "b", "x"]):
        pr = uniform_scores(nodes)
        mismatch = "^snapshot and PageRank cover different node sets$"
        with pytest.raises(ValueError, match=mismatch):
            detect_communities(snap, pr, 0.5, FlowParams())
        with pytest.raises(ValueError, match=mismatch):
            sweep_epsilon(snap, pr, [0.5], FlowParams())


def test_ranking_over_an_equal_node_tuple_is_accepted():
    snap = random_weighted_snapshot(random.Random(63), 20, density=0.3)
    pr = pagerank(snap)
    equal = PageRankVector(tuple(list(snap.nodes)), pr.values, pr.iterations, pr.converged)
    assert equal.nodes is not snap.nodes and equal.nodes == snap.nodes
    for epsilon in (0.1, 0.5):
        mine = detect_communities(snap, equal, epsilon, FlowParams(seed=4))
        assert mine.labels and same_assignment(
            mine, detect_communities(snap, pr, epsilon, FlowParams(seed=4)))
    other = PageRankVector(snap.nodes[:-1] + (snap.nodes[-1] + "x",), pr.values, 1, True)
    with pytest.raises(ValueError, match="^snapshot and PageRank cover different node sets$"):
        detect_communities(snap, other, 0.5, FlowParams())


def test_negative_weight_rejected():
    # Where the snapshot is built, so that pagerank and modularity never see it.
    with pytest.raises(ValueError, match="^edge weight must be non-negative$"):
        make_snapshot({("a", "b"): -1.0, ("a", "c"): 3.0}, ["a", "b", "c"])


@pytest.mark.parametrize("weight, fault", [
    (math.nan, "^edge weight must be finite, not NaN or infinite$"),
    (math.inf, "^edge weight must be finite, not NaN or infinite$"),
    (-math.inf, "^edge weight must be non-negative$"),
])
def test_non_finite_weight_rejected(weight, fault):
    with pytest.raises(ValueError, match=fault):
        make_snapshot({("a", "b"): weight, ("a", "c"): 3.0}, ["a", "b", "c"])


def test_no_snapshot_outlives_its_caller():
    for run in (lambda snap, pr: detect_communities(snap, pr, 0.2, FlowParams(seed=1)),
                lambda snap, pr: sweep_epsilon(snap, pr, [0.5, 0.2], FlowParams(seed=1))):
        snap = random_weighted_snapshot(random.Random(67), 30, density=0.2)
        pr = pagerank(snap)
        result = run(snap, pr)
        alive = weakref.ref(snap)
        del snap, pr, result
        gc.collect()
        assert alive() is None


# ---------------------------------------------------------------- sweep


def test_sweep_grid_rows():
    rng = random.Random(60)
    snap = random_weighted_snapshot(rng, 40, density=0.2)
    pr = pagerank(snap)
    grid = [0.50, 0.45, 0.40, 0.35, 0.30, 0.25, 0.20, 0.15, 0.10, 0.05]
    rows = sweep_epsilon(snap, pr, grid, FlowParams(seed=1))
    assert len(rows) == 10
    for epsilon, row in zip(grid, rows):
        assert row.epsilon == epsilon
        assert row.community_count <= math.floor(epsilon * 40)


def test_sweep_single_epsilon():
    rng = random.Random(61)
    snap = random_weighted_snapshot(rng, 20, density=0.3)
    pr = pagerank(snap)
    rows = sweep_epsilon(snap, pr, [0.2], FlowParams(seed=1))
    assert len(rows) == 1


def test_sweep_rejects_empty_and_bad_epsilon():
    rng = random.Random(62)
    snap = random_weighted_snapshot(rng, 10, density=0.3)
    pr = pagerank(snap)
    with pytest.raises(ValueError):
        sweep_epsilon(snap, pr, [], FlowParams())
    with pytest.raises(ValueError):
        sweep_epsilon(snap, pr, [0.2, 0.0], FlowParams())


def rows_one_by_one(snap, pr, epsilons, params) -> list[SweepRow]:
    """The sweep as one detect_communities plus partition_report per fraction."""
    rows = []
    for epsilon in epsilons:
        report = partition_report(snap, detect_communities(snap, pr, epsilon, params))
        rows.append(SweepRow(epsilon, report.modularity, report.community_count, report.avg_size))
    return rows


@pytest.mark.parametrize("params", [
    FlowParams(seed=1), FlowParams(seed=2, relay=False), FlowParams(seed=3, max_rounds=1),
    FlowParams(seed=4, beta=0.75, relay=False, max_rounds=1),
], ids=["relay", "single-hop", "one-round", "single-hop-one-round"])
def test_sweep_rows_equal_detection_plus_report_exactly(params):
    rng = random.Random(64)
    grid = [1.0, 0.5, 0.45, 0.3, 0.2, 0.1, 0.05, 0.001]
    for trial in range(12):
        snap = random_weighted_snapshot(rng, rng.randrange(3, 80),
                                        density=rng.choice([0.01, 0.04, 0.15, 0.4]))
        pr = pagerank(snap)
        assert sweep_epsilon(snap, pr, grid, params) == rows_one_by_one(snap, pr, grid, params)


def test_sweep_row_of_fraction_whose_origins_stay_isolated():
    # The top two nodes have no out-edge, so at 0.4 both origins stay
    # isolated; at 0.6 the third origin, "m", labels "x" and "y".
    weights = {("m", "x"): 1.0, ("m", "y"): 2.0, ("x", "a"): 1.0, ("y", "b"): 1.0}
    snap = make_snapshot(weights, ["a", "b", "m", "x", "y"])
    pr = uniform_scores(snap.nodes, top=["a", "b", "m"])
    grid, params = [0.4, 0.6], FlowParams(seed=5)
    rows = sweep_epsilon(snap, pr, grid, params)
    assert rows == rows_one_by_one(snap, pr, grid, params)
    assert rows[0] == SweepRow(0.4, 0.0, 0, 0.0)
    assert rows[1].community_count == 1 and rows[1].avg_size == 3.0


@pytest.mark.parametrize("weights", [{}, {("a", "b"): 0.0}], ids=["no-edges", "zero-weight-edge"])
def test_sweep_on_zero_weight_snapshot_raises_like_report(weights):
    snap = make_snapshot(weights, ["a", "b", "c"])
    pr = pagerank(snap)
    with pytest.raises(ValueError) as one_by_one:
        rows_one_by_one(snap, pr, [0.5], FlowParams())
    with pytest.raises(ValueError) as swept:
        sweep_epsilon(snap, pr, [0.5], FlowParams())
    assert str(swept.value) == str(one_by_one.value) == "snapshot has zero total weight"


@pytest.fixture(scope="module")
def scale_snapshot():
    """The scale graph of perfbench (5,000 students in 50 communities over two
    weeks) at its end, and its PageRank: cascades on it find dozens of
    communities, in an order unrelated to their labels."""
    config = SyntheticConfig(n_students=5000, n_communities=50, semester=TimeRange(0, 14 * 86400),
                             intra_rate=0.075, inter_rate=0.0002, jitter=60, seed=42)
    graph = orient_edges(build_cooccurrence_graph(generate(config)[0], window=120))
    snap = snapshot_at(graph, DecayParams.from_half_life(DEFAULT_HALF_LIFE), graph.end_time())
    return snap, pagerank(snap)


def test_partition_read_back_from_its_file_scores_as_detected(tmp_path, scale_snapshot):
    # What `evaluate` reports for the file `detect` writes is the sweep row.
    snap, pr = scale_snapshot
    grid, path = [0.5, 0.3, 0.1], tmp_path / "communities.json"
    for params in (FlowParams(seed=0), FlowParams(seed=1)):
        for epsilon, row in zip(grid, sweep_epsilon(snap, pr, grid, params)):
            detected = detect_communities(snap, pr, epsilon, params)
            write_assignment_json(assignment_to_doc(detected, snap.time, epsilon, params), path)
            report = partition_report(snap, read_assignment_json(path, snap.nodes))
            assert report == partition_report(snap, detected)
            assert SweepRow(epsilon, report.modularity, report.community_count,
                            report.avg_size) == row
