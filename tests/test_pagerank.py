import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tieflow.pagerank import WalkParams, pagerank, write_scores_tsv
from tieflow.tiedecay import NetworkSnapshot

from oracles import (
    dense_pagerank,
    dense_rate_matrix,
    make_ranking,
    make_snapshot,
    ranking,
    reference_rank_nodes,
    transposed_pagerank,
)


def snapshot_from_weights(weights: dict, n: int) -> NetworkSnapshot:
    return make_snapshot(weights, [f"n{i:02d}" for i in range(n)])


def random_snapshot(rng, n: int, density=0.15) -> NetworkSnapshot:
    weights = {}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                weights[(f"n{i:02d}", f"n{j:02d}")] = rng.random() * 10 + 0.1
    return snapshot_from_weights(weights, n)


# ------------------------------------------------- transition matrix
# The walk's transition matrix is the oracle's rate matrix at damping 1.


def test_single_edge_and_dangling_row():
    snap = snapshot_from_weights({("n00", "n01"): 5.0}, 2)
    p = dense_rate_matrix(snap, 1.0)
    assert p[0].tolist() == [0.0, 1.0]
    assert p[1].tolist() == [0.5, 0.5]


def test_row_normalization():
    snap = snapshot_from_weights({("n00", "n01"): 2.0, ("n00", "n02"): 6.0}, 3)
    p = dense_rate_matrix(snap, 1.0)
    assert p[0, 1] == pytest.approx(0.25)
    assert p[0, 2] == pytest.approx(0.75)


def test_rows_sum_to_one_on_random_snapshots():
    rng = random.Random(31)
    for _ in range(10):
        snap = random_snapshot(rng, 5, density=0.4)
        p = dense_rate_matrix(snap, 1.0)
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-14


def test_empty_snapshot_rejected():
    empty = make_snapshot({}, ())
    with pytest.raises(ValueError):
        pagerank(empty)


# ----------------------------------------------------------- pagerank


def test_two_node_symmetric_fixed_point():
    snap = snapshot_from_weights({("n00", "n01"): 3.0, ("n01", "n00"): 3.0}, 2)
    pr = pagerank(snap)
    assert pr.scores["n00"] == pytest.approx(0.5, abs=1e-12)
    assert pr.scores["n01"] == pytest.approx(0.5, abs=1e-12)
    assert pr.converged


def test_edgeless_graph_is_uniform():
    snap = snapshot_from_weights({}, 4)
    pr = pagerank(snap)
    for score in pr.scores.values():
        assert score == pytest.approx(0.25, abs=1e-12)


def test_matches_dense_eigensolve_oracle():
    rng = random.Random(12345)
    for trial in range(20):
        n = rng.randrange(2, 51)
        snap = random_snapshot(rng, n)
        pr = pagerank(snap)
        reference = dense_pagerank(snap, 0.85)
        mine = np.array([pr.scores[node] for node in snap.nodes])
        assert np.abs(mine - reference).max() < 1e-8, f"trial {trial}"


def test_matches_networkx_pagerank():
    # A second, independent oracle; networkx also teleports dangling mass uniformly.
    rng = random.Random(54321)
    for trial in range(50):
        n = rng.randrange(2, 51)
        snap = random_snapshot(rng, n)
        graph = nx.DiGraph()
        graph.add_nodes_from(snap.nodes)
        graph.add_weighted_edges_from(snap.edges())
        reference = nx.pagerank(graph, alpha=0.85, tol=1e-14, max_iter=10_000)
        pr = pagerank(snap, WalkParams(tolerance=1e-13))
        assert pr.converged
        gap = max(abs(pr.scores[node] - reference[node]) for node in snap.nodes)
        assert gap < 1e-10, f"trial {trial}"


def test_power_iteration_equals_explicit_matrix_iteration():
    # The dangling-mass shortcut must equal literally iterating with G.
    rng = random.Random(4)
    snap = random_snapshot(rng, 10)
    g = dense_rate_matrix(snap, 0.85)
    x = np.full(10, 0.1)
    for _ in range(200):
        x = g.T @ x
    pr = pagerank(snap)
    mine = np.array([pr.scores[node] for node in snap.nodes])
    assert np.abs(mine - x).max() < 1e-9


def test_csr_order_iteration_equals_transposed_order_bit_for_bit(planted_pipeline):
    rng = random.Random(12)
    snapshots = [random_snapshot(rng, rng.randrange(2, 40), density=rng.choice([0.02, 0.15, 0.5]))
                 for _ in range(30)]  # the sparse ones have dangling rows
    snapshots.append(planted_pipeline["snapshot"])
    for snap in snapshots:
        for damping, max_iterations in ((0.85, 1000), (0.5, 1000), (0.99, 7)):
            pr = pagerank(snap, WalkParams(damping=damping, max_iterations=max_iterations))
            scores, iterations, residuals = transposed_pagerank(
                snap, damping=damping, max_iterations=max_iterations)
            assert [pr.scores[node] for node in snap.nodes] == scores
            assert (pr.iterations, pr.residuals) == (iterations, residuals)


def test_scores_positive_sum_one_and_lower_bound():
    rng = random.Random(99)
    for _ in range(10):
        n = rng.randrange(2, 40)
        snap = random_snapshot(rng, n)
        pr = pagerank(snap)
        values = np.array(list(pr.scores.values()))
        assert (values > 0).all()
        assert abs(values.sum() - 1.0) < 1e-10
        assert (values >= (1 - 0.85) / n - 1e-15).all()


def test_l1_norm_preserved_at_every_iteration():
    rng = random.Random(6)
    snap = random_snapshot(rng, 12)
    for budget in range(1, 15):
        pr = pagerank(snap, WalkParams(max_iterations=budget, tolerance=0.0))
        assert abs(sum(pr.scores.values()) - 1.0) < 1e-10


def test_residuals_non_increasing():
    rng = random.Random(21)
    snap = random_snapshot(rng, 25)
    pr = pagerank(snap)
    residuals = pr.residuals
    assert all(residuals[i + 1] <= residuals[i] + 1e-15 for i in range(len(residuals) - 1))


def test_non_convergence_is_flagged_not_fatal():
    rng = random.Random(3)
    snap = random_snapshot(rng, 20)
    pr = pagerank(snap, WalkParams(max_iterations=2, tolerance=1e-30))
    assert not pr.converged
    assert pr.iterations == 2


def test_damping_validation():
    with pytest.raises(ValueError):
        WalkParams(damping=1.0)
    with pytest.raises(ValueError):
        WalkParams(damping=0.0)


def test_tolerance_and_iteration_budget_validation():
    with pytest.raises(ValueError, match="tolerance"):
        WalkParams(tolerance=-1.0)
    with pytest.raises(ValueError, match="tolerance"):
        WalkParams(tolerance=float("nan"))
    with pytest.raises(ValueError, match="max_iterations"):
        WalkParams(max_iterations=0)
    WalkParams(tolerance=0.0, max_iterations=1)


# ------------------------------------------------------------ ranking


def test_rank_by_score_descending():
    snap = snapshot_from_weights({}, 3)
    pr = pagerank(snap)
    scores = dict(pr.scores)
    scores.update({"n00": 0.5, "n01": 0.3, "n02": 0.2})
    ranked = ranking(make_ranking(scores))
    assert ranked == ("n00", "n01", "n02")


def test_ties_break_by_node_id():
    ranked = ranking(make_ranking({"b": 0.5, "a": 0.5}))
    assert ranked == ("a", "b")


def test_ranking_is_permutation_of_nodes():
    rng = random.Random(8)
    snap = random_snapshot(rng, 30)
    pr = pagerank(snap)
    assert sorted(pr.order.tolist()) == list(range(len(snap.nodes)))


# Few distinct scores, so most nodes tie with several others.
SCORES = st.sampled_from([0.0, 1e-300, 0.125, 1 / 3, 0.5, 1.0]) | st.floats(0.0, 1.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(st.tuples(st.text(max_size=3), SCORES), unique_by=lambda item: item[0]),
       st.randoms(use_true_random=False))
def test_ranking_matches_key_sort(items, rng):
    rng.shuffle(items)  # dict insertion order must not matter
    pr = make_ranking(dict(items))
    assert list(ranking(pr)) == reference_rank_nodes(dict(items))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.dictionaries(st.text(max_size=3), SCORES))
def test_array_and_views_equal_a_name_keyed_rebuild(scores):
    pr = make_ranking(scores)
    nodes = sorted(scores)
    ranked = reference_rank_nodes(scores)
    assert pr.nodes == tuple(nodes) and len(pr) == len(scores)
    assert pr.values.dtype == np.float64
    assert pr.values.tolist() == [scores[node] for node in nodes]
    assert list(pr.scores.items()) == [(node, scores[node]) for node in nodes]
    assert pr.order.tolist() == [nodes.index(node) for node in ranked]


def test_result_holds_the_snapshot_nodes_and_matches_a_name_keyed_rebuild():
    # An edgeless snapshot ties every node; a sparse one ties the nodes that
    # nothing points to.
    for snap in (snapshot_from_weights({}, 5), random_snapshot(random.Random(9), 30, 0.05)):
        pr = pagerank(snap)
        assert pr.nodes is snap.nodes
        rebuilt = dict(zip(snap.nodes, pr.values.tolist()))
        assert len(set(rebuilt.values())) < len(rebuilt)
        assert pr.scores == rebuilt and list(pr.scores) == list(snap.nodes)
        ranked = reference_rank_nodes(rebuilt)
        assert pr.order.tolist() == [snap.nodes.index(node) for node in ranked]


def test_scores_tsv_format(tmp_path):
    snap = snapshot_from_weights({("n00", "n01"): 1.0}, 2)
    pr = pagerank(snap)
    path = tmp_path / "scores.tsv"
    write_scores_tsv(pr, path, comments=["damping = 0.85"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# damping = 0.85"
    body = [line.split("\t") for line in lines[1:]]
    assert [row[2] for row in body] == ["1", "2"]
    assert float(body[0][1]) > float(body[1][1])
