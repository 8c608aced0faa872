import random
from pathlib import Path

from tieflow.cooccur import CooccurrenceGraph
from tieflow.orient import _degrees, orient_edges, read_tie_graph_json, write_tie_graph_json

from oracles import make_cooccurrence, reference_degrees


def undirected(edge_list) -> CooccurrenceGraph:
    nodes = set()
    edges = {}
    for a, b in edge_list:
        nodes.update((a, b))
        key = (a, b) if a < b else (b, a)
        edges[key] = (100,)
    return make_cooccurrence(nodes, edges)


def random_undirected(rng, max_nodes=200) -> CooccurrenceGraph:
    n = rng.randrange(2, max_nodes + 1)
    names = [f"n{i:03d}" for i in range(n)]
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < min(1.0, 4.0 / n):
                times = tuple(sorted(rng.randrange(10_000) for _ in range(rng.randrange(1, 4))))
                edges[(names[i], names[j])] = times
    return make_cooccurrence(names, edges)


def checked_degrees(g) -> dict:
    """The oracle's degrees, after checking that orient_edges counts the same."""
    degrees = reference_degrees(g)
    assert _degrees(g).tolist() == [degrees[node] for node in g.nodes]
    return degrees


def test_star_degrees():
    g = undirected([("c", "l1"), ("c", "l2"), ("c", "l3")])
    degrees = checked_degrees(g)
    assert degrees["c"] == 3
    assert degrees["l1"] == degrees["l2"] == degrees["l3"] == 1


def test_empty_graph_degrees():
    g = make_cooccurrence((), {})
    assert checked_degrees(g) == {}


def test_triangle_degrees():
    g = undirected([("a", "b"), ("b", "c"), ("a", "c")])
    assert set(checked_degrees(g).values()) == {2}


def test_higher_degree_points_to_lower():
    g = undirected([("a", "b"), ("a", "c"), ("a", "d")])
    tie = orient_edges(g)
    assert ("a", "b") in tie.edges and ("b", "a") not in tie.edges


def test_equal_degree_gives_both_directions_with_full_payload():
    g = undirected([("a", "b")])
    tie = orient_edges(g)
    assert tie.edges[("a", "b")] == tie.edges[("b", "a")] == (100,)


def test_path_orientation_by_hand():
    # a-b-c: middle node has degree 2, endpoints 1, so only b->a and b->c.
    g = undirected([("a", "b"), ("b", "c")])
    tie = orient_edges(g)
    assert set(tie.edges) == {("b", "a"), ("b", "c")}
    assert len(tie.edges) == 2


def collapse(tie) -> dict:
    undirected_edges = {}
    for (src, dst), times in tie.edges.items():
        key = (src, dst) if src < dst else (dst, src)
        if key in undirected_edges:
            assert undirected_edges[key] == times
        else:
            undirected_edges[key] = times
    return undirected_edges


def test_rules_and_collapse_on_random_graphs():
    rng = random.Random(77)
    for _ in range(60):
        g = random_undirected(rng)
        tie = orient_edges(g)
        degrees = checked_degrees(g)
        equal_degree_edges = 0
        for (a, b), times in g.edges.items():
            forward = (a, b) in tie.edges
            backward = (b, a) in tie.edges
            if degrees[a] > degrees[b]:
                assert forward and not backward
            elif degrees[a] < degrees[b]:
                assert backward and not forward
            else:
                assert forward and backward
                equal_degree_edges += 1
        assert collapse(tie) == dict(g.edges)
        assert len(tie.edges) == len(g.edges) + equal_degree_edges
        assert list(tie.edges) == sorted(tie.edges)
        for (src, dst) in tie.edges:
            assert degrees[src] >= degrees[dst]
            assert src != dst


def test_json_round_trip(tmp_path):
    rng = random.Random(5)
    g = random_undirected(rng, max_nodes=30)
    tie = orient_edges(g)
    path = tmp_path / "tie.json"
    write_tie_graph_json(tie, path, params={"window": 120})
    loaded = read_tie_graph_json(path)
    assert loaded.nodes == tie.nodes
    assert dict(loaded.edges) == dict(tie.edges)


def test_old_format_with_degree_loads_to_same_arrays():
    golden = Path(__file__).parent / "golden"
    old = read_tie_graph_json(golden / "tie_graph_with_degree.json")
    new = read_tie_graph_json(golden / "chain" / "graph" / "tie_graph.json")
    assert old.nodes == new.nodes
    for name in ("src", "dst", "offsets", "times"):
        assert getattr(old, name).tolist() == getattr(new, name).tolist(), name


def test_end_time_is_latest_event(tmp_path):
    g = undirected([("a", "b")])
    g = make_cooccurrence(g.nodes, {("a", "b"): (100, 900)})
    tie = orient_edges(g)
    assert tie.end_time() == 900
