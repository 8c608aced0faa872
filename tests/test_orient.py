import json
import random
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import tieflow.orient
from tieflow.artifacts import DataError, write_columns
from tieflow.cooccur import TimedEdges
from tieflow.orient import _degrees, orient_edges, read_tie_graph_json, write_tie_graph_json

from oracles import make_cooccurrence, reference_degrees


def undirected(edge_list) -> TimedEdges:
    nodes = set()
    edges = {}
    for a, b in edge_list:
        nodes.update((a, b))
        key = (a, b) if a < b else (b, a)
        edges[key] = (100,)
    return make_cooccurrence(nodes, edges)


def random_undirected(rng, max_nodes=200) -> TimedEdges:
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


COLUMNS = ("src", "dst", "offsets", "times")


def rewrite(path, edit) -> None:
    """Apply edit to the JSON document at path."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def shuffled(rng, n) -> list:
    """A random permutation of range(n) other than the identity (n >= 2)."""
    assert n >= 2
    order = list(range(n))
    while order == sorted(order):
        rng.shuffle(order)
    return order


def permute_nodes(order):
    """Edit listing node order[k] k-th, each edge kept on the same node ids."""
    def edit(doc):
        position = {old: new for new, old in enumerate(order)}
        doc["nodes"] = [doc["nodes"][old] for old in order]
        doc["edges"] = [position[i] for i in doc["edges"]]
    return edit


def permute_edges(order):
    """Edit listing edge order[k] k-th, each with its own times."""
    def edit(doc):
        ends, offsets, times = doc["edges"], doc["offsets"], doc["times"]
        doc["edges"] = [i for e in order for i in ends[2 * e:2 * e + 2]]
        doc["times"] = [tau for e in order for tau in times[offsets[e]:offsets[e + 1]]]
        doc["offsets"] = [0]
        for e in order:
            doc["offsets"].append(doc["offsets"][-1] + offsets[e + 1] - offsets[e])
    return edit


def test_json_round_trip(tmp_path):
    rng = random.Random(5)
    path = tmp_path / "tie.json"
    for _ in range(20):
        tie = orient_edges(random_undirected(rng, max_nodes=30))
        write_tie_graph_json(tie, path, params={"window": 120})
        loaded = read_tie_graph_json(path)
        assert loaded.nodes == tie.nodes
        for name in COLUMNS:
            got, want = getattr(loaded, name), getattr(tie, name)
            assert got.dtype == np.int64 and got.tolist() == want.tolist(), name
        assert dict(loaded.edges) == dict(tie.edges)


def test_any_reordering_of_a_written_file_is_rejected(tmp_path):
    rng = random.Random(8)
    path = tmp_path / "tie.json"
    for _ in range(40):
        tie = orient_edges(random_undirected(rng, max_nodes=30))
        order = shuffled(rng, len(tie.nodes))
        write_tie_graph_json(tie, path)
        rewrite(path, permute_nodes(order))
        late = next(tie.nodes[b] for a, b in zip(order, order[1:]) if a > b)
        with pytest.raises(DataError, match=re.escape(f"node {late!r} is out of order")):
            read_tie_graph_json(path)

        order = shuffled(rng, len(tie.src))
        write_tie_graph_json(tie, path)
        rewrite(path, permute_edges(order))
        key = (tie.src * len(tie.nodes) + tie.dst)[order]
        e = order[next(k for k in range(1, len(order)) if key[k] < key[k - 1])]
        s, d = tie.nodes[tie.src[e]], tie.nodes[tie.dst[e]]
        with pytest.raises(DataError, match=re.escape(f"edge {s!r} -> {d!r} is out of (src, dst)")):
            read_tie_graph_json(path)


def test_file_in_other_node_order_is_rejected(tmp_path):
    tie = orient_edges(random_undirected(random.Random(6), max_nodes=30))
    path = tmp_path / "tie.json"
    write_tie_graph_json(tie, path)
    rewrite(path, permute_nodes(shuffled(random.Random(7), len(tie.nodes))))
    with pytest.raises(DataError, match="is out of order; 'nodes' must ascend"):
        read_tie_graph_json(path)


def test_old_layout_with_degree_is_rejected():
    path = Path(__file__).parent / "golden" / "tie_graph_with_degree.json"
    with pytest.raises(DataError, match="missing field 'offsets'"):
        read_tie_graph_json(path)


def test_end_time_is_latest_event(tmp_path):
    g = undirected([("a", "b")])
    g = make_cooccurrence(g.nodes, {("a", "b"): (100, 900)})
    tie = orient_edges(g)
    assert tie.end_time() == 900


# ------------------------------------------------------- the column companion


def no_json(path, what):
    raise AssertionError("the JSON was read")


def from_columns(path) -> TimedEdges:
    """The graph read from the column companion of path, the JSON unread."""
    with mock.patch.object(tieflow.orient, "read_json", no_json):
        return read_tie_graph_json(path)


def from_json(path) -> TimedEdges:
    """The graph read from the JSON at path, its companion set aside."""
    companion = Path(f"{path}.columns")
    data = companion.read_bytes()
    companion.unlink()
    try:
        return read_tie_graph_json(path)
    finally:
        companion.write_bytes(data)


def test_both_reads_give_equal_aligned_contiguous_columns(tmp_path):
    rng = random.Random(9)
    odd_ids = make_cooccurrence(["a b", "ü", "😀", "x\x1cy", '"q"'], {
        ("a b", "ü"): (5, 7), ("ü", "😀"): (3,), ('"q"', "x\x1cy"): (1, 1, 9)})
    path = tmp_path / "tie.json"
    for tie in [orient_edges(odd_ids)] + [orient_edges(random_undirected(rng, max_nodes=60))
                                          for _ in range(10)]:
        write_tie_graph_json(tie, path)
        columns, plain = from_columns(path), from_json(path)
        assert columns.nodes == plain.nodes == tie.nodes
        for name in COLUMNS:
            got, want = getattr(columns, name), getattr(plain, name)
            assert got.dtype == want.dtype == np.int64, name
            assert got.tobytes() == want.tobytes() == getattr(tie, name).tobytes(), name
            for array in (got, want):
                assert array.flags.aligned and array.flags.c_contiguous, name
            assert not got.flags.writeable, name  # a view of the companion's bytes


def forge(path, g: TimedEdges, nodes=None, **columns) -> None:
    """Write a companion of path that holds g's columns with the given ones in
    their place, under digests that match: only the reader's checks can tell."""
    columns = {name: getattr(g, name) for name in COLUMNS} | columns
    text = np.frombuffer(json.dumps(list(g.nodes if nodes is None else nodes)).encode(), np.uint8)
    write_columns(path, "json", tieflow.orient._LAYOUT, [*columns.values(), text],
                  edges=len(columns["src"]), times=len(columns["times"]), node_bytes=len(text))


FORGED = {
    "nodes out of order": lambda g: {"nodes": g.nodes[::-1]},
    "nodes not a list": lambda g: {"nodes": {"a": 1}},
    "edge to a missing node": lambda g: {"dst": g.dst + len(g.nodes)},
    "edges out of order": lambda g: {"src": g.src[::-1].copy(), "dst": g.dst[::-1].copy()},
    "time before 1970": lambda g: {"times": g.times - 10**9},
    "no edges": lambda g: {"src": g.src[:0], "dst": g.dst[:0], "offsets": g.offsets[:1] * 0,
                           "times": g.times[:0]},
}


@pytest.mark.parametrize("case", ["the graph itself", *sorted(FORGED)])
def test_a_companion_that_fails_the_checks_falls_back_to_the_json(tmp_path, case):
    tie = orient_edges(random_undirected(random.Random(11), max_nodes=30))
    path = tmp_path / "tie.json"
    write_tie_graph_json(tie, path)
    forge(path, tie, **FORGED.get(case, lambda g: {})(tie))
    if case == "the graph itself":  # the checks alone send the others to the JSON
        assert from_columns(path).times.tolist() == tie.times.tolist()
        return
    with pytest.raises(AssertionError, match="the JSON was read"):
        from_columns(path)
    loaded = read_tie_graph_json(path)
    assert loaded.nodes == tie.nodes
    assert all(getattr(loaded, name).tolist() == getattr(tie, name).tolist() for name in COLUMNS)
