import math
import random

import numpy as np
import pytest

from tieflow.orient import orient_edges, read_tie_graph_json, write_tie_graph_json
from tieflow.tiedecay import (
    SNAPSHOT_FLOOR,
    DecayParams,
    decay_sums,
    sample_snapshots,
    snapshot_at,
    write_snapshot_tsv,
)

from oracles import (
    dense_weights,
    kernel_edge_weight,
    make_cooccurrence,
    masked_decay_sums,
    ode_edge_weight,
)


def toy_graph(edges: dict) -> "orient_edges":
    nodes = set()
    for a, b in edges:
        nodes.update((a, b))
    return orient_edges(make_cooccurrence(nodes, edges))


# ------------------------------------------------------------ weights


def test_half_life_definition():
    params = DecayParams.from_half_life(604_800)
    assert math.log(2.0) / params.alpha == pytest.approx(604_800, rel=1e-12)
    assert math.isclose(params.alpha, math.log(2) / 604_800, rel_tol=1e-12)
    # inf gives rate 0 and 1e-320 overflows it: each is named as a half-life
    for seconds in (0.0, -1.0, math.nan, math.inf, 1e-320):
        with pytest.raises(ValueError, match=f"half-life {seconds!r} gives no positive"):
            DecayParams.from_half_life(seconds)


def test_alpha_must_be_positive():
    with pytest.raises(ValueError):
        DecayParams(alpha=0.0)
    with pytest.raises(ValueError):
        DecayParams.from_half_life(-1)


def test_single_event_decays_to_half_at_half_life():
    params = DecayParams(alpha=0.01)
    tau, half_life = 1_000, math.log(2.0) / params.alpha
    assert kernel_edge_weight([tau], params, tau + half_life) == pytest.approx(0.5, abs=1e-12)


def test_weight_zero_before_any_event():
    params = DecayParams(alpha=0.1)
    assert kernel_edge_weight([100, 200], params, 50) == 0.0


def test_event_at_query_time_contributes_one():
    params = DecayParams(alpha=0.1)
    assert kernel_edge_weight([100], params, 100) == 1.0


def test_two_event_example_against_frozen_value():
    # events {0, 10}, alpha 0.1, t 20: e^-2 + e^-1
    params = DecayParams(alpha=0.1)
    expected = math.exp(-2.0) + math.exp(-1.0)
    value = kernel_edge_weight([0, 10], params, 20)
    assert value == pytest.approx(expected, rel=1e-15)
    assert value == pytest.approx(0.5032147244080551, rel=1e-12)
    assert value == pytest.approx(ode_edge_weight([0, 10], 0.1, 20), rel=1e-6)


def test_closed_form_matches_ode_oracle_on_random_edges():
    rng = random.Random(101)
    for _ in range(30):
        n_events = rng.randrange(1, 21)
        times = sorted(rng.randrange(0, 2_000) for _ in range(n_events))
        alpha = rng.choice([0.001, 0.01, 0.1])
        t = rng.randrange(0, 3_000)
        closed = kernel_edge_weight(times, DecayParams(alpha=alpha), t)
        reference = ode_edge_weight(times, alpha, t)
        if reference > 0:
            assert closed == pytest.approx(reference, rel=1e-6)
        else:
            assert closed == 0.0


def test_decay_semigroup_exactness():
    rng = random.Random(55)
    params = DecayParams(alpha=0.005)
    for _ in range(50):
        times = sorted(rng.randrange(0, 1_000) for _ in range(rng.randrange(1, 10)))
        t1 = 1_000 + rng.randrange(0, 500)
        gap = rng.randrange(1, 400)
        w1 = kernel_edge_weight(times, params, t1)
        w2 = kernel_edge_weight(times, params, t1 + gap)
        assert w2 == pytest.approx(w1 * math.exp(-params.alpha * gap), rel=1e-12)


def test_jump_property_adds_exactly_one():
    params = DecayParams(alpha=0.01)
    times = [100, 400]
    before = kernel_edge_weight(times, params, 399) * math.exp(-params.alpha * 1)
    at_event = kernel_edge_weight(times, params, 400)
    assert at_event - before == pytest.approx(1.0, abs=1e-12)


def test_extra_event_never_decreases_weight():
    rng = random.Random(8)
    params = DecayParams(alpha=0.02)
    for _ in range(50):
        times = sorted(rng.randrange(0, 500) for _ in range(5))
        extra = rng.randrange(0, 500)
        combined = sorted(times + [extra])
        for t in range(extra, 700, 37):
            assert kernel_edge_weight(combined, params, t) >= kernel_edge_weight(times, params, t)


# ------------------------------------------------------------ snapshots


def test_snapshot_before_events_is_empty():
    tie = toy_graph({("a", "b"): (1_000,)})
    snap = snapshot_at(tie, DecayParams(alpha=0.01), 500)
    assert snap.edge_count == 0
    assert set(snap.nodes) == {"a", "b"}


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_snapshot_at_a_non_finite_instant_is_rejected(t):
    tie = toy_graph({("a", "b"): (1_000,)})
    with pytest.raises(ValueError, match=f"snapshot time {t!r} is not a finite instant"):
        snapshot_at(tie, DecayParams(alpha=0.01), t)


def test_snapshot_at_single_event_weight_is_one():
    tie = toy_graph({("a", "b"): (1_000,)})
    snap = snapshot_at(tie, DecayParams(alpha=0.01), 1_000)
    assert list(snap.edges()) == [("a", "b", pytest.approx(1.0)), ("b", "a", pytest.approx(1.0))]


def test_three_edge_toy_scales_by_decay_factor():
    tie = toy_graph(
        {("a", "b"): (100,), ("a", "c"): (150, 180), ("b", "c"): (90,)}
    )
    params = DecayParams(alpha=0.003)
    t1, t2 = 200, 450  # no events inside (t1, t2]
    first = snapshot_at(tie, params, t1)
    second = snapshot_at(tie, params, t2)
    factor = math.exp(-params.alpha * (t2 - t1))
    assert second.src.tolist() == first.src.tolist() and second.dst.tolist() == first.dst.tolist()
    assert second.weights == pytest.approx(first.weights * factor, rel=1e-12)


def test_entries_in_csr_order_and_scipy_view_agree():
    tie = toy_graph(
        {("a", "b"): (100,), ("a", "c"): (150, 180), ("b", "c"): (90,), ("c", "d"): (120,)}
    )
    snap = snapshot_at(tie, DecayParams(alpha=0.003), 200)
    keys = list(zip(snap.src.tolist(), snap.dst.tolist()))
    assert keys == sorted(set(keys))
    dense = dense_weights(snap)
    assert (dense.sum(axis=1) == 0).any()  # a node with no out-edges
    assert np.allclose(snap.out_strength, dense.sum(axis=1), rtol=1e-15, atol=0)
    assert snap.matrix.nnz == snap.edge_count == len(keys)
    assert (snap.matrix.toarray() == dense).all()


def split_graph():
    """Edges whose time lists the instants between 50 and 400 split."""
    return toy_graph({("a", "b"): (100, 200, 300), ("a", "c"): (150, 250), ("b", "c"): (50, 400),
                      ("c", "d"): (300,), ("b", "d"): (60, 225, 226, 227)})


def test_snapshot_weights_are_the_masked_formula_bit_for_bit():
    rng = random.Random(5)
    names = [f"n{i:02d}" for i in range(30)]
    pairs = sorted({tuple(sorted(rng.sample(names, 2))) for _ in range(120)})

    def crowd(span: int):
        return toy_graph({pair: tuple(sorted(rng.randrange(0, span) for _ in range(rng.randrange(1, 12))))
                          for pair in pairs})

    # Equal times within one edge and across edges, which the time index may
    # hold in any order among themselves.
    ties = toy_graph({("a", "b"): (100, 100, 100, 250), ("a", "c"): (100, 175, 250, 250),
                      ("b", "c"): (175, 175), ("c", "d"): (250,)})
    params = DecayParams(alpha=0.003)
    # Before the first event (empty), on events (their jumps count), between
    # events, and after the last event.
    for tie, instants in ((split_graph(), (10, 49.5, 200, 225, 226.5, 400, 1_000.25)),
                          (crowd(10_000), (0, 2_500.5, 5_000, 9_999, 12_000)),
                          (ties, (50, 100, 137.5, 175, 250, 400)),
                          (crowd(40), (-1, 0, 17, 17.5, 39, 100))):
        for t in instants:
            reference = masked_decay_sums(tie.times, tie.edge_of, len(tie.src), params.alpha, t)
            assert decay_sums(*tie.by_time, len(tie.src), params.alpha, t).tobytes() \
                == reference.tobytes()
            snap, kept = snapshot_at(tie, params, t), reference > SNAPSHOT_FLOOR
            assert snap.weights.tobytes() == reference[kept].tobytes()
            assert snap.src.tolist() == tie.src[kept].tolist()
            assert snap.dst.tolist() == tie.dst[kept].tolist()
    assert snapshot_at(split_graph(), params, 10).edge_count == 0


def test_edge_of_is_built_once_per_graph(tmp_path):
    tie = split_graph()
    path = tmp_path / "tie_graph.json"
    write_tie_graph_json(tie, path)
    for graph in (tie, read_tie_graph_json(path)):
        expected = np.repeat(np.arange(len(graph.src)), np.diff(graph.offsets))
        assert graph.edge_of.tolist() == expected.tolist()
        assert graph.edge_of is graph.edge_of
        times, edges = graph.by_time
        assert graph.by_time is graph.by_time
        assert times.tolist() == sorted(graph.times.tolist())
        assert sorted(zip(times.tolist(), edges.tolist())) \
            == sorted(zip(graph.times.tolist(), expected.tolist()))
        # Both snapshot paths read the kept index: one that sends every event
        # to edge 0 leaves that edge alone with a weight.
        graph.__dict__["by_time"] = (times, np.zeros_like(edges))
        params = DecayParams(alpha=0.003)
        for snap in (snapshot_at(graph, params, 1_000),
                     list(sample_snapshots(graph, params, 0, 1_000, 3))[-1]):
            assert (snap.src.tolist(), snap.dst.tolist()) == ([graph.src[0]], [graph.dst[0]])
            assert snap.weights[0] == pytest.approx(np.exp(-0.003 * (1_000 - times)).sum())


def test_snapshot_of_every_edge_holds_the_graphs_endpoints_read_only():
    tie = split_graph()
    src, dst = tie.src.copy(), tie.dst.copy()
    params = DecayParams(alpha=0.003)
    for snap in (snapshot_at(tie, params, 1_000), list(sample_snapshots(tie, params, 500, 1_000, 3))[-1]):
        assert snap.edge_count == len(tie.src)
        assert np.shares_memory(snap.src, tie.src) and np.shares_memory(snap.dst, tie.dst)
        for column in (snap.src, snap.dst):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]
    assert tie.src.flags.writeable and tie.dst.flags.writeable
    assert tie.src.tolist() == src.tolist() and tie.dst.tolist() == dst.tolist()
    # c -> d has no event by t = 250: a snapshot that drops an edge gathers copies.
    partial = snapshot_at(tie, params, 250)
    assert partial.edge_count == len(tie.src) - 1
    assert not np.shares_memory(partial.src, tie.src) and partial.src.flags.writeable


def test_snapshot_drops_weights_at_floor():
    params = DecayParams(alpha=1.0)
    tie = toy_graph({("a", "b"): (0,)})
    # after 40 half-lives the weight sits far below the floor
    far = 40.0 * math.log(2.0) / params.alpha + 1
    snap = snapshot_at(tie, params, far)
    assert snap.edge_count == 0
    assert math.exp(-params.alpha * far) < SNAPSHOT_FLOOR


def test_sample_endpoints_and_spacing():
    tie = toy_graph({("a", "b"): (100,)})
    params = DecayParams(alpha=0.01)
    snaps = list(sample_snapshots(tie, params, 0, 1_000, 2))
    assert [s.time for s in snaps] == [0, 1_000]
    five = list(sample_snapshots(tie, params, 0, 1_000, 5))
    assert [s.time for s in five] == pytest.approx([0, 250, 500, 750, 1_000])


def test_sample_count_1000():
    tie = toy_graph({("a", "b"): (100,)})
    snaps = sample_snapshots(tie, DecayParams(alpha=0.01), 0, 10_000, 1000)
    assert sum(1 for _ in snaps) == 1000


def test_sample_rejects_degenerate_grid():
    tie = toy_graph({("a", "b"): (100,)})
    with pytest.raises(ValueError):
        list(sample_snapshots(tie, DecayParams(alpha=0.01), 0, 100, 1))
    with pytest.raises(ValueError):
        list(sample_snapshots(tie, DecayParams(alpha=0.01), 100, 100, 5))


@pytest.mark.parametrize("bounds", [(0, math.inf), (-math.inf, 100), (math.nan, 100), (0, math.nan)],
                         ids=["inf-end", "-inf-start", "nan-start", "nan-end"])
def test_sample_rejects_non_finite_bounds(bounds):
    tie = toy_graph({("a", "b"): (100,)})
    with pytest.raises(ValueError, match="must be finite instants"):
        next(sample_snapshots(tie, DecayParams(alpha=0.01), *bounds, 5))


def test_incremental_sampling_matches_direct_evaluation():
    rng = random.Random(17)
    edges = {}
    names = [f"n{i}" for i in range(8)]
    for i in range(8):
        for j in range(i + 1, 8):
            if rng.random() < 0.5:
                a, b = sorted((names[i], names[j]))
                edges[(a, b)] = tuple(sorted(rng.randrange(0, 5_000) for _ in range(rng.randrange(1, 6))))
    tie = toy_graph(edges)
    params = DecayParams(alpha=0.0004)
    # The first point takes the same impulse step as every later one, and
    # sums each edge's impulses in the order snapshot_at does.
    first = next(sample_snapshots(tie, params, 2_500, 6_000, 23))
    assert first.weights.tobytes() == snapshot_at(tie, params, 2_500).weights.tobytes()
    for snap in sample_snapshots(tie, params, 0, 6_000, 23):
        direct = snapshot_at(tie, params, snap.time)
        sampled = {(s, d): w for s, d, w in snap.edges()}
        exact = {(s, d): w for s, d, w in direct.edges()}
        assert set(sampled) == set(exact)
        for key, w in exact.items():
            assert sampled[key] == pytest.approx(w, rel=1e-9)
            assert sampled[key] == pytest.approx(
                ode_edge_weight(tie.edges[key], params.alpha, snap.time), rel=1e-6)


def test_curve_with_fractional_spacing_includes_an_event_on_a_point():
    tie = toy_graph({("a", "b"): (1, 5, 9), ("a", "c"): (3, 5), ("b", "c"): (7, 12)})
    params = DecayParams(alpha=0.1)
    snaps = list(sample_snapshots(tie, params, 0.5, 11, 8))  # spacing 1.5
    assert [s.time for s in snaps] == [0.5, 2.0, 3.5, 5.0, 6.5, 8.0, 9.5, 11]
    on = {(s, d): w for s, d, w in snaps[3].edges()}  # t = 5.0, an event time of a-b and a-c
    assert on[("a", "b")] == pytest.approx(1.0 + math.exp(-0.4), rel=1e-9)
    assert on[("a", "c")] == pytest.approx(1.0 + math.exp(-0.2), rel=1e-9)
    for snap in snaps:
        direct = snapshot_at(tie, params, snap.time)
        assert snap.src.tolist() == direct.src.tolist() and snap.dst.tolist() == direct.dst.tolist()
        assert snap.weights == pytest.approx(direct.weights, rel=1e-9)


def test_snapshot_tsv_format(tmp_path):
    tie = toy_graph({("a", "b"): (100,)})
    params = DecayParams(alpha=0.01)
    snap = snapshot_at(tie, params, 150)
    path = tmp_path / "snap.tsv"
    write_snapshot_tsv(snap, params, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# t = 150"
    assert lines[1] == "# alpha = 0.01"
    body = [line for line in lines if not line.startswith("#")]
    assert all(len(line.split("\t")) == 3 for line in body)
    # 12 significant digits round-trip through float exactly enough
    for line in body:
        src, dst, w = line.split("\t")
        assert float(w) == pytest.approx(kernel_edge_weight([100], params, 150), rel=1e-11)
