import math
import random

import numpy as np
import pytest

from tieflow.orient import orient_edges
from tieflow.tiedecay import (
    SNAPSHOT_FLOOR,
    DecayParams,
    sample_snapshots,
    snapshot_at,
    write_snapshot_tsv,
)

from oracles import dense_weights, kernel_edge_weight, make_cooccurrence, ode_edge_weight


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
