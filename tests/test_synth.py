import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from tieflow.cooccur import build_cooccurrence_graph
from tieflow.events import TimeRange, write_events_csv
from tieflow.ifs import FlowParams, detect_communities
from tieflow.orient import orient_edges
from tieflow.pagerank import pagerank
from tieflow.synth import (
    _MIXED,
    MAX_COVISITS,
    MAX_IDS,
    SyntheticConfig,
    _place_covisit_times,
    default_category_map,
    generate,
    nmi,
)
from tieflow.tiedecay import DecayParams, snapshot_at

from oracles import contingency_nmi, reference_placement

WEEK = 7 * 86400


def csv_bytes(log, tmp_path, name="events.csv") -> bytes:
    """The bytes write_events_csv writes for log."""
    path = tmp_path / name
    write_events_csv(log, path)
    return path.read_bytes()


def config(**overrides) -> SyntheticConfig:
    defaults = dict(
        n_students=40,
        n_communities=4,
        semester=TimeRange(0, 8 * WEEK),
        intra_rate=2.0,
        inter_rate=0.0,
        jitter=60,
        seed=11,
        locations_per_category={"dining": 3, "bath": 1, "shop": 1},
    )
    defaults.update(overrides)
    return SyntheticConfig(**defaults)


def test_inter_rate_zero_has_no_cross_edges():
    log, truth = generate(config())
    graph = build_cooccurrence_graph(log, window=120)
    for a, b in graph.edges:
        assert truth[a] == truth[b]


def test_fixed_seed_is_byte_identical(tmp_path):
    first_log, first_truth = generate(config())
    second_log, second_truth = generate(config())
    assert csv_bytes(first_log, tmp_path, "a.csv") == csv_bytes(second_log, tmp_path, "b.csv")
    assert first_truth == second_truth


def test_planted_events_csv_digest_is_pinned(planted_pipeline, tmp_path):
    # The full-size planted configuration of conftest.py, as `synth` writes it.
    written = csv_bytes(planted_pipeline["log"], tmp_path)
    assert hashlib.sha256(written).hexdigest() == (
        "55d409ed6374456e36d9525f29f873fd556b7dfb2bb2df3e304be5069d5687bf")


class CountingRng:
    """Draws integers from a seeded generator and counts the values drawn
    and the calls that drew them."""

    def __init__(self, seed: int):
        self.generator = np.random.default_rng(seed)
        self.draws = 0
        self.calls = 0

    def integers(self, low, high, size=None):
        self.draws += 1 if size is None else size
        self.calls += 1
        return self.generator.integers(low, high, size=size)


# case -> (co-visits, locations, tags drawn from, end of the draw range,
# separation, whether some draw must be retried, whether the retries run out)
PLACEMENTS = {
    "same-community-loose": (300, 4, [0, 1, 2], 10**6, 100, False, False),
    "mixed-loose": (300, 4, [_MIXED, 0, 1], 10**6, 100, False, False),
    "mixed-tight": (200, 2, [_MIXED, 0, 1, 2], 10_000, 25, True, False),
    "same-community-tight": (400, 1, [0, 1], 3_000, 10, True, False),
    # Enough co-visits that candidate blocks run out and refill many times.
    "many-tight": (2_000, 3, [_MIXED, 0, 1, 2], 100_000, 20, True, False),
    "retries-run-out": (5, 1, [_MIXED], 100, 1_000, True, True),
    # The second co-visit fails with more co-visits left than retries, so
    # its retries, not the co-visits, bound the last block.
    "retries-run-out-early": (150, 1, [_MIXED], 100, 1_000, True, True),
}


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("case", sorted(PLACEMENTS))
def test_placement_matches_tuple_scan_reference(case, seed):
    n, n_locations, tag_values, end, separation, retried, runs_out = PLACEMENTS[case]
    inputs = np.random.default_rng(100 + seed)
    location_ids = inputs.integers(0, n_locations, size=n)
    tags = inputs.choice(tag_values, size=n)
    outcomes = []
    for place in (_place_covisit_times, reference_placement):
        rng = CountingRng(seed)
        try:
            result = place(rng, location_ids, tags, 0, end, separation).tolist()
        except ValueError as exc:
            result = str(exc)
        outcomes.append((result, rng.draws, rng.generator.bit_generator.state))
    assert outcomes[0] == outcomes[1]
    result, draws, _ = outcomes[0]
    assert isinstance(result, str) == runs_out
    assert draws > n or not retried


def test_loose_placement_draws_candidate_times_in_blocks():
    n, n_locations, tag_values, end, separation, _, _ = PLACEMENTS["mixed-loose"]
    inputs = np.random.default_rng(100)
    rng = CountingRng(0)
    _place_covisit_times(rng, inputs.integers(0, n_locations, size=n),
                         inputs.choice(tag_values, size=n), 0, end, separation)
    assert rng.draws >= n > 20 * rng.calls


def test_different_seeds_differ(tmp_path):
    first, _ = generate(config())
    second, _ = generate(config(seed=12))
    assert csv_bytes(first, tmp_path, "a.csv") != csv_bytes(second, tmp_path, "b.csv")


def test_ground_truth_covers_all_students_with_balanced_blocks():
    _, truth = generate(config(n_students=42, n_communities=4))
    sizes = sorted(
        sum(1 for c in truth.values() if c == k) for k in range(4)
    )
    assert sum(sizes) == 42
    assert sizes[-1] - sizes[0] <= 1


def test_jitter_bounded_pairing():
    log, _ = generate(config(jitter=30))
    graph = build_cooccurrence_graph(log, window=120)
    assert graph.edges  # planted pairs must be detectable


def test_pair_counts_concentrate_around_rate_times_weeks():
    cfg = config(n_students=30, n_communities=3, intra_rate=4.0, semester=TimeRange(0, 10 * WEEK))
    log, truth = generate(cfg)
    graph = build_cooccurrence_graph(log, window=120)
    # Expected co-visits per same-community pair: 4 per week for 10 weeks.
    members: dict = {}
    for student, community in truth.items():
        members.setdefault(community, []).append(student)
    counts = []
    for community_nodes in members.values():
        for i in range(len(community_nodes)):
            for j in range(i + 1, len(community_nodes)):
                counts.append(len(graph.edges.get(tuple(sorted((community_nodes[i], community_nodes[j]))), ())))
    mean = float(np.mean(counts))
    # Poisson(40) per pair, 135 pairs: the mean is within a few percent.
    assert mean == pytest.approx(40.0, rel=0.08)


def test_infeasible_configs_rejected():
    with pytest.raises(ValueError):
        generate(config(n_students=0))
    with pytest.raises(ValueError):
        generate(config(locations_per_category={"dining": 0}))
    with pytest.raises(ValueError):
        generate(config(intra_rate=0.5, inter_rate=0.5))
    with pytest.raises(ValueError):
        generate(config(n_communities=0))


def test_covisit_budget_is_checked_before_any_per_student_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="co-visits, more than the 6000000 allowed"):
            generate(config(n_students=3_000_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**22


def test_id_counts_are_bounded_before_any_per_id_allocation():
    # Each asks for few co-visits but would build gigabytes of ids.
    week = TimeRange(0, WEEK)
    for overrides, asked in [
        (dict(n_students=10**8, intra_rate=1e-9, semester=week), "100000000 students"),
        (dict(locations_per_category={"dining": 10**9}), "1000000000 locations"),
    ]:
        cfg = config(**overrides)
        assert sum(cfg.covisit_means()) <= MAX_COVISITS
        with pytest.raises(ValueError, match=f"^the configuration asks for {asked}, "
                                             f"more than the 1000000 allowed$"):
            cfg.validate()
    config(n_students=MAX_IDS, intra_rate=1e-9, semester=week,
           locations_per_category={"dining": MAX_IDS}).validate()


def test_rare_same_community_pairs_are_rejected_before_any_draw():
    # 400 students in 399 communities: one same-community pair in 79,800.
    # Drawing its ~16 co-visits pair by pair took seconds; the estimate
    # (1 + ln 16) / (2 / 400**2) is about 302,000 rounds.
    with pytest.raises(ValueError, match=r"^same-community pairs are too rare: .* probability "
                                         r"1\.25e-05, .* about 3\.02e\+05 rounds, more than the "
                                         r"10000 allowed$"):
        config(n_students=400, n_communities=399).validate()
    # Criterion 10's scale configuration expects about 670 rounds.
    config(n_students=5000, n_communities=50, semester=TimeRange(0, 12 * WEEK),
           intra_rate=0.075, inter_rate=0.0002).validate()


def test_events_are_spend_and_inside_semester():
    cfg = config()
    log, _ = generate(cfg)
    assert log.spend.all()
    assert ((cfg.semester.start <= log.time) & (log.time < cfg.semester.end)).all()
    assert (log.amount >= 0).all()


def test_amount_means_differ_by_community():
    cfg = config(n_students=60, n_communities=2, intra_rate=3.0)
    log, truth = generate(cfg)
    totals: dict = {0: [], 1: []}
    for student, amount in zip(log.student.tolist(), log.amount.tolist()):
        totals[truth[log.students[student]]].append(amount)
    assert abs(np.mean(totals[0]) - np.mean(totals[1])) > cfg.amount_step / 2


def test_category_map_covers_generated_locations():
    cfg = config()
    log, _ = generate(cfg)
    mapping = default_category_map(cfg)
    assert set(log.locations) <= set(mapping)
    assert set(mapping.values()) <= {"dining", "bath", "shop", "other"}


def test_pipeline_on_disjoint_communities_never_cross_labels():
    cfg = config(n_students=36, n_communities=3, intra_rate=3.0, seed=5)
    log, truth = generate(cfg)
    graph = orient_edges(build_cooccurrence_graph(log, window=120))
    snap = snapshot_at(graph, DecayParams.from_half_life(7 * 86400), cfg.semester.end)
    pr = pagerank(snap)
    assignment = detect_communities(snap, pr, 0.25, FlowParams(seed=1))
    # every community holds at least one origin here; labels must stay inside
    for node, label in assignment.labels.items():
        assert truth[node] == truth[assignment.origin_of[label]]


# ------------------------------------------------------------------ NMI


def test_nmi_identical_partitions():
    labels = {f"s{i}": i % 3 for i in range(12)}
    assert nmi(labels, dict(labels)) == pytest.approx(1.0, abs=1e-12)
    relabeled = {node: (label + 5) * 2 for node, label in labels.items()}
    assert nmi(labels, relabeled) == pytest.approx(1.0, abs=1e-12)


def test_nmi_against_single_block_is_zero():
    labels = {f"s{i}": i % 3 for i in range(12)}
    block = {f"s{i}": 0 for i in range(12)}
    assert nmi(labels, block) == 0.0


def test_nmi_six_node_contingency_case():
    truth = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "f": 1}
    detected = {"a": 0, "b": 0, "c": 1, "d": 1, "e": 2, "f": 2}
    expected = contingency_nmi(truth, detected)
    # direct formula evaluation: I = H(truth) + H(detected) - H(joint);
    # joint cells are {a,b}=2, {c}=1, {d}=1, {e,f}=2 out of 6
    h_truth = math.log(2)
    h_detected = -3 * (1 / 3) * math.log(1 / 3)
    h_joint = -(2 * (2 / 6) * math.log(2 / 6) + 2 * (1 / 6) * math.log(1 / 6))
    info = h_truth + h_detected - h_joint
    assert expected == pytest.approx(info / ((h_truth + h_detected) / 2), rel=1e-12)
    assert nmi(truth, detected) == pytest.approx(expected, rel=1e-12)


def test_nmi_excludes_unlabeled_nodes_pairwise():
    a = {"x": 0, "y": 0, "z": 1, "w": 1}
    b = {"x": 5, "y": 5, "z": 6, "w": 6, "extra": 9}
    assert nmi(a, b) == pytest.approx(1.0, abs=1e-12)


def test_nmi_both_trivial_is_one_and_disjoint_rejected():
    assert nmi({"a": 0, "b": 0}, {"a": 3, "b": 3}) == 1.0
    with pytest.raises(ValueError):
        nmi({"a": 0}, {"b": 0})


def test_nmi_matches_oracle_on_random_labelings():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(4, 40))
        a = {f"s{i}": int(rng.integers(0, 4)) for i in range(n)}
        b = {f"s{i}": int(rng.integers(0, 3)) for i in range(n)}
        assert nmi(a, b) == pytest.approx(
            min(1.0, max(0.0, contingency_nmi(a, b))), abs=1e-12
        )
