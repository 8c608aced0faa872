"""Smoke test of the benchmark on tiny inputs, one per workload.

    python3 -m pytest -q perfbench/smoke.py

It checks that every metric is emitted with its unit, that the traced run
writes spans whose self times add up to the pass, and that a corrupted
artifact counts as a failed operation.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_tieflow()

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPARSE = dict(n_students=300, n_communities=10, weeks=1, intra_rate=0.5, inter_rate=0.002, seed=0)
TINY = {
    "planted": {"kind": "chain", "config": dict(
        n_students=30, n_communities=3, weeks=2, intra_rate=3.0, inter_rate=0.2, seed=0)},
    "scale": {"kind": "chain", "config": SPARSE},
    "timeline": {"kind": "timeline", "config": SPARSE, "instants": 3},
}
CHAIN_METRICS = {"setup_s", "events_per_s", "graph_s", "analyze_s", "peak_rss_mb"}
CHAIN_LAYERS = {
    "events.parse_s", "events.filter_s", "events.write_s", "events.rows_in", "events.rows_dropped",
    "cooccur.build_s", "cooccur.write_s", "cooccur.pairs", "cooccur.matches",
    "orient.orient_s", "orient.edges", "orient.tied_pairs", "orient.json_write_s",
    "orient.json_read_s", "orient.json_reads", "orient.json_bytes", "orient.tsv_write_s",
    "tiedecay.snapshot_s", "tiedecay.snapshots", "tiedecay.snapshot_nnz", "tiedecay.curve_s",
    "tiedecay.curve_points", "tiedecay.tsv_write_s",
    "pagerank.solve_s", "pagerank.iterations", "pagerank.tsv_write_s",
    "ifs.detect_s", "ifs.detects", "ifs.rounds", "ifs.coverage", "ifs.sweep_s", "ifs.json_write_s",
    "metrics.partition_s", "metrics.behavior_s", "metrics.variance_s",
    "synth.generate_s", "synth.events", "synth.write_s",
    "cli.startup_s", "cli.unattributed_s", "trace.overhead_s",
}


def execute(name, tmp_path, trace, tamper=None):
    # Seed 1: no pinned digests, so outputs are checked against a library run.
    return run.execute(name, TINY[name], 1, 0.0, trace, tmp_path / name, tamper)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path, capsys):
    result = execute(name, tmp_path, trace)
    doc = run.report(result, BENCHMARK)
    printed = capsys.readouterr().out
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {key: m["unit"] for key, m in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], float) for m in doc["metrics"].values())
    named = CHAIN_METRICS | ({"instants_per_s"} if name == "timeline" else set())
    assert set(result["end_to_end"]) == named
    for key in named | {"error_rate"}:
        assert f"  {key} " in printed
    if trace:
        spans = run.read_spans(tmp_path / name / "spans.jsonl")
        assert all({"id", "name", "start", "end", "parent", "run"} <= set(s) for s in spans)
        if name != "timeline":
            assert CHAIN_LAYERS <= set(result["per_layer"])
        accounting = result["accounting"]
        assert accounting["traced_self_sum_s"] == pytest.approx(accounting["traced_wall_s"])


def test_corrupted_artifact_counts_as_failed(tmp_path):
    def corrupt(pass_dir):
        if pass_dir.name == "pass1":
            (pass_dir / "communities.json").write_text("{}\n", encoding="utf-8")

    result = execute("planted", tmp_path, False, corrupt)
    assert result["failed"] == 1
    assert result["failures"] == ["pass 1 detect: wrote communities.json unlike pass 0"]
    assert not run.report(result, BENCHMARK)["correct"]


def test_corrupted_tie_graph_counts_as_failed(tmp_path):
    def corrupt(data_dir):
        path = data_dir / "tie_graph.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["edges"] = doc["edges"][1:]
        path.write_text(json.dumps(doc), encoding="utf-8")

    result = execute("timeline", tmp_path, False, corrupt)
    assert result["failed"] >= 1
    assert result["failed"] / result["attempted"] > 0
