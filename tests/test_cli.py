import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tieflow import cooccur
from tieflow.artifacts import write_lines
from tieflow.cli import main

EVENTS = (
    "student_id,timestamp,location_id,kind,amount\n"
    "s1,1000,caf,spend,4.0\n"
    "s2,1060,caf,spend,5.0\n"
    "s1,2000,caf,spend,4.0\n"
    "s3,2030,caf,spend,2.0\n"
    "s2,5000,shop,spend,9.0\n"
    "s3,5050,shop,spend,1.0\n"
    "s1,6000,shop,recharge,50.0\n"
)


@pytest.fixture
def events_csv(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text(EVENTS, encoding="utf-8")
    return path


@pytest.fixture
def built(tmp_path, events_csv):
    canonical = tmp_path / "events.csv"
    assert main(["ingest", "--input", str(events_csv), "--output", str(canonical)]) == 0
    out_dir = tmp_path / "build"
    assert main(["build", "--events", str(canonical), "--output-dir", str(out_dir)]) == 0
    return out_dir / "tie_graph.json"


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_no_subcommand_prints_help(capsys):
    assert main([]) == 1
    assert "tieflow" in capsys.readouterr().out


def test_help_lists_defaults(capsys):
    with pytest.raises(SystemExit):
        main_args = ["detect", "--help"]
        from tieflow.cli import build_parser

        build_parser().parse_args(main_args)
    help_text = capsys.readouterr().out
    assert "default 0.20" in help_text
    assert "default 0.25" in help_text
    assert "default 0.85" in help_text
    assert "604800" in help_text


def test_parser_defaults_are_the_params_defaults():
    from tieflow.cli import build_parser
    from tieflow.ifs import FlowParams
    from tieflow.pagerank import WalkParams

    for command in ("pagerank", "detect", "sweep"):
        args = build_parser().parse_args([command, "--graph", "g", "--output", "o"])
        assert WalkParams(args.damping, args.tolerance, args.max_iterations) == WalkParams()
        if command != "pagerank":
            assert FlowParams(args.beta, args.seed, args.max_rounds) == FlowParams()
    args = build_parser().parse_args(["build", "--events", "e", "--output-dir", "d"])
    assert args.window == cooccur.DEFAULT_WINDOW


def test_ingest_drops_recharge_and_writes_meta(tmp_path, events_csv):
    out = tmp_path / "events.csv"
    assert main(["ingest", "--input", str(events_csv), "--output", str(out)]) == 0
    body = out.read_text()
    assert "recharge" not in body
    meta = json.loads((tmp_path / "events.csv.meta.json").read_text())
    assert meta["records_in"] == 7
    assert meta["records_out"] == 6


def test_ingest_missing_input_is_data_error(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["ingest", "--input", str(tmp_path / "nope.csv"), "--output", str(out)]) == 2
    assert "not found" in capsys.readouterr().err


def test_ingest_malformed_row_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("student_id,timestamp,location_id,kind,amount\ns1,xxx,caf,spend,1\n")
    assert main(["ingest", "--input", str(bad), "--output", str(tmp_path / "o.csv")]) == 2
    assert "line 2" in capsys.readouterr().err


def test_ingest_keep_locations(tmp_path, events_csv):
    out = tmp_path / "events.csv"
    assert main(
        ["ingest", "--input", str(events_csv), "--output", str(out), "--keep-locations", "caf"]
    ) == 0
    assert "shop" not in out.read_text()


def test_ingest_keep_locations_strips_entries(tmp_path, events_csv):
    out = tmp_path / "events.csv"
    assert main(["ingest", "--input", str(events_csv), "--output", str(out),
                 "--keep-locations", "caf, shop "]) == 0
    meta = json.loads((tmp_path / "events.csv.meta.json").read_text())
    assert meta["keep_locations"] == ["caf", "shop"]
    assert meta["records_out"] == 6


def test_build_writes_three_artifacts(tmp_path, built):
    out_dir = built.parent
    assert (out_dir / "cooccurrence.tsv").exists()
    assert (out_dir / "directed_edges.tsv").exists()
    doc = json.loads(built.read_text())
    assert doc["params"]["window"] == 120
    assert doc["edges"]


@pytest.mark.parametrize("count", [0, 1, 4096, 4097, 8193])
def test_table_rows_written_in_blocks_are_each_one_line(tmp_path, count):
    path = tmp_path / "table.tsv"
    write_lines(path, ["a = 1", "b = 2"], (f"r{k}\t{k / 7}" for k in range(count)))
    assert path.read_bytes() == "".join(
        ["# a = 1\n", "# b = 2\n", *(f"r{k}\t{k / 7}\n" for k in range(count))]).encode()


def test_build_rejects_bad_window(tmp_path, events_csv):
    assert main(
        ["build", "--events", str(events_csv), "--output-dir", str(tmp_path), "--window", "0"]
    ) == 1


def test_snapshot_embeds_params(tmp_path, built):
    out = tmp_path / "snap.tsv"
    assert main(["snapshot", "--graph", str(built), "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# t = ")
    assert lines[1].startswith("# alpha = ")


def test_snapshot_rejects_both_decay_flags(tmp_path, built):
    assert main(
        ["snapshot", "--graph", str(built), "--output", str(tmp_path / "s.tsv"),
         "--alpha", "0.1", "--half-life", "100"]
    ) == 1


def test_snapshot_missing_graph_is_data_error(tmp_path):
    assert main(
        ["snapshot", "--graph", str(tmp_path / "no.json"), "--output", str(tmp_path / "s.tsv")]
    ) == 2


def test_pagerank_writes_ranked_scores(tmp_path, built):
    out = tmp_path / "scores.tsv"
    assert main(["pagerank", "--graph", str(built), "--output", str(out)]) == 0
    body = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert len(body) == 3
    ranks = [int(line.split("\t")[2]) for line in body]
    assert ranks == [1, 2, 3]


def test_pagerank_nonconvergence_exit_code(tmp_path, built):
    out = tmp_path / "scores.tsv"
    code = main(
        ["pagerank", "--graph", str(built), "--output", str(out),
         "--max-iterations", "1", "--tolerance", "1e-30"]
    )
    assert code == 3
    assert out.exists()  # flagged, not fatal


def test_detect_happy_path_and_reproducibility(tmp_path, built):
    first = tmp_path / "communities_a.json"
    second = tmp_path / "communities_b.json"
    argv = ["detect", "--graph", str(built), "--epsilon", "0.5", "--seed", "7"]
    assert main(argv + ["--output", str(first)]) == 0
    assert main(argv + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert set(doc) >= {"time", "epsilon", "beta", "seed", "communities", "isolated"}
    assert doc["epsilon"] == 0.5
    for community in doc["communities"]:
        assert community["origin"] in community["members"]


def test_detect_epsilon_zero_is_usage_error(tmp_path, built, capsys):
    assert main(
        ["detect", "--graph", str(built), "--epsilon", "0", "--output", str(tmp_path / "c.json")]
    ) == 1
    assert "epsilon" in capsys.readouterr().err


def test_evaluate_reports_modularity(tmp_path, built):
    communities = tmp_path / "communities.json"
    assert main(
        ["detect", "--graph", str(built), "--epsilon", "0.5", "--seed", "7",
         "--output", str(communities)]
    ) == 0
    report = tmp_path / "report.json"
    assert main(
        ["evaluate", "--graph", str(built), "--communities", str(communities),
         "--output", str(report)]
    ) == 0
    doc = json.loads(report.read_text())
    assert "modularity" in doc["partition"]
    assert -0.5 <= doc["partition"]["modularity"] <= 1.0


def test_evaluate_with_behavior_indicators(tmp_path, built):
    communities = tmp_path / "communities.json"
    main(["detect", "--graph", str(built), "--epsilon", "0.5", "--seed", "7",
          "--output", str(communities)])
    categories = tmp_path / "categories.json"
    categories.write_text(json.dumps({"caf": "dining", "shop": "shop"}))
    canonical = built.parent.parent / "events.csv"
    report = tmp_path / "report.json"
    assert main(
        ["evaluate", "--graph", str(built), "--communities", str(communities),
         "--events", str(canonical), "--categories", str(categories),
         "--output", str(report)]
    ) == 0
    doc = json.loads(report.read_text())
    assert set(doc["behavior"]) == {
        "amount", "times", "days", "bath_entropy",
        "breakfast_entropy", "lunch_entropy", "dinner_entropy",
    }


def test_sweep_grid_produces_rows(tmp_path, built):
    out = tmp_path / "sweep.tsv"
    assert main(
        ["sweep", "--graph", str(built), "--epsilons", "1.0,0.5", "--output", str(out)]
    ) == 0
    body = [line for line in out.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("epsilon")]
    assert len(body) == 2


def test_sweep_rejects_bad_epsilon(tmp_path, built):
    assert main(
        ["sweep", "--graph", str(built), "--epsilons", "0.5,2.0",
         "--output", str(tmp_path / "s.tsv")]
    ) == 1


def test_synth_writes_events_truth_and_categories(tmp_path):
    out_dir = tmp_path / "synth"
    assert main(
        ["synth", "--students", "20", "--communities", "2", "--intra-rate", "2",
         "--inter-rate", "0", "--weeks", "4", "--seed", "3",
         "--output-dir", str(out_dir)]
    ) == 0
    assert (out_dir / "events.csv").exists()
    truth = json.loads((out_dir / "ground_truth.json").read_text())
    assert len(truth["labels"]) == 20
    assert truth["params"]["seed"] == 3
    assert (out_dir / "categories.json").exists()


def test_synth_identical_seeds_byte_identical(tmp_path):
    argv = ["synth", "--students", "15", "--communities", "3", "--intra-rate", "2",
            "--inter-rate", "0", "--weeks", "3", "--seed", "9"]
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(argv + ["--output-dir", str(first)]) == 0
    assert main(argv + ["--output-dir", str(second)]) == 0
    assert (first / "events.csv").read_bytes() == (second / "events.csv").read_bytes()
    assert (first / "ground_truth.json").read_bytes() == (second / "ground_truth.json").read_bytes()


def test_synth_rejects_infeasible_config(tmp_path, capsys):
    assert main(
        ["synth", "--students", "0", "--output-dir", str(tmp_path / "x")]
    ) == 1


@pytest.mark.parametrize("argv, fault", [
    (["--start", "253402000000", "--weeks", "1"], "ends after 9999-12-31"),
    (["--locations", "dining=-3,bath=5"], "location counts must be non-negative"),
    (["--locations", "dining"], "bad --locations entry 'dining' (want category=count)"),
    (["--locations", "dining=x"], "bad --locations count in 'dining=x'"),
    (["--jitter", "-1"], "jitter must be non-negative"),
    (["--weeks", "1e-7"], "--weeks 1e-07: the semester must last at least one second"),
], ids=["past-time-limit", "negative-locations", "locations-without-count",
        "locations-non-integer-count", "negative-jitter", "semester-under-one-second"])
def test_synth_rejects_config_it_cannot_write(tmp_path, capsys, argv, fault):
    assert main(["synth", "--students", "6", "--communities", "2", *argv,
                 "--output-dir", str(tmp_path / "x")]) == 1
    assert fault in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_synth_rejects_config_asking_for_too_many_covisits(tmp_path, capsys):
    # About 1.2e9 co-visits: rejected before any random draw or allocation.
    assert main(
        ["synth", "--students", "100", "--intra-rate", "1e9", "--weeks", "0.001",
         "--output-dir", str(tmp_path / "x")]
    ) == 1
    assert "co-visits" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_report_rejects_too_many_curve_points_before_reading_or_writing(tmp_path, capsys):
    out = tmp_path / "c.csv"
    for graph in (GOLDEN / GRAPH, tmp_path / "missing.json"):
        for n_points in ("10000000000000", "1000001", "1"):
            argv = ["report", "--graph", str(graph), "--n-points", n_points, "--output", str(out)]
            assert main(argv) == 1
            assert "--n-points must lie in [2, 1000000]" in capsys.readouterr().err
            assert not out.exists()


def test_report_curve_points(tmp_path, built):
    out = tmp_path / "curve.csv"
    assert main(
        ["report", "--graph", str(built), "--n-points", "5", "--output", str(out)]
    ) == 0
    body = [line for line in out.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("time,")]
    assert len(body) == 5


def test_report_curve_on_one_instant_takes_start_time(tmp_path, built):
    doc = json.loads(built.read_text(encoding="utf-8"))
    doc["times"] = [1000] * len(doc["times"])
    built.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "curve.csv"
    argv = ["report", "--graph", str(built), "--n-points", "2", "--output", str(out)]
    assert main(argv) == 2
    assert main(argv + ["--start-time", "0"]) == 0
    assert out.read_text().splitlines()[-2:] == ["0,0,0,0", "1000,6,6,1"]


def test_report_formats_sweep_table(tmp_path, built):
    sweep_path = tmp_path / "sweep.tsv"
    main(["sweep", "--graph", str(built), "--epsilons", "1.0,0.5", "--output", str(sweep_path)])
    table = tmp_path / "table.txt"
    assert main(["report", "--sweep", str(sweep_path), "--output", str(table)]) == 0
    text = table.read_text()
    assert "origin fraction" in text
    assert "modularity" in text


def test_report_requires_exactly_one_input(tmp_path, built):
    assert main(["report", "--output", str(tmp_path / "t.txt")]) == 1
    assert main(
        ["report", "--graph", str(built), "--sweep", str(built),
         "--output", str(tmp_path / "t.txt")]
    ) == 1


# ------------------------------------------------------------- golden bytes

GOLDEN = Path(__file__).parent / "golden" / "chain"
GRAPH = "graph/tie_graph.json"
# The README chain on EVENTS, every report mode, and a tiny synth run, all
# with relative paths so that the parameters embedded in each artifact are
# the same wherever the test runs.
CHAIN = [
    ["ingest", "--input", "raw.csv", "--output", "canonical.csv"],
    ["build", "--events", "canonical.csv", "--output-dir", "graph"],
    ["snapshot", "--graph", GRAPH, "--output", "snapshot.tsv"],
    ["pagerank", "--graph", GRAPH, "--output", "scores.tsv"],
    ["detect", "--graph", GRAPH, "--epsilon", "0.5", "--seed", "7",
     "--output", "communities.json"],
    ["evaluate", "--graph", GRAPH, "--communities", "communities.json",
     "--events", "canonical.csv", "--categories", "categories.json", "--output", "report.json"],
    ["sweep", "--graph", GRAPH, "--epsilons", "1.0,0.5,0.34", "--output", "sweep.tsv"],
    ["report", "--sweep", "sweep.tsv", "--output", "sweep_table.txt"],
    ["report", "--evaluation", "report.json", "--output", "report_table.txt"],
    ["report", "--graph", GRAPH, "--n-points", "5", "--output", "curve.csv"],
    ["synth", "--students", "6", "--communities", "2", "--intra-rate", "2", "--inter-rate", "0.5",
     "--weeks", "1", "--seed", "1", "--output-dir", "synth"],
]
CATEGORIES = '{"caf": "dining", "shop": "shop"}\n'


def run_chain(directory: Path) -> None:
    """Write EVENTS and CATEGORIES into directory and run CHAIN there."""
    (directory / "raw.csv").write_text(EVENTS, encoding="utf-8")
    (directory / "categories.json").write_text(CATEGORIES, encoding="utf-8")
    for argv in CHAIN:
        assert main(argv) == 0, argv


def test_cli_chain_artifacts_match_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_chain(tmp_path)
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
    expected = sorted(p.relative_to(GOLDEN).as_posix() for p in GOLDEN.rglob("*") if p.is_file())
    assert written == expected
    for rel in written:
        assert (tmp_path / rel).read_bytes() == (GOLDEN / rel).read_bytes(), rel


def test_ingest_of_crlf_and_quoted_raw_csv_writes_the_golden_canonical_bytes(tmp_path):
    raw = (GOLDEN / "raw.csv").read_text(encoding="utf-8")
    quoted = io.StringIO()
    csv.writer(quoted, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(
        csv.reader(io.StringIO(raw)))
    for name, text in (("crlf.csv", raw.replace("\n", "\r\n")), ("quoted.csv", quoted.getvalue())):
        assert text != raw
        (tmp_path / name).write_text(text, encoding="utf-8", newline="")
        out = tmp_path / f"canonical-{name}"
        assert main(["ingest", "--input", str(tmp_path / name), "--output", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "canonical.csv").read_bytes(), name


@pytest.fixture
def chain(tmp_path, monkeypatch):
    """The artifacts of CHAIN in the working directory."""
    monkeypatch.chdir(tmp_path)
    run_chain(tmp_path)
    return tmp_path


def edit_json(edit):
    def apply(text: str) -> str:
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return apply


def set_item(key, position, value):
    """edit_json that sets doc[key][position] to value."""
    return edit_json(lambda doc: doc[key].__setitem__(position, value))


def set_times(edge, times):
    """edit_json that gives edge `edge` of the tie graph the given times."""
    def apply(doc):
        offsets = doc["offsets"]
        lo, hi = offsets[edge], offsets[edge + 1]
        doc["times"][lo:hi] = times
        offsets[edge + 1:] = [offset + len(times) - (hi - lo) for offset in offsets[edge + 1:]]
    return edit_json(apply)


# the edge-object layout of earlier versions, with its "degree" object
OLD_LAYOUT = GOLDEN.parent / "tie_graph_with_degree.json"
EVALUATE = ["evaluate", "--graph", GRAPH, "--communities", "communities.json", "--output", "e.json"]
SNAPSHOT = ["snapshot", "--graph", GRAPH, "--output", "s.tsv"]
BUILD = ["build", "--events", "canonical.csv", "--output-dir", "rebuilt"]
# case -> (artifact, mutation of its text to text or bytes, command that reads it,
# fault named in the message)
MALFORMED = {
    "graph-non-integer-time": (
        GRAPH, set_times(0, [1000.5]), SNAPSHOT, "edge times must be integers"),
    "graph-unsorted-times": (
        GRAPH, set_times(0, [2000, 1000]), SNAPSHOT, "unsorted times"),
    "graph-time-out-of-range": (
        GRAPH, set_times(0, [10**400]), SNAPSHOT, "outside 1970-01-01 .. 9999-12-31"),
    "graph-without-edges": (
        GRAPH, edit_json(lambda doc: doc.update(edges=[], offsets=[0], times=[])),
        SNAPSHOT, "has no edges"),
    "graph-nodes-string": (
        GRAPH, edit_json(lambda doc: doc.update(nodes="".join(doc["nodes"]))),
        SNAPSHOT, "'nodes' must be a list of string ids"),
    "graph-nodes-object": (
        GRAPH, edit_json(lambda doc: doc.update(nodes={node: 1 for node in doc["nodes"]})),
        SNAPSHOT, "'nodes' must be a list of string ids"),
    "graph-node-listed-twice": (
        GRAPH, edit_json(lambda doc: doc["nodes"].append("s2")),
        SNAPSHOT, "node 's2' is listed twice"),
    "graph-node-id-with-tab": (
        GRAPH, set_item("nodes", 0, "s\t1"),
        SNAPSHOT, "node id 's\\t1' is empty or holds a tab or line break"),
    "graph-empty-node-id": (
        GRAPH, set_item("nodes", 0, ""), SNAPSHOT, "node id '' is empty or holds a tab"),
    "graph-nodes-out-of-order": (
        GRAPH, edit_json(lambda doc: doc.update(nodes=["s2", "s1", "s3"])),
        SNAPSHOT, "node 's1' is out of order"),
    "graph-duplicate-edge": (
        GRAPH, edit_json(lambda doc: doc.update(
            edges=[0, 1] + doc["edges"], offsets=list(range(8)), times=[5000] + doc["times"])),
        SNAPSHOT, "edge 's1' -> 's2' is listed twice"),
    "graph-edges-out-of-order": (
        GRAPH, edit_json(lambda doc: doc.update(edges=[0, 2, 0, 1] + doc["edges"][4:])),
        SNAPSHOT, "edge 's1' -> 's2' is out of (src, dst) order"),
    "graph-old-layout": (
        GRAPH, lambda _: OLD_LAYOUT.read_text(encoding="utf-8"), SNAPSHOT,
        "missing field 'offsets', as in the edge-object layout of earlier versions; "
        "rebuild the graph from canonical.csv with `tieflow build`"),
    "graph-self-loop": (
        GRAPH, set_item("edges", 1, 0), SNAPSHOT, "edge 's1' -> 's1' joins a node to itself"),
    "graph-edges-odd-length": (
        GRAPH, edit_json(lambda doc: doc["edges"].pop()),
        SNAPSHOT, "want 2 'edges' indices per edge and 1 'offsets' entry more than the edges, "
                  "not 11 and 7"),
    "graph-negative-index": (
        GRAPH, set_item("edges", 2, -1), SNAPSHOT, "edge 1 names a node missing from 'nodes'"),
    "graph-index-past-nodes": (
        GRAPH, set_item("edges", 5, 3), SNAPSHOT, "edge 2 names a node missing from 'nodes'"),
    "graph-offsets-not-from-zero": (
        GRAPH, set_item("offsets", 0, 1), SNAPSHOT, "'offsets' must rise from 0 to 6"),
    "graph-offsets-short-of-times": (
        GRAPH, set_item("offsets", -1, 5), SNAPSHOT, "'offsets' must rise from 0 to 6"),
    "graph-offsets-decrease": (
        GRAPH, set_item("offsets", 2, 0), SNAPSHOT, "'offsets' must rise from 0 to 6"),
    "graph-offsets-huge": (
        GRAPH, edit_json(lambda doc: doc.update(edges=doc["edges"][:2], offsets=[0, 10**15])),
        SNAPSHOT, "'offsets' must rise from 0 to 6"),
    "graph-bool-index": (
        GRAPH, set_item("edges", 0, False), SNAPSHOT, "edge endpoints must be integers"),
    "graph-float-offset": (
        GRAPH, set_item("offsets", 1, 1.0), SNAPSHOT, "edge offsets must be integers"),
    "graph-bool-time": (
        GRAPH, set_item("times", 0, True), SNAPSHOT, "edge times must be integers"),
    "graph-index-beyond-int64": (
        GRAPH, set_item("edges", 0, 2**63), SNAPSHOT, "'edges' entry 0 is beyond int64"),
    "graph-offset-beyond-int64": (
        GRAPH, set_item("offsets", 3, -2**64), SNAPSHOT, "'offsets' entry 3 is beyond int64"),
    "graph-time-beyond-int64": (
        GRAPH, set_item("times", 4, 2**64), SNAPSHOT,
        "edge 's3' -> 's1' has times outside 1970-01-01 .. 9999-12-31"),
    "graph-co-occurrences-at-one-instant": (
        GRAPH, edit_json(lambda doc: doc.update(times=[1000] * 6)),
        ["report", "--graph", GRAPH, "--output", "c.csv"],
        "every co-occurrence in tie graph file graph/tie_graph.json is at 1000; "
        "give an earlier --start-time"),
    "communities-without-communities": (
        "communities.json", edit_json(lambda doc: doc.pop("communities")),
        EVALUATE, "missing field 'communities'"),
    "communities-isolated-string": (
        "communities.json", edit_json(lambda doc: doc.update(isolated="s0001zzz")),
        EVALUATE, "members and isolated must be lists"),
    "communities-isolated-unknown-node": (
        "communities.json", edit_json(lambda doc: doc.update(isolated=["ghost"])),
        EVALUATE, "names nodes missing from the graph: ['ghost']"),
    "communities-member-also-isolated": (
        "communities.json", edit_json(lambda doc: doc.update(isolated=["s2"])),
        EVALUATE, "node 's2' is listed twice"),
    "communities-member-of-two": (
        "communities.json",
        edit_json(lambda doc: doc["communities"].append({"label": 2, "origin": "s1", "members": ["s1"]})),
        EVALUATE, "node 's1' is listed twice"),
    "communities-label-used-twice": (
        "communities.json",
        edit_json(lambda doc: doc.update(communities=[
            {"label": 1, "origin": "s3", "members": ["s1", "s3"]},
            {"label": 1, "origin": "s2", "members": ["s2"]}])),
        EVALUATE, "label 1 is listed twice"),
    "communities-float-label": (
        "communities.json", edit_json(lambda doc: doc["communities"][0].update(label=1.5)),
        EVALUATE, "label 1.5 is not an integer"),
    "communities-bool-label": (
        "communities.json", edit_json(lambda doc: doc["communities"][0].update(label=True)),
        EVALUATE, "label True is not an integer"),
    "communities-string-label": (
        "communities.json", edit_json(lambda doc: doc["communities"][0].update(label="1")),
        EVALUATE, "label '1' is not an integer"),
    "communities-origin-not-a-node": (
        "communities.json", edit_json(lambda doc: doc["communities"][0].update(origin="ghost")),
        EVALUATE, "origin 'ghost' of label 1 is not one of its members"),
    "communities-origin-isolated": (
        "communities.json",
        edit_json(lambda doc: (doc["communities"][0]["members"].remove("s3"),
                               doc.update(isolated=["s3"]))),
        EVALUATE, "origin 's3' of label 1 is not one of its members"),
    "communities-not-utf8": (
        "communities.json", lambda text: b"\xff" + text.encode("utf-8"),
        EVALUATE, "'utf-8' codec can't decode byte 0xff"),
    "communities-node-left-out": (
        "communities.json", edit_json(lambda doc: doc["communities"][0]["members"].remove("s1")),
        EVALUATE, "node 's1' is in neither members nor isolated"),
    "sweep-non-numeric-cell": (
        "sweep.tsv", lambda text: text + "0.5\tlots\t1\t3\n",
        ["report", "--sweep", "sweep.tsv", "--output", "t.txt"], "line 11"),
    "evaluation-without-partition": (
        "report.json", edit_json(lambda doc: doc.pop("partition")),
        ["report", "--evaluation", "report.json", "--output", "t.txt"],
        "missing field 'partition'"),
    "evaluation-nested-too-deep": (
        "report.json", lambda text: "[" * 100000,
        ["report", "--evaluation", "report.json", "--output", "t.txt"], "recursion"),
    "events-id-with-tab": (
        "canonical.csv", lambda text: text.replace("s2,1060", "s\t2,1060"),
        BUILD, "line 3: student_id 's\\t2' contains a tab or line break"),
    "events-fault-after-multiline-field": (
        "canonical.csv",
        lambda text: text.replace("s1,1000", 's1,"1000\n"').replace("caf,spend,2", "caf,spent,2"),
        BUILD, "line 6: unknown kind 'spent'"),
    "events-header-only": (
        "canonical.csv", lambda text: text.splitlines(keepends=True)[0],
        EVALUATE + ["--events", "canonical.csv", "--categories", "categories.json"],
        "has no records"),
    "events-without-co-occurrence": (
        "canonical.csv", lambda text: text.splitlines(keepends=True)[0], BUILD,
        "no two students co-occur within --window 120 s, so the tie graph would have no edges"),
    "categories-missing-location": (
        "categories.json", edit_json(lambda doc: doc.pop("shop")),
        EVALUATE + ["--events", "canonical.csv", "--categories", "categories.json"],
        "missing locations: ['shop']"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_artifact_is_data_error(chain, capsys, case):
    artifact, mutate, argv, fault = MALFORMED[case]
    path = chain / artifact
    content = mutate(path.read_text(encoding="utf-8"))
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert artifact in err and fault in err, err


@pytest.mark.parametrize("label", [1, 10**30, -(10**30)], ids=["one", "beyond-int64", "below-int64"])
def test_any_integer_label_evaluates_as_label_one(chain, label):
    path = chain / "communities.json"
    path.write_text(edit_json(lambda doc: doc["communities"][0].update(label=label))(
        path.read_text(encoding="utf-8")), encoding="utf-8")
    assert main(EVALUATE + ["--events", "canonical.csv", "--categories", "categories.json"]) == 0
    assert (chain / "e.json").read_bytes() == (GOLDEN / "report.json").read_bytes()


def test_build_without_co_occurrence_writes_nothing(chain, capsys):
    (chain / "apart.csv").write_text(
        "student_id,timestamp,location_id,kind,amount\ns1,1000,caf,spend,1\ns2,1200,caf,spend,1\n",
        encoding="utf-8")
    capsys.readouterr()
    assert main(["build", "--events", "apart.csv", "--output-dir", "rebuilt"]) == 2
    assert "apart.csv: no two students co-occur within --window 120 s" in capsys.readouterr().err
    assert not (chain / "rebuilt").exists()
    assert main(["build", "--events", "apart.csv", "--output-dir", "rebuilt", "--window", "200"]) == 0


def test_build_refuses_a_window_past_the_pair_cap(tmp_path, events_csv, capsys, monkeypatch):
    # EVENTS has 3 event pairs within 120 s at one location, and 8 within 1000 s.
    monkeypatch.setattr(cooccur, "MAX_WINDOW_PAIRS", 3)
    out_dir = tmp_path / "wide"
    assert main(["build", "--events", str(events_csv), "--output-dir", str(out_dir),
                 "--window", "1000"]) == 2
    assert (f"{events_csv}: window 1000 s brings 8 event pairs within reach, more than the cap "
            "of 3 (cooccur.MAX_WINDOW_PAIRS); use a smaller window") in capsys.readouterr().err
    assert not out_dir.exists()
    assert main(["build", "--events", str(events_csv), "--output-dir", str(out_dir)]) == 0


@pytest.mark.parametrize("argv, fault", [
    (["pagerank", "--graph", GRAPH, "--output", "p.tsv", "--max-iterations", "0"],
     "max_iterations must be positive"),
    (["pagerank", "--graph", GRAPH, "--output", "p.tsv", "--tolerance", "-1"],
     "tolerance must be non-negative"),
    (EVALUATE + ["--time", "999"], "first co-occurrence is at 1000"),
    (SNAPSHOT + ["--time", "9" * 400], "outside 1970-01-01 .. 9999-12-31"),
    (SNAPSHOT + ["--half-life", "inf"],
     "half-life inf gives no positive, finite rate ln 2 / half-life"),
    (SNAPSHOT + ["--half-life", "1e-320"],
     "half-life 1e-320 gives no positive, finite rate ln 2 / half-life"),
    (["sweep", "--graph", GRAPH, "--output", "s.tsv", "--epsilon", "0.3"],
     "unrecognized arguments: --epsilon 0.3"),
    (["detect", "--graph", GRAPH, "--output", "d.json", "--eps", "0.3"],
     "unrecognized arguments: --eps 0.3"),
    (["report", "--graph", GRAPH, "--n", "3", "--output", "c.csv"],
     "unrecognized arguments: --n 3"),
    (["report", "--sweep", "sweep.tsv", "--output", "t.txt", "--alpha", "5", "--time", "3",
      "--n-points", "1", "--start-time", "7"],
     "--time, --alpha, --start-time, --n-points apply only to a --graph curve"),
    (EVALUATE + ["--semester-start", "5000", "--semester-end", "4000"],
     "--semester-start, --semester-end apply only with --events"),
    (EVALUATE + ["--categories", "categories.json"], "--categories apply only with --events"),
    (EVALUATE + ["--events", "canonical.csv"], "--events requires --categories"),
    (["evaluate", "--graph", "missing.json", "--communities", "missing.json", "--output", "e.json",
      "--events", "missing.csv", "--categories", "missing.json",
      "--semester-start", "5000", "--semester-end", "4000"],
     "the semester must start before it ends"),
    (EVALUATE + ["--events", "canonical.csv", "--categories", "categories.json",
                 "--semester-start", "6000"], "the semester must start before it ends"),
    (["report", "--graph", "missing.json", "--start-time", "5000", "--time", "4000",
      "--output", "c.csv"], "the curve must start before it ends"),
    (["report", "--graph", GRAPH, "--time", "500", "--output", "c.csv"],
     "the curve starts by default at the graph's first co-occurrence, t=1000, which is not "
     "before --time 500; give an earlier --start-time"),
    (["sweep", "--graph", GRAPH, "--output", "s.tsv", "--epsilons", ","],
     "list at least one epsilon"),
    (["detect", "--graph", GRAPH, "--output", "d.json", "--max-rounds", "0"],
     "max_rounds must be positive"),
    (["detect", "--graph", GRAPH, "--output", "d.json", "--seed", "-1"],
     "seed must be non-negative"),
    (["sweep", "--graph", GRAPH, "--output", "s.tsv", "--seed", "-1"],
     "seed must be non-negative"),
    (["synth", "--weeks", "1e308", "--output-dir", "x"],
     "the semester ends after 9999-12-31"),
    (["synth", "--locations", "dining=3,dining=1", "--output-dir", "x"],
     "category 'dining' is listed twice"),
    (["synth", "--locations", "=2", "--output-dir", "x"],
     "bad --locations entry '=2' (want category=count)"),
    (["synth", "--locations", "dining=0", "--output-dir", "x"], "need at least one location"),
    (["synth", "--locations", "dining=101,dining1=1", "--output-dir", "x"],
     "two location categories generate the id 'dining100'"),
    (["synth", "--students", "400", "--communities", "399", "--inter-rate", "0",
      "--output-dir", "x"],
     "same-community pairs are too rare: two students drawn at random form one with "
     "probability 1.25e-05"),
    (["synth", "--students", "100000000", "--intra-rate", "1e-9", "--inter-rate", "0",
      "--weeks", "1", "--output-dir", "x"],
     "the configuration asks for 100000000 students, more than the 1000000 allowed"),
    (["synth", "--locations", "dining=1000000000", "--output-dir", "x"],
     "the configuration asks for 1000000000 locations, more than the 1000000 allowed"),
    (["ingest", "--input", "raw.csv", "--output", "k.csv", "--keep-locations", "caf,nosuch"],
     "--keep-locations entry 'nosuch' names no location of raw.csv"),
], ids=["no-iterations", "negative-tolerance", "before-first-cooccurrence", "time-overflow",
        "infinite-half-life", "half-life-rate-overflow",
        "sweep-epsilon", "detect-prefix", "report-prefix", "report-sweep-curve-options",
        "evaluate-semester-without-events", "evaluate-categories-without-events",
        "evaluate-events-without-categories", "evaluate-inverted-semester-before-read",
        "evaluate-semester-start-after-data", "report-inverted-curve-before-read",
        "report-curve-ends-before-first-cooccurrence",
        "sweep-no-epsilons", "detect-no-rounds", "detect-negative-seed", "sweep-negative-seed",
        "synth-weeks-overflow", "synth-repeated-category",
        "synth-empty-category", "synth-zero-locations", "synth-colliding-location-ids",
        "synth-rare-same-community-pairs", "synth-too-many-students",
        "synth-too-many-locations", "ingest-unknown-location"])
def test_meaningless_argument_values_are_usage_errors(chain, capsys, argv, fault):
    capsys.readouterr()
    assert main(argv) == 1
    assert fault in capsys.readouterr().err
    assert not (chain / "x").exists()


def package_env() -> dict:
    """This environment with the package's src/ first on PYTHONPATH."""
    src = str(Path(__file__).parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_analysis_commands_never_import_scipy(tmp_path):
    graph = str(GOLDEN / GRAPH)
    commands = [
        ["snapshot", "--graph", graph, "--output", "s.tsv"],
        ["pagerank", "--graph", graph, "--output", "p.tsv"],
        ["detect", "--graph", graph, "--output", "c.json"],
        ["evaluate", "--graph", graph, "--communities", str(GOLDEN / "communities.json"),
         "--output", "e.json"],
        ["sweep", "--graph", graph, "--output", "w.tsv"],
        ["report", "--graph", graph, "--n-points", "5", "--output", "curve.csv"],
    ]
    script = ("import json, sys\nfrom tieflow.cli import main\n"
              "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
              "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy'))]))")
    done = subprocess.run([sys.executable, "-c", script, json.dumps(commands)], cwd=tmp_path,
                          env=package_env(), capture_output=True, text=True, check=True)
    codes, scipy_modules = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * len(commands)
    assert scipy_modules == []


@pytest.mark.parametrize("command", [["snapshot", "--output", "s.tsv"],
                                     ["detect", "--output", "c.json"]])
def test_decay_exponent_overflow_prints_no_warning(tmp_path, command):
    # alpha * elapsed overflows to inf, and exp(-inf) = 0 is the exact limit:
    # a separate process, so that pytest's warning capture hides nothing.
    done = subprocess.run([sys.executable, "-m", "tieflow.cli", *command,
                           "--graph", str(GOLDEN / GRAPH), "--alpha", "1e308"],
                          cwd=tmp_path, env=package_env(), capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
