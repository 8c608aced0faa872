import json
from pathlib import Path

import pytest

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


def test_build_writes_three_artifacts(tmp_path, built):
    out_dir = built.parent
    assert (out_dir / "cooccurrence.tsv").exists()
    assert (out_dir / "directed_edges.tsv").exists()
    doc = json.loads(built.read_text())
    assert doc["params"]["window"] == 120
    assert doc["edges"]


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


def test_report_curve_points(tmp_path, built):
    out = tmp_path / "curve.csv"
    assert main(
        ["report", "--graph", str(built), "--n-points", "5", "--output", str(out)]
    ) == 0
    body = [line for line in out.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("time,")]
    assert len(body) == 5


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


EVALUATE = ["evaluate", "--graph", GRAPH, "--communities", "communities.json", "--output", "e.json"]
SNAPSHOT = ["snapshot", "--graph", GRAPH, "--output", "s.tsv"]
# case -> (artifact, mutation of its text, command that reads it, fault named in the message)
MALFORMED = {
    "graph-non-integer-time": (
        GRAPH, edit_json(lambda doc: doc["edges"][0].update(times=[1000.5])),
        SNAPSHOT, "edge times must be integers"),
    "graph-unsorted-times": (
        GRAPH, edit_json(lambda doc: doc["edges"][0].update(times=[2000, 1000])),
        SNAPSHOT, "unsorted times"),
    "graph-time-out-of-range": (
        GRAPH, edit_json(lambda doc: doc["edges"][0].update(times=[10**400])),
        SNAPSHOT, "outside 1970-01-01 .. 9999-12-31"),
    "graph-unknown-node": (
        GRAPH, edit_json(lambda doc: doc["edges"][0].update(dst="ghost")),
        SNAPSHOT, "missing from 'nodes'"),
    "communities-without-communities": (
        "communities.json", edit_json(lambda doc: doc.pop("communities")),
        EVALUATE, "missing field 'communities'"),
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
    "categories-missing-location": (
        "categories.json", edit_json(lambda doc: doc.pop("shop")),
        EVALUATE + ["--events", "canonical.csv", "--categories", "categories.json"],
        "missing locations: ['shop']"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_artifact_is_data_error(chain, capsys, case):
    artifact, mutate, argv, fault = MALFORMED[case]
    path = chain / artifact
    path.write_text(mutate(path.read_text(encoding="utf-8")), encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert artifact in err and fault in err, err


@pytest.mark.parametrize("argv, fault", [
    (["pagerank", "--graph", GRAPH, "--output", "p.tsv", "--max-iterations", "0"],
     "max_iterations must be positive"),
    (["pagerank", "--graph", GRAPH, "--output", "p.tsv", "--tolerance", "-1"],
     "tolerance must be non-negative"),
    (EVALUATE + ["--time", "999"], "first co-occurrence is at 1000"),
    (SNAPSHOT + ["--time", "9" * 400], "outside 1970-01-01 .. 9999-12-31"),
], ids=["no-iterations", "negative-tolerance", "before-first-cooccurrence", "time-overflow"])
def test_meaningless_argument_values_are_usage_errors(chain, capsys, argv, fault):
    capsys.readouterr()
    assert main(argv) == 1
    assert fault in capsys.readouterr().err
