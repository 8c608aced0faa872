"""Fuzz the CLI with mutated artifacts and argument values.

Whatever the input, main() must return an exit code in {0, 1, 2, 3}
without raising, and a usage (1) or data (2) error must start its stderr
with "error:". The inputs are mutations of the golden chain artifacts of
test_cli.py; runs are derandomized so that the suite stays reproducible.
"""

import contextlib
import io
import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tieflow.cli import main

from test_cli import GOLDEN

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

ALPHABET = st.sampled_from(list('0123456789,.-+eE"\t\n :[]{}x')) | st.characters(codec="utf-8")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6,
)


@st.composite
def mutated_text(draw, text, pieces=st.text(ALPHABET, max_size=8)):
    """Up to three splices: a slice of at most 20 characters (or bytes)
    replaced by a drawn piece, by default up to 8 characters."""
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, min(len(text), start + 20)))
        text = text[:start] + draw(pieces) + text[stop:]
    return text


@st.composite
def flipped(draw, data: bytes) -> bytes:
    """One to three bytes after the first line XORed with a nonzero mask: a
    column file's values change, and its header and length hold."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        data[draw(st.integers(data.index(b"\n") + 1, len(data) - 1))] ^= draw(st.integers(1, 255))
    return bytes(data)


def _slots(node):
    """Every (container, key) pair inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield node, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


@st.composite
def mutated_json(draw, text: str) -> str:
    """One value of the document replaced or deleted, or its text spliced."""
    if draw(st.booleans()):
        return draw(mutated_text(text))
    doc = json.loads(text)
    container, key = draw(st.sampled_from(list(_slots(doc))))
    if draw(st.booleans()):
        del container[key]
    else:
        container[key] = draw(JSON_VALUES)
    return json.dumps(doc)


def mutated(artifact: str):
    text = (GOLDEN / artifact).read_text(encoding="utf-8")
    return mutated_json(text) if artifact.endswith(".json") else mutated_text(text)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A copy of the golden artifacts; examples overwrite files inside it."""
    path = tmp_path_factory.mktemp("fuzz") / "chain"
    shutil.copytree(GOLDEN, path)
    return path


def run(workdir, argv) -> int:
    """main() on argv with {dir} set to workdir; checks the exit contract."""
    argv = [arg.replace("{dir}", str(workdir)) for arg in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in {0, 1, 2, 3}, (argv, code)
    if code in {1, 2}:
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())
    return code


GRAPH = "{dir}/graph/tie_graph.json"
EVALUATE = ["evaluate", "--graph", GRAPH, "--communities", "{dir}/communities.json",
            "--output", "{dir}/out.json"]
# artifact -> commands that read it
READERS = {
    "raw.csv": [
        ["ingest", "--input", "{dir}/raw.csv", "--output", "{dir}/fuzz.csv"],
        ["build", "--events", "{dir}/raw.csv", "--output-dir", "{dir}/fuzzgraph"],
        EVALUATE + ["--events", "{dir}/raw.csv", "--categories", "{dir}/categories.json"],
    ],
    "graph/tie_graph.json": [
        ["snapshot", "--graph", GRAPH, "--output", "{dir}/out.tsv"],
        ["sweep", "--graph", GRAPH, "--epsilons", "1,0.5", "--output", "{dir}/out.tsv"],
        ["report", "--graph", GRAPH, "--n-points", "3", "--output", "{dir}/out.csv"],
        EVALUATE,
    ],
    "communities.json": [EVALUATE],
    "categories.json": [
        EVALUATE + ["--events", "{dir}/canonical.csv", "--categories", "{dir}/categories.json"],
    ],
    "sweep.tsv": [["report", "--sweep", "{dir}/sweep.tsv", "--output", "{dir}/out.txt"]],
    "report.json": [["report", "--evaluation", "{dir}/report.json", "--output", "{dir}/out.txt"]],
}


@pytest.mark.parametrize("artifact", sorted(READERS))
def test_mutated_artifact_never_crashes(workdir, artifact):
    @FUZZ
    @given(text=mutated(artifact))
    def check(text):
        path = workdir / artifact
        path.write_text(text, encoding="utf-8")
        try:
            for argv in READERS[artifact]:
                run(workdir, argv)
        finally:
            shutil.copyfile(GOLDEN / artifact, path)

    check()


COLUMNS = "canonical.csv.columns"


@FUZZ
@given(data=mutated_text((GOLDEN / COLUMNS).read_bytes(), st.binary(max_size=8))
       | flipped((GOLDEN / COLUMNS).read_bytes()))
def test_mutated_column_companion_reads_as_its_csv(workdir, monkeypatch, data):
    # The companion's bytes never change what a command reads from the CSV:
    # build and evaluate either refuse the input or write the golden bytes.
    monkeypatch.chdir(workdir)  # relative paths, as the golden chain's parameters hold
    # golden artifact -> the command that reads the companion, and what it writes
    reads = {
        "graph/tie_graph.json": (
            ["build", "--events", "canonical.csv", "--output-dir", "fuzzgraph"],
            "fuzzgraph/tie_graph.json"),
        "report.json": (["evaluate", "--graph", "graph/tie_graph.json", "--communities",
                         "communities.json", "--events", "canonical.csv", "--categories",
                         "categories.json", "--output", "fuzzreport.json"], "fuzzreport.json"),
    }
    (workdir / COLUMNS).write_bytes(data)
    try:
        for golden, (argv, written) in reads.items():
            (workdir / written).unlink(missing_ok=True)
            if run(workdir, argv) != 2:
                assert (workdir / written).read_bytes() == (GOLDEN / golden).read_bytes(), argv
    finally:
        shutil.copyfile(GOLDEN / COLUMNS, workdir / COLUMNS)


GRAPH_COLUMNS = "graph/tie_graph.json.columns"


@FUZZ
@given(data=mutated_text((GOLDEN / GRAPH_COLUMNS).read_bytes(), st.binary(max_size=8))
       | flipped((GOLDEN / GRAPH_COLUMNS).read_bytes()))
def test_mutated_tie_graph_companion_reads_as_its_json(workdir, monkeypatch, data):
    # The JSON beside the companion is whole, so whatever the companion holds,
    # snapshot and detect succeed and write the golden bytes.
    monkeypatch.chdir(workdir)  # relative paths, as the golden chain's parameters hold
    # golden artifact -> the command that writes it, to fuzz.out
    reads = {
        "snapshot.tsv": ["snapshot", "--graph", "graph/tie_graph.json"],
        "communities.json": ["detect", "--graph", "graph/tie_graph.json", "--epsilon", "0.5",
                             "--seed", "7"],
    }
    (workdir / GRAPH_COLUMNS).write_bytes(data)
    try:
        for golden, argv in reads.items():
            assert run(workdir, argv + ["--output", "fuzz.out"]) == 0, argv
            assert (workdir / "fuzz.out").read_bytes() == (GOLDEN / golden).read_bytes(), argv
    finally:
        shutil.copyfile(GOLDEN / GRAPH_COLUMNS, workdir / GRAPH_COLUMNS)


SYNTH = ["synth", "--students", "6", "--communities", "2", "--intra-rate", "2",
         "--inter-rate", "0.5", "--weeks", "1", "--output-dir", "{dir}/synth"]
DETECT = ["detect", "--graph", GRAPH, "--output", "{dir}/out.json"]
# (command, option); options that size the work take only EDGE values, so
# that no example asks for an hours-long or gigabyte-sized run.
SIZING = [
    (SYNTH, "--students"), (SYNTH, "--weeks"), (SYNTH, "--intra-rate"), (SYNTH, "--inter-rate"),
    (["report", "--graph", GRAPH, "--output", "{dir}/out.csv"], "--n-points"),
]
FREE = [
    (SYNTH, "--communities"), (SYNTH, "--jitter"), (SYNTH, "--seed"), (SYNTH, "--start"),
    (["build", "--events", "{dir}/canonical.csv", "--output-dir", "{dir}/fuzzgraph"], "--window"),
    (["report", "--graph", GRAPH, "--n-points", "3", "--output", "{dir}/out.csv"], "--start-time"),
    (["report", "--graph", GRAPH, "--n-points", "3", "--output", "{dir}/out.csv"], "--time"),
    (["snapshot", "--graph", GRAPH, "--output", "{dir}/out.tsv"], "--half-life"),
    (["snapshot", "--graph", GRAPH, "--output", "{dir}/out.tsv"], "--alpha"),
    (DETECT, "--time"), (DETECT, "--damping"), (DETECT, "--tolerance"),
    (DETECT, "--max-iterations"), (DETECT, "--epsilon"), (DETECT, "--beta"),
    (DETECT, "--seed"), (DETECT, "--max-rounds"),
    (["sweep", "--graph", GRAPH, "--output", "{dir}/out.tsv"], "--epsilons"),
    (EVALUATE + ["--events", "{dir}/canonical.csv", "--categories", "{dir}/categories.json"],
     "--semester-start"),
    (EVALUATE + ["--events", "{dir}/canonical.csv", "--categories", "{dir}/categories.json"],
     "--semester-end"),
]
EDGE = st.sampled_from(["0", "-1", "1", "2", "0.5", "1e-9", "1e308", "nan", "inf", "-inf", "",
                        "x", "3,"])
ANY = (EDGE | st.integers().map(str) | st.floats().map(repr)
       | st.sampled_from(["end", "1970-01-01T00:16:40", "0001-01-01T00:00:00", "0.2,0,1",
                         "9" * 400])
       | st.text(ALPHABET, max_size=8))


@FUZZ
@given(st.sampled_from(SIZING).flatmap(lambda case: st.tuples(st.just(case), EDGE))
       | st.sampled_from(FREE).flatmap(lambda case: st.tuples(st.just(case), ANY)))
def test_argument_values_never_crash(workdir, drawn):
    (argv, option), value = drawn
    run(workdir, argv + [f"{option}={value}"])
