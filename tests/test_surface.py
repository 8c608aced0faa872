"""What readers outside the package run against it: the README's library
snippet, the package namespace, and the names and attributes the benchmark
in perfbench/ reads; that no module keeps a function cache; and that every
public function and class has a caller outside the tests."""

import ast
import importlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import tieflow.events
from tieflow import ifs
from tieflow.cooccur import build_cooccurrence_graph
from tieflow.events import parse_events_path
from tieflow.orient import orient_edges
from tieflow.pagerank import pagerank
from tieflow.tiedecay import DecayParams, snapshot_at

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "chain"


def test_readme_library_snippet_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (snippet,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    shutil.copy(GOLDEN / "canonical.csv", tmp_path / "canonical.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("PartitionReport(modularity=")


def test_package_namespace_reexports_nothing():
    script = ("import json, sys\nimport tieflow\n"
              "bare = sorted(m for m in sys.modules if m.startswith('tieflow.') or m == 'numpy')\n"
              "import tieflow.artifacts\nartifacts_numpy = 'numpy' in sys.modules\n"
              "from tieflow import pagerank\n"
              "print(json.dumps([bare, artifacts_numpy, type(pagerank).__name__,"
              " pagerank.__name__]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          check=True)
    assert json.loads(done.stdout) == [[], False, "module", "tieflow.pagerank"]


def load_measure():
    spec = importlib.util.spec_from_file_location("measure", ROOT / "perfbench" / "measure.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_layer_calls_resolve():
    for name, (module, attr, _) in load_measure().LAYER_CALLS.items():
        assert callable(getattr(importlib.import_module(f"tieflow.{module}"), attr, None)), name


def test_benchmark_counts_read_graph_edges_and_snapshot_matrix():
    calls = load_measure().LAYER_CALLS
    pairs = build_cooccurrence_graph(parse_events_path(GOLDEN / "canonical.csv"), window=120)
    graph = orient_edges(pairs)
    snapshot = snapshot_at(graph, DecayParams(alpha=1e-6), graph.end_time())
    assert calls["cooccur.build"][2]((), pairs) == {"pairs": 3, "matches": 3}
    assert calls["orient.orient"][2]((), graph) == {"edges": 6, "tied_pairs": 3}
    assert calls["tiedecay.snapshot"][2]((), snapshot) == {"snapshots": 1, "snapshot_nnz": 6}


def test_benchmark_reads_of_a_pagerank_result(monkeypatch):
    # timeline.py's analyse reads a result's converged, iterations and
    # scores.values(); measure.py's pagerank span reads its iterations.
    measure = load_measure()
    monkeypatch.setitem(sys.modules, "measure", measure)  # timeline.py imports it by name
    spec = importlib.util.spec_from_file_location("timeline", ROOT / "perfbench" / "timeline.py")
    timeline = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(timeline)
    graph = orient_edges(build_cooccurrence_graph(parse_events_path(GOLDEN / "canonical.csv"),
                                                  window=120))
    decay, t = DecayParams(alpha=1e-6), graph.end_time()
    ranking = pagerank(snapshot_at(graph, decay, t))
    text, _, _, problems = timeline.analyse(graph, decay, t)
    assert problems == []
    assert text.splitlines()[0].endswith(f"\t{ranking.iterations}")
    assert measure.LAYER_CALLS["pagerank.solve"][2]((), ranking) == {
        "iterations": ranking.iterations}


def test_sweep_records_a_detect_and_a_partition_span_per_fraction(planted_pipeline):
    # The benchmark's traced runs time the sweep's layers by wrapping these two
    # module functions, and its report needs the metrics the spans yield.
    measure = load_measure()
    snap, pr = planted_pipeline["snapshot"], planted_pipeline["ranking"]
    grid, params = [0.5, 0.2, 0.05], ifs.FlowParams(seed=3)
    tracer = measure.Tracer(run="pass.0")
    with measure.instrument(tracer):
        rows = ifs.sweep_epsilon(snap, pr, grid, params)
    assert rows == ifs.sweep_epsilon(snap, pr, grid, params)
    names = [span["name"] for span in tracer.spans]
    assert names.count("ifs.detect") == names.count("metrics.partition") == len(grid)
    direct = [ifs.detect_communities(snap, pr, epsilon, params) for epsilon in grid]
    assert [span["counts"] for span in tracer.spans if span["name"] == "ifs.detect"] == [
        {"detects": 1, "rounds": a.rounds, "labeled": len(a.labels), "nodes": len(snap.nodes)}
        for a in direct]
    layers = measure.layer_metrics(tracer.spans)
    assert {"ifs.detect_s", "ifs.rounds", "ifs.coverage", "metrics.partition_s"} <= set(layers)
    assert layers["ifs.rounds"] == sum(a.rounds for a in direct)


def test_a_companion_read_records_one_parse_span_of_the_log_rows(tmp_path, monkeypatch):
    # Traced chains show where reading the column companion saves time only
    # if the read is timed and counted as the parse it replaces.
    for name in ("canonical.csv", "canonical.csv.columns"):
        shutil.copy(GOLDEN / name, tmp_path / name)
    monkeypatch.setattr(tieflow.events, "parse_events", lambda stream: 1 / 0)  # no text parse
    measure = load_measure()
    tracer = measure.Tracer(run="pass.0")
    with measure.instrument(tracer):
        log = tieflow.events.parse_events_path(tmp_path / "canonical.csv")
    assert [(span["name"], span["counts"]) for span in tracer.spans] == [
        ("events.parse", {"rows_in": len(log)})]
    assert len(log) == 6
    assert measure.layer_metrics(tracer.spans)["events.rows_in"] == 6


def test_no_module_level_function_caches():
    # A cache on a module-level function is state shared by every caller in
    # the process and keeps its arguments alive; a cached property dies with
    # its object.
    cached = []
    for path in sorted((ROOT / "src" / "tieflow").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = target.attr if isinstance(target, ast.Attribute) else target.id
                    if name in ("cache", "lru_cache"):
                        cached.append(f"{path.name}:{node.name}")
    assert cached == []


# Public names that no code outside tests/ calls yet, each with its reason.
UNCALLED = {
    "synth.nmi": "the measuring script of ROADMAP item 2 will score detections with it",
}


def test_every_public_function_and_class_has_a_caller_outside_the_tests():
    # A public top-level function or class must be named, other than by its
    # own definition, in src/, in perfbench/ or in the README's Python code:
    # one that only tests reach is a path production never runs. Methods and
    # properties are out of scope; names are matched, not resolved.
    public = {}
    for path in sorted((ROOT / "src" / "tieflow").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public[f"{path.stem}.{node.name}"] = node.name
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources = [path.read_text(encoding="utf-8") for directory in ("src/tieflow", "perfbench")
               for path in sorted((ROOT / directory).glob("*.py"))]
    sources += re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    named = set()
    for tree in map(ast.parse, sources):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    uncalled = {key for key, name in public.items() if name not in named}
    assert uncalled == set(UNCALLED)
