"""tieflow benchmark: generate a workload from a seed, run it, check it.

    python3 perfbench/run.py --workload planted --seed 0 --seconds 20 --trace 0

Workloads (see README.md for why each exists):

- planted, scale: the README quickstart chain, nine `tieflow` CLI processes
  run one after another on a synthetic event log.
- timeline: library calls in one process on the scale tie graph, at evenly
  spaced instants across the semester.

The load is a closed loop of one client: each command or call starts when
the previous one has finished. A run repeats whole passes (one chain, or
one sweep over the instants) for about --seconds and reports medians over
passes. With --trace 0 the last stdout line carries the end-to-end metrics;
with --trace 1 the run alternates untraced and traced passes, writes spans
to .perfbench/<run>/spans.jsonl and the last line carries per-layer metrics.
Every run writes its full result to .perfbench/<run>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

from measure import Tracer, layer_metrics, pass_self_total, read_spans, run_passes  # noqa: E402

WEEK = 7 * 86400
WINDOW = 120
SETUPS = 3  # set-ups per run; setup_s is their median
COMMAND_TIMEOUT = 150

# Inputs: the planted and criterion-10 configurations of the test suite,
# shrunk so that one run, set-up included, stays well under a minute. The
# planted config keeps its 12 weeks and rates, so pairs stay dense with long
# per-pair event lists; scale keeps 5,000 students and its rates, so pairs
# stay sparse and the tie graph large relative to the event count.
PLANTED = dict(n_students=100, n_communities=4, weeks=12, intra_rate=3.0, inter_rate=0.2, seed=0)
SCALE = dict(n_students=5000, n_communities=50, weeks=2, intra_rate=0.075, inter_rate=0.0002, seed=42)
WORKLOADS = {
    "planted": {"kind": "chain", "config": PLANTED},
    "scale": {"kind": "chain", "config": SCALE},
    "timeline": {"kind": "timeline", "config": SCALE, "instants": 4},
}

GRAPH = "build/tie_graph.json"
# (name, CLI arguments, artifacts) in README quickstart order. Commands run
# in a fresh directory per pass, with the inputs in ../data.
CHAIN = [
    ("ingest", ["ingest", "--input", "../data/events.csv", "--output", "canonical.csv"],
     ["canonical.csv", "canonical.csv.meta.json"]),
    ("build", ["build", "--events", "canonical.csv", "--output-dir", "build"],
     ["build/cooccurrence.tsv", "build/directed_edges.tsv", GRAPH]),
    ("snapshot", ["snapshot", "--graph", GRAPH, "--output", "snapshot.tsv"], ["snapshot.tsv"]),
    ("pagerank", ["pagerank", "--graph", GRAPH, "--output", "scores.tsv"], ["scores.tsv"]),
    ("detect", ["detect", "--graph", GRAPH, "--epsilon", "0.2", "--seed", "7",
                "--output", "communities.json"], ["communities.json"]),
    ("evaluate", ["evaluate", "--graph", GRAPH, "--communities", "communities.json",
                  "--events", "canonical.csv", "--categories", "../data/categories.json",
                  "--output", "report.json"], ["report.json"]),
    ("sweep", ["sweep", "--graph", GRAPH, "--output", "sweep.tsv"], ["sweep.tsv"]),
    ("report-sweep", ["report", "--sweep", "sweep.tsv", "--output", "sweep_table.txt"],
     ["sweep_table.txt"]),
    ("report-graph", ["report", "--graph", GRAPH, "--output", "curve.csv"], ["curve.csv"]),
]
GRAPH_COMMANDS = {"ingest", "build"}  # raw CSV to tie_graph.json; the rest analyse it
# tie_graph.json may change encoding; every other artifact must stay byte-identical.
UNPINNED = {GRAPH}

E2E_UNITS = {"setup_s": "s", "events_per_s": "1/s", "graph_s": "s", "analyze_s": "s",
             "peak_rss_mb": "MB", "instants_per_s": "1/s"}


def load_tieflow():
    """Import tieflow from this checkout's src/, or exit 2 if it is missing."""
    if not (SRC / "tieflow" / "__init__.py").is_file():
        print(f"error: no tieflow sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import tieflow

    if Path(tieflow.__file__).resolve().parent != SRC / "tieflow":
        print(f"error: imported tieflow from {tieflow.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = quantiles(values, n=4)
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


class Run:
    """One benchmark run: inputs, passes, checks and the operations ledger."""

    def __init__(self, name: str, spec: dict, seed: int, seconds: float, trace: bool, run_dir: Path):
        self.name, self.spec, self.seed = name, spec, seed
        self.seconds, self.trace = seconds, trace
        self.dir = run_dir
        self.data = run_dir / "data"
        self.spans_file = run_dir / "spans.jsonl"
        self.tracer = Tracer()
        outer = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{outer}" if outer else str(SRC))
        self.attempted = 0
        self.failed: set[str] = set()
        self.failures: list[str] = []
        self.setup_walls: list[float] = []
        self.inputs: dict = {}
        pins = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))
        self.pinned = pins.get(name) if seed == 0 else None

    def fail(self, op: str, why: str) -> None:
        """Count operation `op` as failed; an operation fails at most once."""
        self.failed.add(op)
        self.failures.append(f"{op}: {why}")

    # ----------------------------------------------------------- set-up

    def setup(self, build_graph: bool) -> None:
        """Generate the inputs SETUPS times; the last copy stays in data/."""
        from tieflow import cooccur, events, orient, synth

        cfg = dict(self.spec["config"])
        weeks = cfg.pop("weeks")
        config = synth.SyntheticConfig(
            semester=events.TimeRange(0, weeks * WEEK), jitter=60,
            **dict(cfg, seed=cfg["seed"] + self.seed),
        )
        self.data.mkdir(parents=True)
        digests = []
        for k in range(SETUPS):
            self.tracer.run = f"setup.{k}"
            with self.tracer.span("setup") as span:
                log, _ = self.tracer.call("synth.generate", synth.generate, config)
                self.tracer.call("synth.write", write_inputs, log, config, self.data)
                if build_graph:
                    log = self.tracer.call("events.parse", events.parse_events_path,
                                           self.data / "events.csv")
                    log = self.tracer.call("events.filter", events.filter_events, log, frozenset())
                    pairs = self.tracer.call("cooccur.build", cooccur.build_cooccurrence_graph,
                                             log, WINDOW)
                    graph = self.tracer.call("orient.orient", orient.orient_edges, pairs)
                    self.tracer.call("orient.json_write", orient.write_tie_graph_json, graph,
                                     self.data / "tie_graph.json",
                                     {"events": "events.csv", "window": WINDOW})
            self.setup_walls.append(span["end"] - span["start"])
            self.attempted += 1
            digests.append(sha256(self.data / "events.csv"))
            if digests[-1] != digests[0]:
                self.fail(f"set-up {k}", "events.csv differs from set-up 0")
            if self.pinned and digests[-1] != self.pinned["events.csv"]:
                self.fail(f"set-up {k}", "events.csv does not match its pinned digest")
        self.digests = {"events.csv": digests[0]}
        self.inputs = {
            "events": len(log),
            "students": len(log.students),
            "locations": len(log.locations),
        }
        if build_graph:
            self.graph = graph
            self.inputs.update(pairs=len(pairs.edges), directed_edges=len(graph.edges),
                               tie_graph_bytes=(self.data / "tie_graph.json").stat().st_size)

    def finish_inputs(self) -> None:
        n = self.inputs["students"]
        self.inputs["events_per_student_location"] = (
            self.inputs["events"] / (n * self.inputs["locations"]))
        self.inputs["pair_density"] = self.inputs["pairs"] / (n * (n - 1) / 2)
        self.inputs["commit"] = commit()
        self.inputs["src_lines"] = sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "tieflow").glob("*.py"))



def children_peak_rss_mb() -> float:
    """Largest peak RSS among this process's finished children."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def read_text(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


def write_inputs(log, config, data_dir: Path) -> None:
    """The synth command's inputs for the chain: events.csv and categories.json."""
    from tieflow import events, synth

    events.write_events_csv(log, data_dir / "events.csv")
    with open(data_dir / "categories.json", "w", encoding="utf-8") as handle:
        json.dump(synth.default_category_map(config), handle, indent=2, sort_keys=True)
        handle.write("\n")


def commit() -> str:
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# ------------------------------------------------------------------ chains


class ChainRun(Run):
    def measure(self, tamper=None) -> None:
        self.setup(build_graph=False)
        self.passes: list[dict] = []

        def one_pass(k: int) -> None:
            self.passes.append(self.chain_pass(k, traced=self.trace and k % 2 == 1))
            if tamper is not None:
                tamper(self.dir / f"pass{k}")
            self.passes[-1]["digests"] = self.artifact_digests(self.dir / f"pass{k}")

        run_passes(self.seconds, 2, one_pass)
        self.rss = children_peak_rss_mb()
        self.check()
        self.digests.update((out, digest) for out, digest in self.passes[0]["digests"].items()
                            if out not in UNPINNED)
        first = self.dir / "pass0"

        def rows(rel: str) -> int:
            text = read_text(first / rel) or ""
            return sum(1 for line in text.splitlines() if not line.startswith("#"))

        self.inputs.update(pairs=rows("build/cooccurrence.tsv"),
                           directed_edges=rows("build/directed_edges.tsv"),
                           tie_graph_bytes=(first / GRAPH).stat().st_size
                           if (first / GRAPH).is_file() else 0)
        self.finish_inputs()
        for k in range(len(self.passes)):
            shutil.rmtree(self.dir / f"pass{k}")

    def chain_pass(self, k: int, traced: bool) -> dict:
        tracer = self.tracer
        tracer.run = f"pass.{k}" if traced else f"untraced.{k}"
        pass_dir = self.dir / f"pass{k}"
        pass_dir.mkdir()
        commands = {}
        with tracer.span("pass") as root:
            for name, argv, outputs in CHAIN:
                with tracer.span(f"command.{name}") as span:
                    if traced:
                        cmd = [sys.executable, str(HERE / "clitrace.py"), str(self.spans_file),
                               span["id"], tracer.run, repr(span["start"]), "--", *argv]
                    else:
                        cmd = [sys.executable, "-m", "tieflow.cli", *argv]
                    code = self.command(cmd, pass_dir)
                self.attempted += 1
                ok = code == 0 and all((pass_dir / out).is_file() for out in outputs)
                if not ok:
                    self.fail(f"pass {k} {name}", f"exited {code}")
                commands[name] = {"ok": ok, "s": span["end"] - span["start"]}
        return {"traced": traced, "wall": root["end"] - root["start"], "commands": commands}

    def command(self, cmd: list[str], cwd: Path):
        with open(self.dir / "stderr.txt", "w", encoding="utf-8") as err:
            try:
                done = subprocess.run(cmd, cwd=cwd, env=self.env, stdout=subprocess.DEVNULL,
                                      stderr=err, timeout=COMMAND_TIMEOUT)
            except subprocess.TimeoutExpired:
                return None
        if done.returncode != 0:
            sys.stderr.write((self.dir / "stderr.txt").read_text(encoding="utf-8")[-2000:])
        return done.returncode

    @staticmethod
    def artifact_digests(pass_dir: Path) -> dict:
        return {out: sha256(pass_dir / out) for _, _, outs in CHAIN for out in outs
                if (pass_dir / out).is_file()}

    def check(self) -> None:
        """Determinism across passes, then pinned digests on the default seed
        or an in-process library run on any other seed."""
        owner = {out: name for name, _, outs in CHAIN for out in outs}
        first = self.passes[0]["digests"]
        for k, p in enumerate(self.passes[1:], start=1):
            for out, digest in p["digests"].items():
                if first.get(out) != digest:
                    self.fail(f"pass {k} {owner[out]}", f"wrote {out} unlike pass 0")
        wrong = set()
        if self.pinned:
            for out, digest in first.items():
                if out not in UNPINNED and self.pinned.get(out) != digest:
                    wrong.add(owner[out])
        else:
            communities, sweep = library_outputs(self.data)
            try:
                doc = json.loads(read_text(self.dir / "pass0" / "communities.json") or "")
                got = [doc["communities"], doc["isolated"]]
            except (ValueError, KeyError, TypeError):
                got = None
            if got != communities:
                wrong.add("detect")
            text = read_text(self.dir / "pass0" / "sweep.tsv") or ""
            if [line for line in text.splitlines() if line[:1].isdigit()] != sweep:
                wrong.add("sweep")
        for name in sorted(wrong):
            for k in range(len(self.passes)):
                self.fail(f"pass {k} {name}", "output is wrong")

    def metrics(self) -> dict:
        untraced = [p for p in self.passes if not p["traced"]]
        graph = [sum(c["s"] for n, c in p["commands"].items() if n in GRAPH_COMMANDS)
                 for p in untraced]
        analyze = [sum(c["s"] for n, c in p["commands"].items() if n not in GRAPH_COMMANDS)
                   for p in untraced]
        return {
            "setup_s": self.setup_walls,
            "events_per_s": [self.inputs["events"] / p["wall"] for p in untraced],
            "graph_s": graph,
            "analyze_s": analyze,
            "peak_rss_mb": [self.rss],
        }


def library_outputs(data_dir: Path):
    """Communities and sweep rows of the chain, computed in this process."""
    from tieflow import cooccur, events, ifs, orient, tiedecay
    from timeline import EPSILONS, sweep_line

    pagerank = importlib.import_module("tieflow.pagerank")
    log = events.filter_events(events.parse_events_path(data_dir / "events.csv"), frozenset())
    graph = orient.orient_edges(cooccur.build_cooccurrence_graph(log, WINDOW))
    t = float(graph.end_time())
    snapshot = tiedecay.snapshot_at(
        graph, tiedecay.DecayParams.from_half_life(tiedecay.DEFAULT_HALF_LIFE), t)
    ranking = pagerank.pagerank(snapshot)
    flow = ifs.FlowParams(seed=7)
    doc = ifs.assignment_to_doc(ifs.detect_communities(snapshot, ranking, 0.2, flow),
                                time=t, epsilon=0.2, params=flow)
    rows = ifs.sweep_epsilon(snapshot, ranking, EPSILONS, ifs.FlowParams())
    return [doc["communities"], doc["isolated"]], [sweep_line(row) for row in rows]


# ---------------------------------------------------------------- timeline


class TimelineRun(Run):
    def measure(self, tamper=None) -> None:
        from tieflow.tiedecay import DEFAULT_HALF_LIFE, DecayParams
        from timeline import analyse, instants

        self.setup(build_graph=True)
        self.finish_inputs()
        if tamper is not None:
            tamper(self.data)
        count = self.spec["instants"]
        cmd = [sys.executable, str(HERE / "timeline.py"), str(self.data / "tie_graph.json"),
               str(count), repr(self.seconds), str(int(self.trace)), str(self.spans_file),
               str(SETUPS)]
        done = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT)
        self.rss = children_peak_rss_mb()
        if done.returncode != 0:
            sys.stderr.write(done.stderr[-2000:])
            self.attempted += count
            for i in range(count):
                self.fail(f"instant {i}", f"timeline process exited {done.returncode}")
            self.loads, self.passes = [], []
            return
        doc = json.loads(done.stdout.splitlines()[-1])
        self.loads, self.passes = doc["loads"], doc["passes"]
        first = [i["digest"] for i in self.passes[0]["instants"]]
        self.digests["instants"] = first
        # The last instant again, in this process on the graph it built
        # rather than the file the timeline process read.
        decay = DecayParams.from_half_life(DEFAULT_HALF_LIFE)
        text = analyse(self.graph, decay, instants(self.graph, count)[-1])[0]
        reference = hashlib.sha256(text.encode()).hexdigest()
        for k, p in enumerate(self.passes):
            for i, instant in enumerate(p["instants"]):
                self.attempted += 1
                op = f"pass {k} instant {i}"
                for problem in instant["problems"]:
                    self.fail(op, problem)
                if instant["digest"] != first[i]:
                    self.fail(op, "result differs from pass 0")
                if self.pinned and first[i] != self.pinned["instants"][i]:
                    self.fail(op, "result does not match its pinned digest")
            if p["instants"][-1]["digest"] != reference:
                self.fail(f"pass {k} instant {count - 1}", "result differs from an in-process run")

    def metrics(self) -> dict:
        untraced = [p for p in self.passes if not p["traced"]]
        load = median(self.loads) if self.loads else 0.0
        return {
            "setup_s": [wall + load for wall in self.setup_walls],
            "events_per_s": [self.inputs["events"] / p["wall"] for p in untraced],
            "graph_s": [p["graph_s"] for p in untraced],
            "analyze_s": [p["analyze_s"] for p in untraced],
            "peak_rss_mb": [self.rss],
            "instants_per_s": [self.spec["instants"] / p["wall"] for p in untraced],
        }


# ------------------------------------------------------------- entry point


def execute(name: str, spec: dict, seed: int, seconds: float, trace: bool, run_dir: Path,
            tamper=None) -> dict:
    """Run one workload; `tamper` (tests only) may alter each pass's outputs."""
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    run = (ChainRun if spec["kind"] == "chain" else TimelineRun)(
        name, spec, seed, seconds, trace, run_dir)
    run.measure(tamper)
    e2e = {key: summary(values) for key, values in run.metrics().items() if values}
    result = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "inputs": run.inputs,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "failures": run.failures,
        "end_to_end": e2e,
        "pass_walls": [p["wall"] for p in run.passes],
        "digests": run.digests,
    }
    if trace:
        spans = run.tracer.spans
        if run.spans_file.exists():
            spans = read_spans(run.spans_file) + spans
        run.tracer.dump(run.spans_file)
        layers = layer_metrics(spans)
        untraced = [p["wall"] for p in run.passes if not p["traced"]]
        traced = [p["wall"] for p in run.passes if p["traced"]]
        layers["trace.overhead_s"] = median(traced) - median(untraced)
        result["per_layer"] = layers
        result["accounting"] = {
            "untraced_wall_s": median(untraced),
            "traced_wall_s": median(traced),
            "traced_self_sum_s": median(pass_self_total(spans)),
            "overhead_s": layers["trace.overhead_s"],
        }
    (run_dir / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return result


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "ifs.coverage":
        return "ratio"
    if name == "orient.json_bytes":
        return "bytes"
    return "count"


def report(result: dict, benchmark: dict) -> dict:
    """Print the human-readable tables; return the last-line document."""
    print(f"workload {result['workload']} seed {result['seed']} trace {int(result['trace'])}")
    for key, value in result["inputs"].items():
        print(f"  input {key} = {value}")
    attempted, failed = result["attempted"], result["failed"]
    for why in result["failures"][:20]:
        print(f"  FAILED {why}")
    print(f"  {'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}  unit")
    for key, s in result["end_to_end"].items():
        print(f"  {key:<32} {s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g}"
              f" {s['n']:>3}  {E2E_UNITS[key]}")
    print(f"  {'error_rate':<32} {failed / attempted:>14.6g} {'':>14} {'':>14}"
          f" {attempted:>3}  failed/attempted")
    if result["trace"]:
        for key, value in sorted(result["per_layer"].items()):
            print(f"  {key:<32} {value:>14.6g}  {layer_unit(key)}")
        for key, value in result["accounting"].items():
            print(f"  accounting {key} = {value:.6g}")
        wanted = benchmark["per_layer"]
        metrics = {m["name"]: {"value": result["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in wanted}
    else:
        wanted = benchmark["end_to_end"]
        metrics = {m["name"]: {"value": result["end_to_end"][m["name"]]["median"],
                               "unit": m["unit"]} for m in wanted}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="added to the workload's default input seed (0 = pinned data)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_tieflow()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = execute(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), run_dir)
    print(json.dumps(report(result, benchmark)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
