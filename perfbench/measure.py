"""Measurement helpers shared by the benchmark's processes.

- `run_passes`: the closed loop that repeats one pass until the time budget
  is spent.
- `Tracer` and `instrument`: spans around calls into tieflow's public
  functions, recorded from the benchmark's side of the call. A span is one
  timed call with its name, start, end, parent span id and run id
  ("setup.<k>" or "pass.<k>"), plus counts read from the call's arguments
  and result. Spans stay in memory until the process writes them out.
- `layer_metrics`: per-layer self time and counts derived from the spans.

All clocks are `time.monotonic`, which every process on the machine shares,
so spans written by child processes nest inside their parent's spans.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

now = time.monotonic


def run_passes(seconds: float, min_passes: int, one_pass) -> None:
    """Call one_pass(k) for k = 0, 1, ... until `seconds` are spent.

    A new pass starts only when half the median pass so far still fits in
    the budget, so a run measures about `seconds`; at least `min_passes` run.
    """
    started = now()
    walls: list[float] = []
    while True:
        t0 = now()
        one_pass(len(walls))
        walls.append(now() - t0)
        if len(walls) >= min_passes and now() - started + median(walls) / 2 > seconds:
            return


def _cooccur_counts(args, g):
    return {"pairs": len(g.edges), "matches": sum(len(times) for times in g.edges.values())}


def _orient_counts(args, g):
    edges = g.edges
    tied = sum(1 for a, b in edges if a < b and (b, a) in edges)
    return {"edges": len(edges), "tied_pairs": tied}


def _detect_counts(args, a):
    return {"detects": 1, "rounds": a.rounds, "labeled": len(a.labels), "nodes": len(args[0].nodes)}


# Span name -> (tieflow module, public function, counts read from (args, result)).
LAYER_CALLS = {
    "events.parse": ("events", "parse_events_path", lambda args, log: {"rows_in": len(log)}),
    "events.filter": (
        "events", "filter_events", lambda args, log: {"rows_dropped": len(args[0]) - len(log)}
    ),
    "events.write": ("events", "write_events_csv", None),
    "cooccur.build": ("cooccur", "build_cooccurrence_graph", _cooccur_counts),
    "cooccur.write": ("cooccur", "write_pair_counts_tsv", None),
    "orient.orient": ("orient", "orient_edges", _orient_counts),
    "orient.tsv_write": ("orient", "write_directed_edges_tsv", None),
    "orient.json_write": (
        "orient", "write_tie_graph_json", lambda args, _: {"json_bytes": os.path.getsize(args[1])}
    ),
    "orient.json_read": ("orient", "read_tie_graph_json", lambda args, _: {"json_reads": 1}),
    "tiedecay.snapshot": (
        "tiedecay", "snapshot_at", lambda args, s: {"snapshots": 1, "snapshot_nnz": s.matrix.nnz}
    ),
    "tiedecay.curve": ("tiedecay", "sample_snapshots", lambda args, s: {"curve_points": 1}),
    "tiedecay.tsv_write": ("tiedecay", "write_snapshot_tsv", None),
    "pagerank.solve": ("pagerank", "pagerank", lambda args, r: {"iterations": r.iterations}),
    "pagerank.tsv_write": ("pagerank", "write_scores_tsv", None),
    "ifs.detect": ("ifs", "detect_communities", _detect_counts),
    "ifs.sweep": ("ifs", "sweep_epsilon", None),
    "ifs.json_write": ("ifs", "write_assignment_json", None),
    "metrics.partition": ("metrics", "partition_report", None),
    "metrics.behavior": ("metrics", "behavior_profiles", None),
    "metrics.variance": ("metrics", "variance_comparison", None),
    "synth.generate": ("synth", "generate", lambda args, r: {"events": len(r[0])}),
}
# sample_snapshots is a generator: each step is its own span, so the curve
# time excludes the caller's work between steps, and counts come per step.
_GENERATORS = {"tiedecay.curve"}


class Tracer:
    """Collects spans in memory; `run` labels the spans recorded next."""

    def __init__(self, run: str = "", parent: str | None = None, prefix: str = ""):
        self.spans: list[dict] = []
        self.run = run
        self._stack = [parent]
        self._prefix = prefix
        self._count = 0

    def record(self, name: str, start: float, end: float, counts=None) -> dict:
        self._count += 1
        span = {
            "id": f"{self._prefix}{self._count}",
            "name": name,
            "start": start,
            "end": end,
            "parent": self._stack[-1],
            "run": self.run,
            "counts": counts or {},
        }
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        """Time the body; yields the span, whose id the body may hand on."""
        span = self.record(name, now(), 0.0)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            self._stack.pop()
            span["end"] = now()

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name` and attach its counts."""
        with self.span(name) as span:
            result = fn(*args, **kwargs)
        counter = LAYER_CALLS.get(name, (None, None, None))[2]
        if counter is not None:
            span["counts"] = counter(args, result)
        return result

    def steps(self, name: str, iterator):
        """Yield from iterator, one span per step, counts read from each item."""
        counter = LAYER_CALLS[name][2]
        while True:
            start = now()
            try:
                item = next(iterator)
            except StopIteration:
                return
            self.record(name, start, now(), counter(None, item))
            yield item

    def dump(self, path) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def read_spans(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _wrapper(tracer: Tracer, name: str, fn):
    if name in _GENERATORS:
        def traced(*args, **kwargs):
            return tracer.steps(name, fn(*args, **kwargs))
    else:
        def traced(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)
    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Route every loaded tieflow reference to a LAYER_CALLS function
    through a span, and restore the originals on exit."""
    importlib.import_module("tieflow")
    loaded = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "tieflow"]
    saved = []
    for name, (module, attr, _) in LAYER_CALLS.items():
        original = getattr(importlib.import_module(f"tieflow.{module}"), attr)
        traced = _wrapper(tracer, name, original)
        for holder in loaded:
            if getattr(holder, attr, None) is original:
                saved.append((holder, attr, original))
                setattr(holder, attr, traced)
    try:
        yield
    finally:
        for holder, attr, original in reversed(saved):
            setattr(holder, attr, original)


# Spans that are not calls into a layer. Their self time is the time a pass
# spends outside every layer call: CLI argument handling, the CLI's own
# loops and output, process exit, and the benchmark's loop.
UNATTRIBUTED = ("pass", "command.", "instant")


def _metric_name(span_name: str) -> str | None:
    if span_name == "cli.startup":
        return "cli.startup_s"
    if span_name.startswith(UNATTRIBUTED):
        return "cli.unattributed_s"
    if span_name in LAYER_CALLS or span_name.startswith("synth."):
        return f"{span_name}_s"
    return None


def _per_run(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per run id: self time per layer metric, module self times, counts."""
    covered: dict[str, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    runs: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        table = runs[span["run"]]
        name = _metric_name(span["name"])
        if name is not None:
            self_time = span["end"] - span["start"] - covered[span["id"]]
            table[name] += self_time
            table[name.split(".")[0] + ".self_s"] += self_time
        module = span["name"].split(".")[0]
        for key, value in span["counts"].items():
            table[f"{module}.{key}"] += value
    for table in runs.values():
        nodes = table.pop("ifs.nodes", 0)
        labeled = table.pop("ifs.labeled", 0)
        if nodes:
            table["ifs.coverage"] = labeled / nodes
    return runs


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Median per set-up plus median per pass of every layer metric.

    Set-up spans carry run ids "setup.<k>" and pass spans "pass.<k>"; a
    metric absent from a run counts as 0 there.
    """
    runs = _per_run(spans)
    names = sorted({name for table in runs.values() for name in table})
    result = {}
    for name in names:
        value = 0.0
        for group in ("setup.", "pass."):
            values = [table.get(name, 0.0) for run, table in runs.items() if run.startswith(group)]
            if values:
                value += median(values)
        result[name] = value
    return result


def pass_self_total(spans: list[dict]) -> list[float]:
    """Sum of every span's self time in each traced pass: its wall time, split."""
    return [sum(v for k, v in table.items() if k.endswith("_s") and not k.endswith(".self_s"))
            for run, table in sorted(_per_run(spans).items()) if run.startswith("pass.")]
