"""The timeline workload's measured process.

It loads a built tie graph, then analyses it at evenly spaced instants
across the semester, as a user studying how communities change would:
`snapshot_at`, then `pagerank`, then `sweep_epsilon` over the CLI's default
origin fractions (one `detect_communities` plus `partition_report` each).
The graph load is set-up; event parsing, co-occurrence and JSON I/O do no
work in the measured passes.

Usage (run.py starts it with tieflow's `src` on PYTHONPATH):

    timeline.py GRAPH INSTANTS SECONDS TRACE SPANS_FILE LOADS

It loads the graph LOADS times, then repeats passes over the instants for
about SECONDS. With TRACE 1, odd passes (and the loads) run instrumented
and their spans are appended to SPANS_FILE. The last stdout line is a JSON
document with the load times and, per pass, its wall time, time in
snapshots, time in analysis, and one digest plus problem list per instant.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from contextlib import nullcontext

from measure import Tracer, instrument, now, run_passes

ifs = importlib.import_module("tieflow.ifs")
orient = importlib.import_module("tieflow.orient")
pagerank = importlib.import_module("tieflow.pagerank")
tiedecay = importlib.import_module("tieflow.tiedecay")

# The CLI's default `sweep --epsilons`.
EPSILONS = (0.5, 0.45, 0.4, 0.35, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05)


def sweep_line(row) -> str:
    """One sweep row as the CLI's `sweep` writes it."""
    return (f"{row.epsilon:.12g}\t{row.modularity:.12g}"
            f"\t{row.community_count}\t{row.avg_size:.12g}")


def instants(graph, count: int) -> list[float]:
    """`count` evenly spaced instants after the first co-occurrence, the
    last one at the graph's end time."""
    first = min(times[0] for times in graph.edges.values())
    span = graph.end_time() - first
    return [first + span * (k + 1) / count for k in range(count)]


def analyse(graph, decay, t: float):
    """One instant: returns (result text, snapshot seconds, analysis seconds, problems)."""
    t0 = now()
    snapshot = tiedecay.snapshot_at(graph, decay, t)
    t1 = now()
    ranking = pagerank.pagerank(snapshot)
    rows = ifs.sweep_epsilon(snapshot, ranking, EPSILONS, ifs.FlowParams())
    t2 = now()
    nodes = len(snapshot.nodes)
    problems = []
    if not ranking.converged:
        problems.append("pagerank did not converge")
    if abs(sum(ranking.scores.values()) - 1.0) > 1e-9:
        problems.append("pagerank scores do not sum to 1")
    for row in rows:
        if not -1.0 <= row.modularity <= 1.0:
            problems.append(f"modularity {row.modularity} outside [-1, 1]")
        if not 0 <= row.avg_size * row.community_count <= nodes:
            problems.append(f"{row.community_count} communities of {row.avg_size} exceed {nodes} nodes")
    text = f"{t:.12g}\t{snapshot.edge_count}\t{ranking.iterations}\n" + "".join(
        sweep_line(row) + "\n" for row in rows
    )
    return text, t1 - t0, t2 - t1, problems


def main() -> int:
    graph_path, count, seconds, trace, spans_file, loads = sys.argv[1:]
    count, seconds, trace, loads = int(count), float(seconds), trace == "1", int(loads)
    tracer = Tracer(prefix="timeline.")
    load_times = []
    for k in range(loads):
        tracer.run = f"setup.{k}"
        with instrument(tracer) if trace else nullcontext():
            t0 = now()
            graph = orient.read_tie_graph_json(graph_path)
            load_times.append(now() - t0)
    decay = tiedecay.DecayParams.from_half_life(tiedecay.DEFAULT_HALF_LIFE)
    times = instants(graph, count)
    passes = []

    def one_pass(k: int) -> None:
        traced = trace and k % 2 == 1
        # Untraced passes time themselves with a tracer that is thrown away.
        spans = tracer if traced else Tracer()
        spans.run = f"pass.{k}"
        results = []
        with instrument(spans) if traced else nullcontext():
            with spans.span("pass") as root:
                for t in times:
                    with spans.span("instant"):
                        results.append(analyse(graph, decay, t))
        passes.append({
            "traced": traced,
            "wall": root["end"] - root["start"],
            "graph_s": sum(r[1] for r in results),
            "analyze_s": sum(r[2] for r in results),
            "instants": [
                {"digest": hashlib.sha256(r[0].encode()).hexdigest(), "problems": r[3]}
                for r in results
            ],
        })

    run_passes(seconds, 2, one_pass)
    if trace:
        tracer.dump(spans_file)
    print(json.dumps({"loads": load_times, "passes": passes}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
