"""Command-line pipeline: ingest, build, snapshot, pagerank, detect,
evaluate, sweep, synth, report.

Stages persist their artifacts (canonical event CSV and its column
companion, tie-graph JSON, snapshot/score TSVs, community JSON) so
expensive steps are reusable, and every output embeds the parameters that
produced it. Exit codes: 0 success, 1 usage error, 2 data error, 3
non-convergence flag.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import metrics, synth
from .artifacts import DataError, decoding, read_json, read_text, write_json, write_lines
from .events import (TIME_LIMIT, ParseError, TimeRange, filter_events, parse_events_path,
                     parse_time, write_canonical, write_events_csv)
from .cooccur import DEFAULT_WINDOW, build_cooccurrence_graph, write_pair_counts_tsv
from .ifs import (FlowParams, assignment_to_doc, detect_communities, read_assignment_json,
                  sweep_epsilon, write_assignment_json)
from .orient import orient_edges, read_tie_graph_json, write_directed_edges_tsv, write_tie_graph_json
from .pagerank import WalkParams, pagerank, write_scores_tsv
from .tiedecay import (DEFAULT_HALF_LIFE, DecayParams, live_totals, sample_snapshots, snapshot_at,
                       write_snapshot_tsv)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NOT_CONVERGED = 3

MAX_CURVE_POINTS = 1_000_000  # report --n-points; the default is 1000


class UsageError(Exception):
    pass


def _time(text: str) -> int:
    """Type of the time options: epoch seconds or YYYY-MM-DDTHH:MM:SS (UTC)."""
    try:
        return parse_time(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _time_or_end(text: str) -> int | str:
    """Type of --time: a time, or 'end' for the graph's last co-occurrence."""
    return text if text == "end" else _time(text)


def _origin_fraction(text: str) -> float:
    """Type of --epsilon and of each --epsilons entry."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"epsilon {text!r} outside (0, 1]")
    return value


def _origin_fractions(text: str) -> list[float]:
    values = [_origin_fraction(part) for part in text.split(",") if part]
    if not values:
        raise argparse.ArgumentTypeError("list at least one epsilon")
    return values


def _location_counts(text: str) -> dict[str, int]:
    """Type of synth --locations: category=count entries, each category
    named once; empty text means the default counts."""
    counts: dict[str, int] = {}
    for part in text.split(",") if text else ():
        category, equals, count = part.partition("=")
        category = category.strip()
        if not equals or not category:
            raise argparse.ArgumentTypeError(f"bad --locations entry {part!r} (want category=count)")
        if category in counts:
            raise argparse.ArgumentTypeError(f"category {category!r} is listed twice")
        try:
            counts[category] = int(count)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad --locations count in {part!r}") from None
    return counts


def _build_params(args) -> None:
    """Build the command's decay, walk and flow parameters before any file
    is read; their classes check every bound."""
    try:
        if "alpha" in args:
            half_life = DEFAULT_HALF_LIFE if args.half_life is None else args.half_life
            args.decay = (DecayParams(args.alpha) if args.alpha is not None
                          else DecayParams.from_half_life(half_life))
        if "damping" in args:
            args.walk = WalkParams(args.damping, args.tolerance, args.max_iterations)
        if "beta" in args:
            args.flow = FlowParams(args.beta, args.seed, args.max_rounds, relay=not args.single_hop)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _reject_given(options: dict, reason: str) -> None:
    """Usage error naming each of `options` whose value is not None."""
    given = [option for option, value in options.items() if value is not None]
    if given:
        raise UsageError(f"{', '.join(given)} {reason}")


def _check_order(start, end, what: str) -> None:
    """Usage error if both bounds are known and start is not before end."""
    if start is not None and end is not None and start >= end:
        raise UsageError(f"{what} must start before it ends")


def _load_events(path):
    try:
        return parse_events_path(path)
    except FileNotFoundError:
        raise DataError(f"events file not found: {path}") from None
    except (ParseError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from None


def _graph_at(args):
    """The --graph tie graph, --time resolved against it, and the graph and
    alpha entries of the parameters that its artifacts embed."""
    graph = read_tie_graph_json(args.graph)
    t = float(graph.end_time() if args.time in ("end", None) else args.time)
    return graph, t, {"graph": str(args.graph), "alpha": args.decay.alpha}


def _snapshot(args):
    """The snapshot at --time and its graph/time/alpha parameter entries."""
    graph, t, params = _graph_at(args)
    snapshot = snapshot_at(graph, args.decay, t)
    if snapshot.edge_count == 0:
        raise UsageError(f"no tie has weight at t={t:.12g}; the graph's first co-occurrence "
                         f"is at {graph.start_time()}")
    return snapshot, dict(params, time=t)


def _param_comments(params: dict) -> list[str]:
    return [f"{key} = {params[key]}" for key in sorted(params)]


# ---------------------------------------------------------------- handlers


def _handle_ingest(args) -> int:
    log = _load_events(args.input)
    keep = frozenset(map(str.strip, args.keep_locations.split(","))) - {""}
    unknown = keep.difference(log.locations)
    if unknown:
        raise UsageError(f"--keep-locations entry {min(unknown)!r} names no location of {args.input}")
    filtered = filter_events(log, keep)
    out = Path(args.output)
    write_canonical(filtered, out)
    write_json(
        out.with_suffix(out.suffix + ".meta.json"),
        {
            "input": str(args.input),
            "keep_locations": sorted(keep),
            "records_in": len(log),
            "records_out": len(filtered),
            "students": len(filtered.students),
            "locations": len(filtered.locations),
        },
    )
    print(f"wrote {out} ({len(filtered)} records)")
    return EXIT_OK


def _handle_build(args) -> int:
    if args.window <= 0:
        raise UsageError("--window must be positive")
    log = _load_events(args.events)
    try:
        cograph = build_cooccurrence_graph(log, window=args.window)
    except ValueError as exc:  # a window too wide for the log
        raise DataError(f"{args.events}: {exc}") from None
    if not len(cograph.src):
        raise DataError(f"{args.events}: no two students co-occur within --window {args.window} s, "
                        "so the tie graph would have no edges")
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = {"events": str(args.events), "window": args.window}
    write_pair_counts_tsv(cograph, out_dir / "cooccurrence.tsv", _param_comments(params))
    tie_graph = orient_edges(cograph)
    write_directed_edges_tsv(tie_graph, out_dir / "directed_edges.tsv", _param_comments(params))
    write_tie_graph_json(tie_graph, out_dir / "tie_graph.json", params)
    print(f"wrote {out_dir}/tie_graph.json "
          f"({len(tie_graph.nodes)} nodes, {len(tie_graph.src)} directed edges)")
    return EXIT_OK


def _handle_snapshot(args) -> int:
    snapshot, params = _snapshot(args)
    write_snapshot_tsv(snapshot, args.decay, args.output, _param_comments(params))
    print(f"wrote {args.output} ({snapshot.edge_count} edges at t={snapshot.time:.12g})")
    return EXIT_OK


def _handle_pagerank(args) -> int:
    snapshot, params = _snapshot(args)
    result = pagerank(snapshot, args.walk)
    params.update(damping=args.damping, tolerance=args.tolerance,
                  iterations=result.iterations, converged=result.converged)
    write_scores_tsv(result, args.output, _param_comments(params))
    print(f"wrote {args.output} (converged={result.converged} after {result.iterations} iterations)")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _handle_detect(args) -> int:
    snapshot, params = _snapshot(args)
    ranking = pagerank(snapshot, args.walk)
    assignment = detect_communities(snapshot, ranking, args.epsilon, args.flow)
    t = params.pop("time")  # the document's own field, not one of its params
    doc = assignment_to_doc(assignment, t, args.epsilon, args.flow, dict(
        params, damping=args.damping, max_rounds=args.max_rounds, relay=args.flow.relay,
        rounds_run=assignment.rounds, pagerank_converged=ranking.converged))
    write_assignment_json(doc, args.output)
    print(f"wrote {args.output} ({len(assignment.origin_of)} communities, "
          f"{len(doc['isolated'])} isolated)")
    return EXIT_OK if ranking.converged else EXIT_NOT_CONVERGED


def _behavior(args, assignment) -> dict:
    """Behavior indicator variances for evaluate --events/--categories."""
    log = _load_events(args.events)
    category_map = read_json(args.categories, "categories file")
    if not isinstance(category_map, dict) or not all(
        isinstance(category, str) for category in category_map.values()
    ):
        raise DataError(f"malformed categories file {args.categories}: "
                        "want an object mapping location id to category")
    if not len(log):
        raise DataError(f"events file {args.events} has no records")
    span = log.time_range()
    start = span.start if args.semester_start is None else args.semester_start
    end = span.end if args.semester_end is None else args.semester_end
    _check_order(start, end, "the semester")
    semester = TimeRange(start, end)
    try:
        profiles = metrics.behavior_profiles(log, category_map, semester)
    except ValueError as exc:
        raise DataError(f"categories file {args.categories}: {exc}") from None
    try:
        table = metrics.variance_comparison(log.students, profiles, assignment)
    except ValueError as exc:  # an indicator too large to take a variance of
        raise DataError(f"events file {args.events}: {exc}") from None
    if assignment.values and math.isnan(table["times"][1]):  # a count: NaN iff none qualifies
        raise DataError(f"communities file {args.communities} has no community with two members "
                        f"in events file {args.events}")
    return {  # with no community there is no within-community variance: null
        name: {"variance_all": pair[0],
               "mean_within_community_variance": pair[1] if assignment.values else None}
        for name, pair in table.items()
    }


def _handle_evaluate(args) -> int:
    if args.events is None:
        _reject_given({"--categories": args.categories, "--semester-start": args.semester_start,
                       "--semester-end": args.semester_end}, "apply only with --events")
    elif args.categories is None:
        raise UsageError("--events requires --categories")
    _check_order(args.semester_start, args.semester_end, "the semester")
    snapshot, params = _snapshot(args)
    assignment = read_assignment_json(args.communities, snapshot.nodes)
    report = metrics.partition_report(snapshot, assignment, directed=not args.undirected)
    doc = {"params": dict(params, communities=str(args.communities),
                          modularity_variant="undirected" if args.undirected else "directed"),
           "partition": asdict(report)}
    if args.events is not None:
        doc["behavior"] = _behavior(args, assignment)
    write_json(args.output, doc)
    print(f"wrote {args.output} (modularity={report.modularity:.6f})")
    return EXIT_OK


def _handle_sweep(args) -> int:
    snapshot, params = _snapshot(args)
    ranking = pagerank(snapshot, args.walk)
    rows = sweep_epsilon(snapshot, ranking, args.epsilons, args.flow)
    params.update(damping=args.damping, beta=args.beta, seed=args.seed)
    lines = ["epsilon\tmodularity\tcommunity_count\tavg_size"] + [
        f"{row.epsilon:.12g}\t{row.modularity:.12g}\t{row.community_count}\t{row.avg_size:.12g}"
        for row in rows
    ]
    write_lines(args.output, _param_comments(params), lines)
    print(f"wrote {args.output} ({len(rows)} rows)")
    return EXIT_OK if ranking.converged else EXIT_NOT_CONVERGED


def _handle_synth(args) -> int:
    if not 0 < args.weeks < math.inf:
        raise UsageError("--weeks must be positive and finite")
    if args.weeks * synth.WEEK_SECONDS < 1:
        raise UsageError(f"--weeks {args.weeks:g}: the semester must last at least one second")
    locations = args.locations or dict(synth.DEFAULT_LOCATIONS)
    try:
        weeks = min(args.weeks, TIME_LIMIT)  # still ends past TIME_LIMIT; seconds stay finite
        semester = TimeRange(args.start, args.start + int(weeks * synth.WEEK_SECONDS))
        config = synth.SyntheticConfig(
            n_students=args.students, n_communities=args.communities, semester=semester,
            intra_rate=args.intra_rate, inter_rate=args.inter_rate, jitter=args.jitter,
            seed=args.seed, locations_per_category=locations)
        log, truth = synth.generate(config)  # validates the config; ValueError if infeasible
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_events_csv(log, out_dir / "events.csv")
    params = {"students": args.students, "communities": args.communities,
              "intra_rate": args.intra_rate, "inter_rate": args.inter_rate, "weeks": args.weeks,
              "jitter": args.jitter, "seed": args.seed, "semester_start": semester.start,
              "semester_end": semester.end, "locations": locations}
    write_json(out_dir / "ground_truth.json", {"params": params, "labels": truth})
    write_json(out_dir / "categories.json", synth.default_category_map(config))
    print(f"wrote {out_dir}/events.csv ({len(log)} events)")
    return EXIT_OK


def _curve(args) -> int:
    n_points = 1000 if args.n_points is None else args.n_points
    if not 2 <= n_points <= MAX_CURVE_POINTS:
        raise UsageError(f"--n-points must lie in [2, {MAX_CURVE_POINTS}]")
    _check_order(args.start_time, None if args.time == "end" else args.time, "the curve")
    graph, t_end, params = _graph_at(args)
    t_start = float(graph.start_time() if args.start_time is None else args.start_time)
    if args.start_time is None and t_start == graph.end_time() == t_end:
        raise DataError(f"every co-occurrence in tie graph file {args.graph} is at {t_end:.12g}; "
                        "give an earlier --start-time to draw a curve")
    if args.start_time is None and t_start >= t_end:
        raise UsageError(f"the curve starts by default at the graph's first co-occurrence, "
                         f"t={t_start:.12g}, which is not before --time {t_end:.12g}; "
                         "give an earlier --start-time")
    _check_order(t_start, t_end, "the curve")
    params.update(t_start=t_start, t_end=t_end, n_points=n_points)

    def rows():
        yield "time,active_edges,total_weight,mean_weight"
        for t, weights in sample_snapshots(graph, args.decay, t_start, t_end, n_points):
            count, total = live_totals(weights)
            mean = total / count if count else 0.0
            yield f"{t:.12g},{count},{total:.12g},{mean:.12g}"

    write_lines(args.output, _param_comments(params), rows())
    print(f"wrote {args.output} ({n_points} curve points)")
    return EXIT_OK


def _sweep_table(path) -> list[str]:
    rows = []
    for number, line in enumerate(read_text(path, "sweep file").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("epsilon"):
            continue
        try:
            epsilon, modularity, count, avg = line.split("\t")
            rows.append([f"{float(epsilon):.0%}", f"{float(modularity):.3f}",
                         f"{int(count)}", f"{float(avg):.3f}"])
        except ValueError:
            raise DataError(f"malformed sweep file {path}, line {number}: "
                            f"want 4 numeric cells, got {line!r}") from None
    return _format_table(["origin fraction", "modularity", "communities", "avg members"], rows)


def _evaluation_table(path) -> list[str]:
    doc = read_json(path, "evaluation file")
    with decoding(path, "evaluation file"):
        partition = doc["partition"]
        lines = _format_table(
            ["metric", "value"],
            [["modularity", f"{partition['modularity']:.3f}"],
             ["communities", str(partition["community_count"])],
             ["avg members", f"{partition['avg_size']:.3f}"],
             ["isolated", str(partition["isolated_count"])]],
        )
        if "behavior" in doc:
            lines.append("")
            lines.extend(_format_table(
                ["indicator", "variance all", "mean within community"],
                [[name, f"{cell['variance_all']:.4f}",
                  "none" if cell["mean_within_community_variance"] is None
                  else f"{cell['mean_within_community_variance']:.4f}"]
                 for name, cell in sorted(doc["behavior"].items())]))
    return lines


def _handle_report(args) -> int:
    if args.graph is not None:
        return _curve(args)
    _reject_given({"--time": args.time, "--alpha": args.alpha, "--half-life": args.half_life,
                   "--start-time": args.start_time, "--n-points": args.n_points},
                  "apply only to a --graph curve")
    lines = _sweep_table(args.sweep) if args.sweep is not None else _evaluation_table(args.evaluation)
    write_lines(args.output, (), lines)
    print(f"wrote {args.output}")
    return EXIT_OK


def _format_table(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    def fmt(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return lines


# ------------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # subparsers too: `--eps` is not `--epsilon`
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        """Report bad arguments as a usage error, usage line after the message."""
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _add_graph_arguments(parser, graph_group=None) -> None:
    """--graph, --time, --output and the decay options of the commands that
    read a tie graph; --graph joins graph_group when one is given."""
    owner = parser if graph_group is None else graph_group
    owner.add_argument("--graph", required=graph_group is None, help="tie_graph.json from build")
    parser.add_argument("--time", type=_time_or_end, default="end",
                        help="epoch seconds, ISO timestamp, or 'end' (default end)")
    parser.add_argument("--output", required=True)
    decay = parser.add_mutually_exclusive_group()
    decay.add_argument("--half-life", type=float, default=None, help="tie half-life in seconds "
                       "(default 604800 = 7 days; mutually exclusive with --alpha)")
    decay.add_argument("--alpha", type=float, default=None,
                       help="decay rate per second (mutually exclusive with --half-life)")


def _add_walk_arguments(parser) -> None:
    parser.add_argument("--damping", type=float, default=WalkParams.damping,
                        help="random-walk damping (default %(default)s)")
    parser.add_argument("--tolerance", type=float, default=WalkParams.tolerance,
                        help="L1 convergence threshold (default %(default)s)")
    parser.add_argument("--max-iterations", type=int, default=WalkParams.max_iterations,
                        help="power iteration budget (default %(default)s)")


def _add_flow_arguments(parser) -> None:
    parser.add_argument("--beta", type=float, default=FlowParams.beta,
                        help="propagation probability exponent (default %(default)s)")
    parser.add_argument("--seed", type=int, default=FlowParams.seed,
                        help="cascade RNG seed (default %(default)s)")
    parser.add_argument("--max-rounds", type=int, default=FlowParams.max_rounds,
                        help="cascade round budget (default %(default)s)")
    parser.add_argument("--single-hop", action="store_true",
                        help="only origins transmit (no relaying by labeled nodes)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tieflow",
                     description="Tie-decay friendship networks and flow-based community detection")
    parser.set_defaults(handler=None)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("ingest", help="normalize and filter a raw event CSV")
    p.add_argument("--input", required=True, help="raw event CSV")
    p.add_argument("--output", required=True, help="canonical CSV output path")
    p.add_argument("--keep-locations", default="",
                   help="comma-separated location ids to keep (default: all)")
    p.set_defaults(handler=_handle_ingest)

    p = sub.add_parser("build", help="co-occurrence graph and degree-oriented tie graph")
    p.add_argument("--events", required=True, help="canonical event CSV")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                   help="co-occurrence window in seconds (default %(default)s)")
    p.set_defaults(handler=_handle_build)

    p = sub.add_parser("snapshot", help="tie-decay weights at a single time")
    _add_graph_arguments(p)
    p.set_defaults(handler=_handle_snapshot)

    p = sub.add_parser("pagerank", help="rank nodes on a snapshot")
    _add_graph_arguments(p)
    _add_walk_arguments(p)
    p.set_defaults(handler=_handle_pagerank)

    p = sub.add_parser("detect", help="information-flow community detection")
    _add_graph_arguments(p)
    _add_walk_arguments(p)
    p.add_argument("--epsilon", type=_origin_fraction, default=0.20,
                   help="origin fraction of top-ranked nodes (default 0.20)")
    _add_flow_arguments(p)
    p.set_defaults(handler=_handle_detect)

    p = sub.add_parser("evaluate", help="score a detected partition")
    _add_graph_arguments(p)
    p.add_argument("--communities", required=True, help="detect output JSON")
    p.add_argument("--undirected", action="store_true",
                   help="use the symmetrized undirected modularity variant")
    p.add_argument("--events", default=None, help="canonical event CSV for behavior indicators")
    p.add_argument("--categories", default=None, help="JSON map location id -> category")
    p.add_argument("--semester-start", type=_time, default=None)
    p.add_argument("--semester-end", type=_time, default=None)
    p.set_defaults(handler=_handle_evaluate)

    p = sub.add_parser("sweep", help="detection across origin fractions")
    _add_graph_arguments(p)
    p.add_argument("--epsilons", type=_origin_fractions,
                   default="0.5,0.45,0.4,0.35,0.3,0.25,0.2,0.15,0.1,0.05",
                   help="comma-separated origin fractions")
    _add_walk_arguments(p)
    _add_flow_arguments(p)
    p.set_defaults(handler=_handle_sweep)

    p = sub.add_parser("synth", help="generate a planted-community event log")
    p.add_argument("--students", type=int, default=200)
    p.add_argument("--communities", type=int, default=4)
    p.add_argument("--intra-rate", type=float, default=3.0,
                   help="co-visits per same-community pair per week (default 3)")
    p.add_argument("--inter-rate", type=float, default=0.2,
                   help="co-visits per cross-community pair per week (default 0.2)")
    p.add_argument("--weeks", type=float, default=12.0)
    p.add_argument("--jitter", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start", type=_time, default="2019-09-02T00:00:00",
                   help="semester start (epoch seconds or ISO, default 2019-09-02T00:00:00)")
    p.add_argument("--locations", type=_location_counts, default="",
                   help="category=count list (default dining=33,bath=6,boiler=6,shop=4)")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(handler=_handle_synth)

    p = sub.add_parser("report", help="curve data or aligned text tables")
    inputs = p.add_mutually_exclusive_group(required=True)
    _add_graph_arguments(p, inputs)
    inputs.add_argument("--sweep", default=None, help="format a sweep TSV as a text table")
    inputs.add_argument("--evaluation", default=None,
                        help="format an evaluate JSON as a text table")
    p.add_argument("--start-time", type=_time, default=None,
                   help="curve start (default: first event)")
    p.add_argument("--n-points", type=int, default=None,
                   help="number of curve samples (default 1000)")
    p.set_defaults(handler=_handle_report, time=None)  # curve options left out stay None

    return parser


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:  # --help; every other parse fault raises UsageError
        return EXIT_OK
    except UsageError as exc:
        return _fail(exc, EXIT_USAGE)
    if args.handler is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        _build_params(args)
        return args.handler(args)
    except UsageError as exc:
        return _fail(exc, EXIT_USAGE)
    except (DataError, OSError) as exc:
        return _fail(exc, EXIT_DATA)


if __name__ == "__main__":
    raise SystemExit(main())
