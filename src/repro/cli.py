"""Command-line interface to the probabilistic XML warehouse.

The paper's system is a warehouse with a query interface and an update
interface (slide 3); this CLI is the operational face of that
architecture::

    python -m repro init WH --root directory          # create a store
    python -m repro init WH --document doc.xml        # ... or from XML
    python -m repro query WH '/directory { person { name, email } }'
    python -m repro query WH '//person' --stream --limit 5   # lazy top-k rows
    python -m repro explain WH '//person { name[$n] }'  # show the query plan
    python -m repro update WH --xupdate tx.xml --confidence 0.85
    python -m repro simplify WH
    python -m repro compact WH                        # fold the WAL into a snapshot
    python -m repro stats WH                          # includes WAL depth/bytes
    python -m repro stats WH --json                   # ... machine-readable
    python -m repro serve-stats WH                    # serving-side counters
    python -m repro serve WH --port 8080              # HTTP/JSON front end
    python -m repro metrics WH                        # Prometheus exposition
    python -m repro metrics WH --format json          # ... structured dashboard
    python -m repro trace WH '//person' --last 3      # nested per-phase spans
    python -m repro history WH --tail 10
    python -m repro worlds WH                         # enumerate (small docs)
    python -m repro estimate WH '//email' --samples 2000

``query``, ``update`` and ``serve-stats`` are collection-aware: when
the path holds a collection (``repro.connect_collection``), queries fan
out across every document (each line prefixed with its document key,
every query flag meaning what it means on a warehouse), updates route
to the document named by ``--doc``, and serve-stats aggregates
per-shard serving counters.

Every command exits 0 on success; errors print a clean one-line message
on stderr (no traceback) with a distinct exit code per family:

* 2 — generic model/usage error (:class:`~repro.errors.ReproError`);
* 3 — pattern syntax error (:class:`~repro.errors.PatternSyntaxError`);
* 4 — corrupt on-disk state (:class:`~repro.errors.WarehouseCorruptError`);
* 5 — warehouse locked by another process
  (:class:`~repro.errors.WarehouseLockedError`);
* 6 — use of a closed session (:class:`~repro.errors.SessionClosedError`).

Two Unix conventions on top: a downstream that closes the pipe early
(``repro query … --stream | head -1``) exits 141 (128 + SIGPIPE) with
no traceback, and Ctrl-C exits 130 (128 + SIGINT) — in both cases the
streamed iteration is closed first, so its snapshot pin is released.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from contextlib import closing
from pathlib import Path

from repro.api import QueryOptions, connect
from repro.obs import render_json, render_prometheus, render_trace
from repro.serve import Collection, connect_collection
from repro.core.montecarlo import AnswerEstimate, estimate_query
from repro.core.semantics import to_possible_worlds
from repro.errors import (
    PatternSyntaxError,
    ReproError,
    SessionClosedError,
    WarehouseCorruptError,
    WarehouseLockedError,
)
from repro.tpwj.parser import parse_pattern
from repro.tpwj.pattern import Pattern
from repro.xmlio.parse import fuzzy_from_string
from repro.xmlio.serialize import fuzzy_to_string, plain_to_string

__all__ = ["main", "build_parser", "exit_code_for"]

#: Most-derived first: the first matching family decides the exit code.
_EXIT_CODES: tuple[tuple[type[ReproError], int], ...] = (
    (PatternSyntaxError, 3),
    (WarehouseCorruptError, 4),
    (WarehouseLockedError, 5),
    (SessionClosedError, 6),
)


def exit_code_for(exc: ReproError) -> int:
    """The CLI exit code for a library error (2 for the generic family)."""
    for family, code in _EXIT_CODES:
        if isinstance(exc, family):
            return code
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Probabilistic XML warehouse (Abiteboul & Senellart, EDBT 2006)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    init = commands.add_parser("init", help="create a new warehouse")
    init.add_argument("path", type=Path)
    source = init.add_mutually_exclusive_group(required=True)
    source.add_argument("--root", help="label of an empty document root")
    source.add_argument(
        "--document", type=Path, help="probabilistic XML file to load"
    )

    query = commands.add_parser("query", help="evaluate a TPWJ query")
    query.add_argument("path", type=Path)
    query.add_argument("pattern", help="TPWJ text syntax")
    query.add_argument("--limit", type=int, default=None, help="max answers shown")
    query.add_argument(
        "--xml", action="store_true", help="print answers as XML instead of canonical"
    )
    query.add_argument(
        "--stream",
        action="store_true",
        help="print match rows lazily in match order (with --limit pushed "
        "into the engine's streaming protocol) instead of ranked answers",
    )
    query.add_argument(
        "--no-planner",
        action="store_true",
        help="bypass the cost-based planner and its caches (fixed pre-order plan)",
    )
    query.add_argument(
        "--top-k",
        type=int,
        default=None,
        dest="top_k",
        help="the k most probable answers, branch-and-bound pruned "
        "(rows print in descending probability)",
    )
    query.add_argument(
        "--min-probability",
        type=float,
        default=None,
        dest="min_probability",
        help="only answers with probability >= P (the threshold is "
        "pushed into the join as a pruning bound)",
    )
    query.add_argument(
        "--estimate",
        action="store_true",
        help="anytime Monte-Carlo estimates (probability ± stderr) "
        "instead of exact Shannon probabilities",
    )
    query.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="estimate convergence target at 3 sigma (implies --estimate)",
    )
    query.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        dest="deadline_ms",
        help="estimate sampling time budget in milliseconds "
        "(implies --estimate)",
    )

    explain = commands.add_parser(
        "explain", help="show the engine's plan and cost estimates for a query"
    )
    explain.add_argument("path", type=Path)
    explain.add_argument("pattern", help="TPWJ text syntax")

    update = commands.add_parser(
        "update", help="apply an XUpdate transaction (or an xu:batch of them)"
    )
    update.add_argument("path", type=Path)
    update.add_argument(
        "--xupdate",
        type=Path,
        required=True,
        help="transaction XML (xu:modifications or xu:batch)",
    )
    update.add_argument(
        "--confidence", type=float, default=None, help="override the confidence"
    )
    update.add_argument(
        "--doc",
        default=None,
        help="document key to route to (required when PATH is a collection)",
    )

    simplify = commands.add_parser("simplify", help="run fuzzy data simplification")
    simplify.add_argument("path", type=Path)

    compact = commands.add_parser(
        "compact", help="fold pending WAL records into a fresh snapshot"
    )
    compact.add_argument("path", type=Path)

    stats = commands.add_parser("stats", help="document and log statistics")
    stats.add_argument("path", type=Path)
    stats.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )

    serve = commands.add_parser(
        "serve",
        help="serve the warehouse (or collection) over HTTP/JSON: "
        "POST /query, POST /update, GET /stats, /metrics, /healthz; "
        "SIGTERM drains gracefully",
    )
    serve.add_argument("path", type=Path)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="query worker threads (default: cores, clamped to [2, 8])",
    )
    serve.add_argument(
        "--shard-processes",
        type=int,
        default=None,
        metavar="N",
        help="serve a collection with N worker processes behind a "
        "consistent-hash ring instead of the in-process thread pool "
        "(single-core hosts fall back to threads)",
    )
    serve.add_argument(
        "--replication-factor",
        type=int,
        default=1,
        metavar="R",
        help="with --shard-processes: keep every document on R ring "
        "successors so reads fail over when a worker dies",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="admitted requests beyond the workers before 429 load-shedding",
    )
    serve.add_argument(
        "--deadline-ms",
        type=int,
        default=30_000,
        help="default per-query deadline (requests override via timeout_ms)",
    )
    serve.add_argument(
        "--idle-timeout",
        type=float,
        default=30.0,
        help="seconds an idle keep-alive connection is kept open",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        help="seconds a drain waits for in-flight requests before closing",
    )

    serve_stats = commands.add_parser(
        "serve-stats",
        help="serving-side counters (read sessions, caches, WAL; "
        "per-document for collections)",
    )
    serve_stats.add_argument("path", type=Path)
    serve_stats.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )

    metrics = commands.add_parser(
        "metrics",
        help="export the instrument panel (counters, gauges, latency "
        "histograms) for the warehouse or collection",
    )
    metrics.add_argument("path", type=Path)
    metrics.add_argument(
        "--format",
        choices=("prom", "json"),
        default="prom",
        help="prom = Prometheus text exposition (default), json = "
        "structured dashboard with slow queries and recent traces",
    )

    trace = commands.add_parser(
        "trace",
        help="show recent span traces; with a PATTERN, execute that "
        "query first so its trace is captured",
    )
    trace.add_argument("path", type=Path)
    trace.add_argument(
        "pattern",
        nargs="?",
        default=None,
        help="TPWJ query to execute and trace (optional)",
    )
    trace.add_argument(
        "--last", type=int, default=5, help="show at most the last N traces"
    )

    history = commands.add_parser("history", help="show the transaction log")
    history.add_argument("path", type=Path)
    history.add_argument("--tail", type=int, default=None, help="last N entries only")

    worlds = commands.add_parser("worlds", help="enumerate the possible worlds")
    worlds.add_argument("path", type=Path)

    estimate = commands.add_parser("estimate", help="Monte-Carlo query estimation")
    estimate.add_argument("path", type=Path)
    estimate.add_argument("pattern")
    estimate.add_argument("--samples", type=int, default=1000)
    estimate.add_argument("--seed", type=int, default=0)

    export = commands.add_parser("export", help="print the document as XML")
    export.add_argument("path", type=Path)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        # User/model errors get one clean line, never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except BrokenPipeError:
        # ``repro query … | head -1``: downstream closed the pipe.  The
        # streaming loops release their pins via closing(); here we only
        # have to exit quietly — point stdout at devnull so the
        # interpreter's exit-time flush cannot raise a second time.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError, AttributeError):
            pass  # stdout already gone or not a real file (e.g. captured)
        return 141  # 128 + SIGPIPE, the shell's convention
    except KeyboardInterrupt:
        return 130  # 128 + SIGINT; quiet, like every well-behaved filter


def _dispatch(args: argparse.Namespace) -> int:
    handlers = {
        "init": _cmd_init,
        "query": _cmd_query,
        "explain": _cmd_explain,
        "update": _cmd_update,
        "serve": _cmd_serve,
        "simplify": _cmd_simplify,
        "compact": _cmd_compact,
        "stats": _cmd_stats,
        "serve-stats": _cmd_serve_stats,
        "metrics": _cmd_metrics,
        "trace": _cmd_trace,
        "history": _cmd_history,
        "worlds": _cmd_worlds,
        "estimate": _cmd_estimate,
        "export": _cmd_export,
    }
    return handlers[args.command](args)


def _cmd_init(args: argparse.Namespace) -> int:
    if args.document is not None:
        document = fuzzy_from_string(args.document.read_text(encoding="utf-8"))
        session_kwargs = {"document": document}
    else:
        session_kwargs = {"root": args.root}
    with connect(args.path, create=True, **session_kwargs) as session:
        print(f"created warehouse at {args.path} ({session.stats()['nodes']} nodes)")
    return 0


def _parse_pattern_arg(text: str) -> Pattern:
    """Shared pattern parsing for query/explain/estimate.

    Wraps parse failures with the offending text so the CLI error
    message identifies the argument, not just the position.
    """
    try:
        return parse_pattern(text)
    except PatternSyntaxError as exc:
        raise PatternSyntaxError(f"invalid pattern {text!r}: {exc}") from exc


def _query_options(args: argparse.Namespace):
    """The QueryOptions the query flags ask for.

    ``--top-k`` folds into ``limit`` (strictest wins) and switches the
    order to probability; validation errors surface as the aggregated
    :class:`~repro.api.options.QueryOptionsError`.
    """
    limit = args.limit
    if args.top_k is not None:
        limit = args.top_k if limit is None else min(limit, args.top_k)
    return QueryOptions(
        limit=limit,
        order="probability" if args.top_k is not None else "document",
        min_probability=args.min_probability,
        plan="fixed" if args.no_planner else "auto",
    )


def _print_item(item, *, xml: bool) -> None:
    """One row, answer or estimate, prefixed by its document key if any."""
    document = item.document
    measure = f"{item.probability:.6f}"
    estimate = isinstance(item, AnswerEstimate)
    if xml:
        if estimate:
            measure += f" ± {item.stderr:.6f} ({item.samples} samples)"
        where = "" if document is None else f"{document}: "
        print(f"<!-- {where}P = {measure} -->")
        print(plain_to_string(item.tree))
        return
    if estimate:
        measure += f" ±{item.stderr:.6f} ({item.samples} samples)"
    canonical = item.tree.canonical() if estimate else item.canonical
    prefix = "" if document is None else f"{document}  "
    print(f"{prefix}{measure}  {canonical}")


def _cmd_query(args: argparse.Namespace) -> int:
    """Query a warehouse, or fan out across a collection's documents.

    Three modes, the same on both targets: estimates (``--estimate``,
    ``--epsilon``, ``--deadline-ms``); rows, lazily in match order —
    or by descending probability under ``--top-k`` — with the limit
    pushed into the engine (``--stream``, ``--top-k``, a positive
    ``--min-probability``); and otherwise ranked answers, where
    ``--limit`` slices the ranking and stays out of the query (a
    limited ``answers()`` would price only a row prefix).  A collection
    prefixes each line with its document key and never aggregates
    across documents.
    """
    pattern = _parse_pattern_arg(args.pattern)
    options = _query_options(args)
    estimating = (
        args.estimate or args.epsilon is not None or args.deadline_ms is not None
    )
    streaming = args.stream or options.is_bounded
    if not (estimating or streaming):
        options = options.replace(limit=None)
    opener = connect_collection if Collection.is_collection(args.path) else connect
    empty = True
    with opener(args.path) as target:
        results = target.query(pattern, options=options)
        if streaming and not estimating:
            # closing(): a BrokenPipeError (| head) or Ctrl-C must still
            # release the stream's pin (or close the fan-out) first.
            with closing(iter(results)) as rows:
                for row in rows:
                    empty = False
                    _print_item(row, xml=args.xml)
        else:
            if estimating:
                items = results.estimate(
                    epsilon=args.epsilon, deadline_ms=args.deadline_ms
                )
            else:
                items = results.answers()
            empty = not items
            for item in items[: args.limit]:
                _print_item(item, xml=args.xml)
    if empty:
        print("(no answers)")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    pattern = _parse_pattern_arg(args.pattern)
    with connect(args.path) as session:
        print(session.explain(pattern))
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from repro.updates.transaction import TransactionBatch
    from repro.xmlio.xupdate import updates_from_string

    text = args.xupdate.read_text(encoding="utf-8")
    parsed = updates_from_string(text)
    with ExitStack() as stack:
        if Collection.is_collection(args.path):
            if args.doc is None:
                raise ReproError(
                    f"{args.path} is a collection: route the update with "
                    "--doc KEY"
                )
            collection = stack.enter_context(connect_collection(args.path))
            session = collection.document(args.doc)
        else:
            if args.doc is not None:
                raise ReproError("--doc only applies to collections")
            session = stack.enter_context(connect(args.path))
        if isinstance(parsed, TransactionBatch):
            reports = session.update_many(parsed, confidence=args.confidence)
            print(
                f"batch of {len(reports)}: "
                f"applied: {sum(1 for r in reports if r.applied)}  "
                f"matches: {sum(r.matches for r in reports)}  "
                f"inserted nodes: {sum(r.inserted_nodes for r in reports)}  "
                f"survivor copies: {sum(r.survivor_copies for r in reports)}"
            )
            return 0
        report = session.update(parsed, confidence=args.confidence)
        print(
            f"matches: {report.matches}  applied: {report.applied}  "
            f"inserted nodes: {report.inserted_nodes}  "
            f"survivor copies: {report.survivor_copies}"
            + (f"  event: {report.confidence_event}" if report.confidence_event else "")
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here: the HTTP package borrows the CLI's exit-code
    # mapping for its error payloads, so the import must stay lazy.
    from repro.serve.http import run_server

    return run_server(
        args.path,
        host=args.host,
        port=args.port,
        workers=args.workers,
        shard_processes=args.shard_processes,
        replication_factor=args.replication_factor,
        queue_depth=args.queue_depth,
        default_deadline=args.deadline_ms / 1000.0,
        idle_timeout=args.idle_timeout,
        drain_grace=args.drain_grace,
    )


def _cmd_simplify(args: argparse.Namespace) -> int:
    with connect(args.path) as session:
        report = session.simplify()
        print(
            f"nodes: {report.nodes_before} -> {report.nodes_after}  "
            f"literals: {report.literals_before} -> {report.literals_after}  "
            f"events collected: {report.collected_events}"
        )
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    with connect(args.path) as session:
        summary = session.compact()
        print(
            f"compacted: folded {summary['folded_records']} WAL records  "
            f"snapshot sequence: {summary['sequence']}"
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    with connect(args.path) as session:
        info = session.stats()
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
    else:
        for key, value in info.items():
            print(f"{key}: {value}")
    return 0


#: The serving-side counters serve-stats surfaces, in display order.
_SERVE_KEYS = (
    "sequence",
    "nodes",
    "declared_events",
    "read_sessions",
    "wal_depth",
    "wal_bytes",
    "shannon_cache_entries",
    "shannon_cache_hits",
    "shannon_cache_misses",
)


def _cmd_serve_stats(args: argparse.Namespace) -> int:
    if Collection.is_collection(args.path):
        with connect_collection(args.path) as collection:
            info = collection.stats()
            info["health"] = collection.health()
        if args.json:
            print(json.dumps(info, indent=2, sort_keys=True))
            return 0
        print(f"collection: {args.path}  documents: {info['document_count']}")
        pool = info.get("pool")
        if pool is not None:
            print(
                f"pool: {pool['workers']} workers  "
                f"active: {pool['active_tasks']}  "
                f"submitted: {pool['submitted_tasks']}"
            )
        cluster = info.get("cluster")
        if cluster is not None:
            line = f"cluster: {cluster['processes']} worker processes"
            replication = cluster.get("replication")
            if replication and replication.get("factor", 1) > 1:
                line += (
                    f"  replication: x{replication['factor']}"
                    f"  stale replicas: {replication['stale_replicas']}"
                )
            print(line)
        totals = info["totals"]
        print(
            f"totals: nodes: {totals['nodes']}  "
            f"events: {totals['declared_events']}  "
            f"commits: {totals['sequence']}  "
            f"read sessions: {totals['read_sessions']}"
        )
        for key, shard in sorted(info["health"]["shards"].items()):
            print(
                f"  health {key}: alive: {shard['alive']}  "
                f"wal_depth: {shard['wal_depth']}  "
                f"respawns: {shard['respawns']}"
            )
        for key, document in info["documents"].items():
            values = "  ".join(f"{name}: {document[name]}" for name in _SERVE_KEYS)
            print(f"  {key}: {values}")
        return 0
    with connect(args.path) as session:
        info = session.stats()
    if args.json:
        print(
            json.dumps(
                {name: info[name] for name in _SERVE_KEYS},
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(f"warehouse: {args.path}")
    for name in _SERVE_KEYS:
        print(f"{name}: {info[name]}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    # Opening the store populates the panel for this process: recovery
    # replay timing, document gauges (via stats()), and — through the
    # catalogue — every declared series at zero, so a scrape of a fresh
    # process still sees the full schema.
    if Collection.is_collection(args.path):
        with connect_collection(args.path) as collection:
            collection.stats()
            obs = collection.observability
    else:
        with connect(args.path) as session:
            session.stats()
            obs = session.observability
    if obs is None:
        raise ReproError("no observability panel attached")
    if args.format == "json":
        print(render_json(obs.metrics, obs))
    else:
        print(render_prometheus(obs.metrics), end="")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    with connect(args.path) as session:
        obs = session.observability
        if obs is None or not obs.tracer.enabled:
            raise ReproError("tracing is disabled for this warehouse")
        if args.pattern is not None:
            session.query(_parse_pattern_arg(args.pattern)).all()
        traces = obs.tracer.recent(args.last)
    if not traces:
        print("(no traces)")
        return 0
    for index, span in enumerate(traces):
        if index:
            print()
        print(render_trace(span))
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    with connect(args.path) as session:
        entries = session.history()
    if args.tail is not None:
        entries = entries[-args.tail :]
    for entry in entries:
        kind = entry.get("kind", "?")
        sequence = entry.get("sequence", "?")
        extra = ""
        if kind == "update":
            extra = (
                f"  confidence={entry.get('confidence')}"
                f"  matches={entry.get('matches')}"
            )
        elif kind == "simplify":
            extra = f"  nodes={entry.get('nodes_before')}->{entry.get('nodes_after')}"
        print(f"#{sequence}  {kind}{extra}")
    return 0


def _cmd_worlds(args: argparse.Namespace) -> int:
    with connect(args.path) as session:
        worlds = to_possible_worlds(session.document)
    for world in worlds:
        print(f"{world.probability:.6f}  {world.tree.canonical()}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    with connect(args.path) as session:
        estimates = estimate_query(
            session.document,
            _parse_pattern_arg(args.pattern),
            samples=args.samples,
            rng=random.Random(args.seed),
        )
    for estimate in estimates:
        print(
            f"{estimate.probability:.4f} ± {estimate.stderr:.4f}  "
            f"{estimate.tree.canonical()}"
        )
    if not estimates:
        print("(no answers observed)")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    with connect(args.path) as session:
        print(fuzzy_to_string(session.document))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
