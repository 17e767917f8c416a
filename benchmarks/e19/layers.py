"""The traced pass: where one request's time goes, layer by layer.

Every layer is timed **from outside**, through its public functions,
on inputs drawn from the workload's own seeded documents and op
stream.  A layer's *self* time is the median through entry point N
minus the median through entry point N−1 on identical inputs::

    parse · plan · match < rows < +probability < Session
          < Collection (one key) < +encode < POST /query
    Session < ProcessCollection (one key) < fan-out

One sample runs every entry point of a ladder once, in order, on the
same input (one op id, one span each), so host drift lands on all of
them alike.  The self times of a ladder sum, by construction, to its
top entry point; ``reconcile.*`` compares that top — isolated, warm —
with the p50 the workload's own mix saw in this pass.

The pass also runs the workload's rounds alternately with and without
a span around every op: ``trace.overhead_ratio`` is the ratio of the
two p50s.  End-to-end metrics never come from this pass.
"""

from __future__ import annotations

import http.client
import multiprocessing
import os
import shutil
from itertools import islice
from pathlib import Path
from time import perf_counter

import repro
from repro.analysis.instrumentation import counters
from repro.api.builders import compile_pattern
from repro.core.query import group_rows, iter_query_rows, query_fuzzy_tree
from repro.core.update import apply_update
from repro.events.dnf import dnf_probability
from repro.serve import SessionPool, connect_collection
from repro.serve.cluster import Verb, decode_frame, encode_frame
from repro.serve.http import ServerThread, encode_row, query_response_body
from repro.tpwj.match import DEFAULT_CONFIG
from repro.warehouse.snapshot_binary import load_binary, save_binary
from repro.xmlio import transaction_to_string
from repro.xmlio.serialize import plain_to_string
from repro.xmlio.xupdate import updates_from_string

import estimator
import measure
from inputs import LIMIT, OpStream
from spans import Recorder
from workloads import create_collection, query_body, update_body

#: A ladder takes ``Plan.ladder_samples`` samples; a slow one stops at
#: BUDGET_S instead (never below MIN_SAMPLES).
MIN_SAMPLES = 30
BUDGET_S = 4.0
REPLAY_RECORDS = 32
_JSON = {"Content-Type": "application/json"}

#: The entry point whose p50 the workload's own mix reports.
_TOP = {
    "embedded_match": ("api.query_us", "api.update_us"),
    "embedded_probability": ("api.query_us", "api.update_us"),
    "http_point": ("http.query_us", "http.update_us"),
    "cluster_mixed": ("cluster.fanout_us", "cluster.update_us"),
}


class CountingEngine:
    """Stands in for a ``QueryEngine`` to count the matches a row
    stream pulls before its limit stops it."""

    def __init__(self, engine) -> None:
        self._engine = engine
        self.pulled = 0
        self.shannon = engine.shannon
        self.condition_index = engine.condition_index

    def iter_matches(self, *args, **kwargs):
        for match in self._engine.iter_matches(*args, **kwargs):
            self.pulled += 1
            yield match


class Ladder:
    """Times entry points sample by sample, one span per call."""

    def __init__(self, recorder: Recorder, samples: int) -> None:
        self.recorder = recorder
        self.default_samples = samples
        self.samples = 0
        self.last_count = 0

    def group(self, entries: dict, samples: int | None = None, prepare=None) -> dict:
        """Median seconds of every ``entries[name](i)``.  Sample *i*
        runs ``prepare(i)`` untimed, then each entry once, in order."""
        spent = {name: [] for name in entries}
        started = perf_counter()
        count = 0
        # A smoke run's small default also caps the fixed sample counts.
        for i in range(min(samples or self.default_samples, self.default_samples)):
            if prepare is not None:
                prepare(i)
            op = self.recorder.next_op()
            for name, action in entries.items():
                start = perf_counter()
                action(i)
                end = perf_counter()
                self.recorder.add(name, start, end, op)
                spent[name].append(end - start)
            count += 1
            if count >= MIN_SAMPLES and perf_counter() - started > BUDGET_S:
                break
        self.samples += count * len(entries)
        self.last_count = count
        return {name: estimator.median(values) for name, values in spent.items()}

    def time(self, name: str, action, samples: int | None = None, prepare=None) -> float:
        return self.group({name: action}, samples, prepare)[name]


def _read(rows) -> list:
    """Materialize *rows* with every probability computed."""
    rows = list(rows)
    for row in rows:
        row.probability
    return rows


def run_traced(name: str, seed: int, plan, work_dir: Path, trace_out) -> dict:
    recorder = Recorder()
    run = measure.Run(name, seed, plan, work_dir)
    try:
        run.setup(1)
        metrics = _workload_rounds(run, recorder)
    finally:
        run.close()
    # From here on ``run.documents`` is the store as it stood halfway
    # through those rounds: the ladders time the document the mix saw.
    ladder = Ladder(recorder, plan.ladder_samples)
    stream = run.stream()
    metrics.update(_in_process_ladder(run, stream, ladder, work_dir / "ladder"))
    metrics.update(_cluster_ladder(run, stream, ladder, work_dir / "cluster", metrics))
    top_query, top_update = _TOP[name]
    metrics["reconcile.query_ratio"] = (
        metrics[top_query] / 1e3 / metrics.pop("untraced.query_p50_ms")
    )
    metrics["reconcile.update_ratio"] = (
        metrics[top_update] / 1e3 / metrics.pop("untraced.update_p50_ms")
    )
    if trace_out:
        recorder.write(trace_out)
    return {
        "metrics": metrics,
        "attempted": run.attempted + ladder.samples,
        "failed": run.failed,
        "problems": run.problems,
    }


# ----------------------------------------------------------------------
# The workload's own rounds, with and without spans
# ----------------------------------------------------------------------


def _workload_rounds(run, recorder: Recorder) -> dict:
    """Half the untraced pass's rounds, in fours: plain, spanned,
    spanned, plain."""
    workload = run.workload
    stream = run.stream()
    warmup = [stream.round() for _ in range(run.plan.warmup_rounds)]
    rounds = [stream.round() for _ in range(max(4, run.plan.rounds // 8 * 4))]
    for ops in [*warmup, *rounds]:
        for op in ops:
            workload.prepare(op)

    # Plain, spanned, spanned, plain, ...: host drift and the growing
    # document land on both sides alike.
    spanned_rounds = [index % 4 in (1, 2) for index in range(len(rounds))]
    with_span = {
        id(op) for ops, spanned in zip(rounds, spanned_rounds) if spanned for op in ops
    }

    def execute(op) -> bool:
        if id(op) not in with_span:
            return run.execute(op)
        name = "op.update" if op.is_update else "op.query"
        return recorder.call(name, recorder.next_op(), lambda: run.execute(op))

    estimator.run_rounds(warmup, run.execute)
    cpu_before = estimator.cpu_seconds(workload.worker_pids())
    records = estimator.run_rounds(rounds, execute)
    plain = [r for r, spanned in zip(records, spanned_rounds) if not spanned]
    spanned = [r for r, spanned in zip(records, spanned_rounds) if spanned]
    cpu_after = estimator.cpu_seconds(workload.worker_pids())

    reference = measure.Reference(run.name, run.documents)
    for ops in [*warmup, *rounds[: len(rounds) // 2]]:
        reference.apply(ops)
    run.documents = {key: doc.clone() for key, doc in reference.documents.items()}
    for ops in rounds[len(rounds) // 2 :]:
        reference.apply(ops)
    run.check(measure.gate(workload, reference, run.queries))

    untraced = estimator.summarize(plain)
    with_spans = estimator.summarize(spanned)
    both = estimator.summarize(records)
    n_ops = both["samples.query"] + both["samples.update"]
    return {
        "untraced.query_p50_ms": untraced["raw.query_p50_ms"],
        "untraced.update_p50_ms": untraced["raw.update_p50_ms"],
        "trace.overhead_ratio": with_spans["raw.query_p50_ms"]
        / untraced["raw.query_p50_ms"],
        "update.p50_ms": both["update.p50_ms"],
        "proc.cpu_ms_per_op": (cpu_after - cpu_before) * 1e3 / n_ops,
        "tail.query_p99_ms": both["tail.query_p99_ms"],
        "tail.update_p99_ms": both["tail.update_p99_ms"],
        "calib.kernel_ms": both["calib.kernel_ms"],
        "calib.drift_ratio": both["calib.drift_ratio"],
    }


# ----------------------------------------------------------------------
# In-process ladder: engine, core, events, api, warehouse, serve, http
# ----------------------------------------------------------------------


def _in_process_ladder(run, stream: OpStream, ladder: Ladder, path: Path) -> dict:
    shutil.rmtree(path, ignore_errors=True)
    collection = connect_collection(path / "store", create=True, workers=2)
    server = conn = None
    try:
        for key, document in run.documents.items():
            collection.create_document(key, document=document)
        server = ServerThread(collection, workers=2).start()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)

        def request(method, route, body=None) -> bytes:
            conn.request(method, route, body, _JSON if body else {})
            response = conn.getresponse()
            payload = response.read()
            if response.status != 200:
                raise AssertionError(f"{method} {route}: HTTP {response.status}")
            return payload

        out = _query_ladder(run, ladder, collection, request, path)
        out.update(_update_ladder(run, stream, ladder, collection, request))
    finally:
        if conn is not None:
            conn.close()
        try:
            if server is not None:
                server.stop()
        finally:
            collection.close()
    out.update(_reopen_ladder(run, stream, ladder, path / "reopen"))
    return out


def _query_ladder(run, ladder: Ladder, collection, request, path: Path) -> dict:
    keys = sorted(run.documents)
    answers_workload = run.name == "embedded_probability"
    limit = None if answers_workload else LIMIT
    queries = [(key or keys[0], text) for key, text in run.queries]
    patterns = [compile_pattern(text) for _key, text in queries]
    sessions = [collection.document(key) for key, _text in queries]
    bodies = [query_body(text, key) for key, text in queries]
    n = len(queries)
    state: dict = {}

    def at(i):
        session = sessions[i % n]
        return session.document, session.warehouse.engine, patterns[i % n]

    def row_stream(i, engine=None):
        fuzzy, live_engine, pattern = at(i)
        return iter_query_rows(
            fuzzy, pattern, DEFAULT_CONFIG, engine=engine or live_engine, limit=limit
        )

    # Warm every plan and view, and learn how many matches each limited
    # row stream pulls before it stops.
    pulled, row_counts = [], []
    for i in range(n):
        counting = CountingEngine(at(i)[1])
        row_counts.append(len(list(row_stream(i, counting))))
        pulled.append(counting.pulled)

    def match(i):
        fuzzy, engine, pattern = at(i)
        matches = engine.iter_matches(pattern, DEFAULT_CONFIG, root=fuzzy.root)
        for _ in islice(matches, pulled[i % n]):
            pass

    def rows(i):
        state["rows"] = list(row_stream(i))

    def probability(i):
        for row in state["rows"]:
            row.probability

    def answers(i):
        fuzzy, engine, pattern = at(i)
        if limit is None:  # what ``answers()`` runs without a limit
            found = query_fuzzy_tree(fuzzy, pattern, DEFAULT_CONFIG, engine=engine)
        else:
            found = group_rows(row_stream(i), fuzzy.events, cache=engine.shannon)
        state["answers"] = found

    def price(i):
        fuzzy, engine, _pattern = at(i)
        for answer in state["answers"]:
            dnf_probability(answer.dnf, fuzzy.events, cache=engine.shannon)

    def session_rows(i, session=None):
        session = session or sessions[i % n]
        _read(session.query(queries[i % n][1]).limit(LIMIT))

    def collection_rows(i, fanout=False):
        key, text = queries[i % n]
        results = collection.query(text, keys=None if fanout else [key])
        state["served"] = _read(results.limit(LIMIT))

    entries = {
        "tpwj.parse": lambda i: compile_pattern(queries[i % n][1]),
        "engine.plan": lambda i: at(i)[1].plan_for(at(i)[2]),
        "engine.match": match,
        "core.rows": rows,
        "events.probability": probability,
        "events.answers": answers,
        "events.price": price,
        "api.rows": session_rows,
        "api.answers": lambda i: sessions[i % n].query(queries[i % n][1]).answers(),
        "collection.fanout": lambda i: collection_rows(i, True),
        "collection.query": collection_rows,
        "http.encode": lambda i: query_response_body(
            [encode_row(row) for row in state["served"]]
        ),
        "http.floor": lambda i: request("GET", "/healthz"),
        "http.query": lambda i: request("POST", "/query", bodies[i % n]),
    }
    if not answers_workload:
        del entries["api.answers"]
    t = ladder.group(entries)

    # ``core`` is everything between the matches and the pricing of
    # their conditions; ``events`` is the pricing.
    if answers_workload:
        session_op, core_op = t["api.answers"], t["events.answers"]
        pricing = t["events.price"]
    else:
        session_op = t["api.rows"]
        core_op = t["core.rows"] + t["events.probability"]
        pricing = t["events.probability"]
    n_matches = estimator.median(pulled)
    n_rows = estimator.median(row_counts)
    out = {
        "tpwj.parse_us": t["tpwj.parse"] * 1e6,
        "engine.plan_warm_us": t["engine.plan"] * 1e6,
        "engine.match_us": t["engine.match"] * 1e6,
        "engine.matches_per_query": n_matches,
        "engine.match_us_per_match": t["engine.match"] * 1e6 / max(1.0, n_matches),
        "core.rows_self_us": (core_op - t["engine.match"] - pricing) * 1e6,
        "core.rows_per_query": n_rows,
        "events.probability_us_per_row": t["events.probability"] * 1e6 / max(1.0, n_rows),
        "events.answers_self_us": t["events.price"] * 1e6,
        "api.rows_us": t["api.rows"] * 1e6,
        "api.query_us": session_op * 1e6,
        "api.session_self_us": (session_op - core_op - t["tpwj.parse"]) * 1e6,
        "collection.query_self_us": (t["collection.query"] - t["api.rows"]) * 1e6,
        "collection.fanout_us": t["collection.fanout"] * 1e6,
        "http.encode_us": t["http.encode"] * 1e6,
        "http.floor_us": t["http.floor"] * 1e6,
        "http.query_us": t["http.query"] * 1e6,
        "http.query_self_us": (
            t["http.query"] - t["collection.query"] - t["http.encode"]
        ) * 1e6,
        "http.response_bytes": estimator.median(
            len(request("POST", "/query", body)) for body in bodies
        ),
    }
    out["events.estimate_ms"] = 1e3 * ladder.time(
        "events.estimate",
        lambda i: sessions[i % n]
        .query(queries[i % n][1])
        .limit(LIMIT)
        .estimate(epsilon=0.05, seed=0),
        MIN_SAMPLES,
    )
    with SessionPool(2) as pool:
        out["pool.handoff_us"] = 1e6 * ladder.time(
            "pool.handoff", lambda i: pool.submit(int).result()
        )

    # Branch-and-bound: matches the top-k form of each query cuts.
    counters.reset()
    counters.enable()
    try:
        for i in range(n):
            list(sessions[i].query(queries[i][1]).order_by_probability().limit(LIMIT))
        out["core.bound_pruned_per_query"] = counters.get("match.bound_pruned") / n
    finally:
        counters.disable()
        counters.reset()

    # The instrument panel's price: the same document, panel off.
    with repro.connect(
        path / "no-obs", create=True, document=run.documents[queries[0][0]],
        observability=None,
    ) as bare:  # fmt: skip
        session_rows(0, bare)
        panel = ladder.group(
            {
                "obs.off": lambda i: session_rows(0, bare),
                "obs.on": lambda i: session_rows(0),
            }
        )
    out["obs.enabled_ratio"] = panel["obs.on"] / panel["obs.off"]
    return out


def _update_ladder(run, stream, ladder, collection, request) -> dict:
    keys = sorted(run.documents)
    ops = stream.updates(ladder.default_samples)
    http_ops = stream.updates(ladder.default_samples)
    texts = [transaction_to_string(op.transaction, indent=False) for op in ops]
    http_bodies = [update_body(op) for op in http_ops]
    clones = {key: collection.document(key).document.clone() for key in keys}
    wal = {key: Path(collection.path) / key / "wal.jsonl" for key in keys}
    appended: list[int] = []
    fsyncs = [0]
    real_fsync = os.fsync

    def counting_fsync(fd):
        fsyncs[0] += 1
        real_fsync(fd)

    def update(i):
        log = wal[ops[i].key]
        before = log.stat().st_size if log.exists() else 0
        collection.update(ops[i].key, ops[i].transaction)
        grown = log.stat().st_size - before
        if grown > 0:  # otherwise a snapshot truncated the log
            appended.append(grown)

    os.fsync = counting_fsync  # the traced pass only
    try:
        t = ladder.group(
            {
                "xmlio.xupdate_parse": lambda i: updates_from_string(texts[i]),
                "core.apply_update": lambda i: apply_update(
                    clones[ops[i].key], ops[i].transaction
                ),
                "api.update": update,
                "http.update": lambda i: request("POST", "/update", http_bodies[i]),
            }
        )
    finally:
        os.fsync = real_fsync
    n_commits = 2 * ladder.last_count  # one by the session, one over HTTP

    compact_ops = stream.updates(MIN_SAMPLES)
    t_compact = ladder.time(
        "warehouse.compact",
        lambda i: collection.document(compact_ops[i].key).compact(),
        MIN_SAMPLES,
        lambda i: collection.update(compact_ops[i].key, compact_ops[i].transaction),
    )

    # A plan and a document walk right after an update.
    cold_ops = stream.updates(MIN_SAMPLES)
    key, text = run.queries[0][0] or keys[0], run.queries[0][1]
    session = collection.document(key)
    pattern = compile_pattern(text)
    engine = session.warehouse.engine

    def first_rows(i):
        for _ in iter_query_rows(
            session.document, pattern, DEFAULT_CONFIG, engine=engine, limit=LIMIT
        ):
            pass

    cold = ladder.group(
        {"engine.plan_cold": lambda i: engine.plan_for(pattern), "core.rows_cold": first_rows},
        MIN_SAMPLES,
        lambda i: session.update(cold_ops[i].transaction),
    )
    warm = ladder.time("core.rows_warm", first_rows, MIN_SAMPLES)

    session.compact()
    store = Path(collection.path) / key
    document = session.document
    image = save_binary(document, session.sequence)
    codec = ladder.group(
        {
            "snapshot.save_binary": lambda i: save_binary(document, session.sequence),
            "snapshot.load_binary": lambda i: load_binary(image),
        },
        MIN_SAMPLES,
    )
    return {
        "xmlio.xupdate_parse_us": t["xmlio.xupdate_parse"] * 1e6,
        "core.apply_update_us": t["core.apply_update"] * 1e6,
        "api.update_us": t["api.update"] * 1e6,
        "warehouse.persist_self_us": (t["api.update"] - t["core.apply_update"]) * 1e6,
        "warehouse.wal_bytes_per_update": estimator.median(appended),
        "warehouse.fsyncs_per_update": fsyncs[0] / n_commits,
        "warehouse.compact_ms": t_compact * 1e3,
        "warehouse.snapshot_bytes": float(
            (store / "document.xml").stat().st_size
            + (store / "document.bin").stat().st_size
        ),
        "snapshot.save_binary_us": codec["snapshot.save_binary"] * 1e6,
        "snapshot.load_binary_us": codec["snapshot.load_binary"] * 1e6,
        "http.update_us": t["http.update"] * 1e6,
        "http.update_self_us": (t["http.update"] - t["api.update"]) * 1e6,
        "engine.plan_cold_us": cold["engine.plan_cold"] * 1e6,
        "engine.view_rebuild_us": (cold["core.rows_cold"] - warm) * 1e6,
    }


def _reopen_ladder(run, stream, ladder, store: Path) -> dict:
    """Open cost with an empty log and with ``REPLAY_RECORDS`` to replay."""
    key = sorted(run.documents)[0]
    repro.connect(
        store, create=True, document=run.documents[key], compact_on_close=False
    ).close()

    def reopen(i):
        repro.connect(store, compact_on_close=False).close()

    t_clean = ladder.time("warehouse.open_clean", reopen, MIN_SAMPLES)
    with repro.connect(store, compact_on_close=False) as session:
        for op in stream.updates(REPLAY_RECORDS):
            session.update(op.transaction)
    t_replay = ladder.time("warehouse.open_replay", reopen, MIN_SAMPLES)
    return {
        "warehouse.open_clean_ms": t_clean * 1e3,
        "warehouse.replay_us_per_record": (t_replay - t_clean) * 1e6 / REPLAY_RECORDS,
    }


# ----------------------------------------------------------------------
# Process cluster ladder: wire, IPC, replication
# ----------------------------------------------------------------------


def _cluster_ladder(run, stream, ladder, path: Path, so_far: dict) -> dict:
    shutil.rmtree(path, ignore_errors=True)
    keys = sorted(run.documents)
    queries = [(key or keys[0], text) for key, text in run.queries]
    n = len(queries)
    create_collection(path, run.documents)

    spawns = []
    cluster = None
    try:
        for _ in range(3):
            if cluster is not None:
                cluster.close()
            started = perf_counter()
            cluster = connect_collection(
                path, mode="process", shard_processes=2, force_processes=True,
                replication_factor=2,
            )  # fmt: skip
            spawns.append(perf_counter() - started)

        def query(i, fanout=False):
            key, text = queries[i % n]
            return cluster.query(text, keys=None if fanout else [key]).limit(LIMIT).all()

        query(0, True)
        t = ladder.group(
            {"cluster.query": query, "cluster.fanout": lambda i: query(i, True)}
        )
        ops = stream.updates(ladder.default_samples)
        t["cluster.update"] = ladder.time(
            "cluster.update", lambda i: cluster.update(ops[i].key, ops[i].transaction)
        )
        workers = [child.pid for child in multiprocessing.active_children()]
        worker_rss = estimator.peak_rss_mb(workers) - estimator.peak_rss_mb()
        reply = {
            "rows": {
                queries[0][0]: [
                    {
                        "probability": row.probability,
                        "tree_xml": plain_to_string(row.tree, indent=False),
                        "bindings": row.bindings(),
                    }
                    for row in query(0)
                ]
            }
        }
    finally:
        if cluster is not None:
            cluster.close()
    frame = encode_frame(Verb.OK, 7, reply)
    wire = ladder.group(
        {
            "wire.encode": lambda i: encode_frame(Verb.OK, 7, reply),
            "wire.decode": lambda i: decode_frame(frame),
        }
    )
    return {
        "wire.encode_us": wire["wire.encode"] * 1e6,
        "wire.decode_us": wire["wire.decode"] * 1e6,
        "wire.frame_bytes": float(len(frame)),
        "cluster.query_us": t["cluster.query"] * 1e6,
        "cluster.query_self_us": t["cluster.query"] * 1e6 - so_far["api.rows_us"],
        "cluster.fanout_us": t["cluster.fanout"] * 1e6,
        "cluster.update_us": t["cluster.update"] * 1e6,
        "cluster.update_self_us": t["cluster.update"] * 1e6 - so_far["api.update_us"],
        "cluster.spawn_ms": estimator.median(spawns) * 1e3,
        "cluster.worker_rss_mb": worker_rss,
    }
