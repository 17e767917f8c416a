"""E15 — the HTTP front end (repro serve) under network load.

PR 7 put the warehouse on a socket: a stdlib-only asyncio HTTP/JSON
server dispatching query execution to a bounded ``SessionPool``, with
admission control (429 + ``Retry-After`` past ``workers +
queue_depth`` in-flight requests) and per-request deadlines that
cancel the underlying row stream.  This experiment prices the wire:

* **E15a — closed-loop throughput.**  A fixed fleet of keep-alive
  clients, each issuing the next ``POST /query`` the moment the
  previous response lands.  Reports aggregate qps and per-request
  p50/p99 latency.  Closed loops self-regulate — offered load tracks
  service rate, so this is the server's sustainable capacity.

* **E15b — open-loop latency and load-shedding.**  Requests arrive on
  a fixed schedule regardless of completions (latency measured from
  the *scheduled* arrival, so queueing delay counts — the coordinated
  omission fix).  Two rates against a deliberately small server
  (``workers=2, queue_depth=4``): a light rate well under capacity,
  and an overload rate beyond it, where admission control must shed
  with 429 instead of letting the queue grow without bound.  Both
  derive from that server's own capacity, measured first by a short
  closed loop of the open-loop sender fleet; the overload rate is
  twice it, and a sender fleet that cannot offer 1.2x it fails the
  run as client-bound instead of passing it.

Correctness while timing: for every query pattern the HTTP response
body must be **byte-identical** to encoding the same rows through the
in-process result set (the ``canonical_json`` determinism contract the
unit suite property-tests; here it is checked against the live
server on every size).

Gated trajectory medians: closed-loop qps (higher is better) and
closed-loop p50 (lower is better).  The p99s, the open-loop numbers
and the shed counts are recorded for humans but deliberately not
gated — tails and shed ratios on a noisy two-core CI runner swing
across the gate's whole slack between identical runs.

Runs both ways::

    PYTHONPATH=src python -m pytest benchmarks/bench_e15_network.py \
        -x -q -o python_files="bench_*.py"
    PYTHONPATH=src python benchmarks/bench_e15_network.py [--quick]

The script form needs no pytest plugins (CI smoke uses ``--quick``)
and always writes machine-readable medians — including the
``trajectory`` entries the CI benchmark-trajectory gate compares —
to ``benchmarks/out/BENCH_E15.json``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import queue
import random
import shutil
import sys
import threading
import time
from collections import Counter
from pathlib import Path

try:
    from conftest import fmt
except ImportError:  # script mode: run outside pytest's rootdir sys.path
    def fmt(value: float, digits: int = 4) -> str:
        return f"{value:.{digits}g}"

from repro.api import connect
from repro.serve.http import ServerThread, encode_row, query_response_body
from repro.trees.random import RandomTreeConfig
from repro.workloads import FuzzyWorkloadConfig, random_fuzzy_tree

OUT_DIR = Path(__file__).parent / "out"
JSON_PATH = OUT_DIR / "BENCH_E15.json"

SIZES = (300, 1200)
QUICK_SIZES = (300,)
TOP_K = 10
#: Closed-loop client fleet (each a persistent keep-alive connection).
CLIENTS = 4
#: Sender threads for the open-loop schedule; must exceed the small
#: server's admission capacity or the client, not the server, becomes
#: the bottleneck that hides shedding.
OPEN_SENDERS = 24
REPEATS = 3
QUICK_REPEATS = 2
#: The deliberately small E15b server: capacity = 2 + 4 = 6 in-flight.
OPEN_WORKERS = 2
OPEN_QUEUE_DEPTH = 4
#: The overload rate, as a multiple of the small server's measured
#: capacity, and the least multiple the senders must actually offer.
OVERLOAD_FACTOR = 2.0
MIN_OFFERED_FACTOR = 1.2


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------


def build_session(base: Path, n_nodes: int, seed: int = 7):
    """A served warehouse on a random fuzzy document, plus a query mix."""
    rng = random.Random(seed)
    config = FuzzyWorkloadConfig(
        tree=RandomTreeConfig(
            max_nodes=n_nodes,
            min_nodes=max(1, int(n_nodes * 0.9)),
            max_depth=10,
        ),
        n_events=6,
    )
    document = random_fuzzy_tree(rng, config)
    path = base / f"serve-{n_nodes}"
    shutil.rmtree(path, ignore_errors=True)
    session = connect(
        path, create=True, document=document, snapshot_every=1_000_000
    )
    labels = Counter(node.label for node in session.document.root.iter())
    patterns = [f"//{label}" for label, _ in labels.most_common(2)]
    return session, patterns


def _http_query(conn, pattern: str, limit: int):
    """One wire request on a persistent connection: (status, body)."""
    body = json.dumps({"pattern": pattern, "limit": limit}).encode("utf-8")
    conn.request(
        "POST", "/query", body, {"Content-Type": "application/json"}
    )
    response = conn.getresponse()
    return response.status, response.read()


def _assert_wire_matches_inprocess(session, handle, patterns) -> None:
    """The byte-identity contract, against the live server."""
    conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=60)
    try:
        for pattern in patterns:
            status, body = _http_query(conn, pattern, TOP_K)
            assert status == 200, f"{pattern}: HTTP {status}"
            with session.query(pattern).limit(TOP_K).stream() as stream:
                expected = query_response_body(
                    [encode_row(row) for row in stream]
                )
            assert body == expected, (
                f"wire response diverged from in-process rows for {pattern!r}"
            )
    finally:
        conn.close()


# ----------------------------------------------------------------------
# E15a — closed-loop throughput
# ----------------------------------------------------------------------


def _closed_loop(port: int, patterns, n_clients: int, per_client: int):
    """(qps, sorted latencies in seconds) for one closed-loop burst."""
    barrier = threading.Barrier(n_clients + 1)
    latencies: list[float] = []
    errors: list = []
    lock = threading.Lock()

    def client(k: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        local: list[float] = []
        try:
            barrier.wait()
            for i in range(per_client):
                start = time.perf_counter()
                status, _ = _http_query(
                    conn, patterns[(i + k) % len(patterns)], TOP_K
                )
                local.append(time.perf_counter() - start)
                if status != 200:
                    raise AssertionError(f"closed loop got HTTP {status}")
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(repr(exc))
        finally:
            conn.close()
        with lock:
            latencies.extend(local)

    threads = [
        threading.Thread(target=client, args=(k,)) for k in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    assert not errors, errors
    return n_clients * per_client / wall, sorted(latencies)


def _percentile(ranked: list[float], p: float) -> float:
    if not ranked:
        return 0.0
    return ranked[min(len(ranked) - 1, round(len(ranked) * p))]


def run_closed_loop(base: Path, sizes, repeats: int, per_client: int):
    """E15a rows: [nodes, qps, p50 ms, p99 ms]."""
    table_rows = []
    results = []
    for n_nodes in sizes:
        session, patterns = build_session(base, n_nodes)
        try:
            with ServerThread(session, workers=4, queue_depth=16) as handle:
                _assert_wire_matches_inprocess(session, handle, patterns)
                best_qps, best_ranked = 0.0, []
                for _ in range(repeats):  # best-of: noise-robust
                    qps, ranked = _closed_loop(
                        handle.port, patterns, CLIENTS, per_client
                    )
                    if qps > best_qps:
                        best_qps, best_ranked = qps, ranked
        finally:
            session.close()
        record = {
            "nodes": n_nodes,
            "clients": CLIENTS,
            "top_k": TOP_K,
            "qps": best_qps,
            "p50_ms": _percentile(best_ranked, 0.5) * 1e3,
            "p99_ms": _percentile(best_ranked, 0.99) * 1e3,
        }
        results.append(record)
        table_rows.append(
            [
                n_nodes,
                fmt(record["qps"]),
                fmt(record["p50_ms"]),
                fmt(record["p99_ms"]),
            ]
        )
    return table_rows, results


# ----------------------------------------------------------------------
# E15b — open-loop latency and load-shedding
# ----------------------------------------------------------------------


def _capacity(port: int, patterns, duration: float) -> float:
    """Requests per second the server answers with 200 while the
    ``OPEN_SENDERS`` fleet keeps it saturated (a closed loop: each
    sender sends again as soon as its reply lands; 429s are counted
    out, not treated as errors)."""
    served = 0
    unexpected: list = []
    lock = threading.Lock()
    barrier = threading.Barrier(OPEN_SENDERS + 1)
    deadline = 0.0  # set before the barrier releases the senders

    def sender(k: int) -> None:
        nonlocal served
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        ok = 0
        try:
            barrier.wait()
            i = k
            while time.perf_counter() < deadline:
                status, _ = _http_query(conn, patterns[i % len(patterns)], TOP_K)
                i += 1
                if status == 200:
                    ok += 1
                elif status != 429:
                    unexpected.append(status)
        except Exception as exc:  # pragma: no cover - failure path
            unexpected.append(repr(exc))
        finally:
            conn.close()
        with lock:
            served += ok

    threads = [
        threading.Thread(target=sender, args=(k,)) for k in range(OPEN_SENDERS)
    ]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    deadline = start + duration
    barrier.wait()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    assert not unexpected, unexpected
    return served / wall


def _open_loop(port: int, patterns, offered_qps: float, duration: float):
    """Fixed-schedule arrivals; latency from the *scheduled* time.

    Returns (achieved qps, ok latencies sorted, shed count, ok count).
    """
    n_requests = max(1, int(offered_qps * duration))
    interval = 1.0 / offered_qps
    schedule: queue.Queue = queue.Queue()
    ok: list[float] = []
    shed = 0
    unexpected: list = []
    lock = threading.Lock()
    start = time.perf_counter() + 0.05
    for i in range(n_requests):
        schedule.put(start + i * interval)
    for _ in range(OPEN_SENDERS):
        schedule.put(None)

    def sender(k: int) -> None:
        nonlocal shed
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        i = k
        try:
            while True:
                arrival = schedule.get()
                if arrival is None:
                    return
                now = time.perf_counter()
                if now < arrival:
                    time.sleep(arrival - now)
                status, _ = _http_query(
                    conn, patterns[i % len(patterns)], TOP_K
                )
                latency = time.perf_counter() - arrival
                i += 1
                with lock:
                    if status == 200:
                        ok.append(latency)
                    elif status == 429:
                        shed += 1
                    else:
                        unexpected.append(status)
        except Exception as exc:  # pragma: no cover - failure path
            unexpected.append(repr(exc))
        finally:
            conn.close()

    threads = [
        threading.Thread(target=sender, args=(k,)) for k in range(OPEN_SENDERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    assert not unexpected, unexpected
    return (len(ok) + shed) / wall, sorted(ok), shed, len(ok)


def run_open_loop(base: Path, sizes, duration: float):
    """E15b rows: [nodes, rate, offered qps, ok, shed, p50 ms, p99 ms].

    Rates derive from the small server's own capacity, measured by
    :func:`_capacity` against it: *light* sits well under it (capped so
    the run stays short), *overload* at ``OVERLOAD_FACTOR`` times it,
    re-measured right before the overload run.  An overload schedule
    the senders offer at less than ``MIN_OFFERED_FACTOR`` times the
    capacity is client-bound: it cannot show shedding, so the run fails.
    """
    table_rows = []
    results = []
    for n_nodes in sizes:
        session, patterns = build_session(base, n_nodes)
        try:
            with ServerThread(
                session, workers=OPEN_WORKERS, queue_depth=OPEN_QUEUE_DEPTH
            ) as handle:
                for rate_name in ("light", "overload"):
                    capacity = _capacity(handle.port, patterns, duration)
                    offered = (
                        min(0.4 * capacity, 150.0)
                        if rate_name == "light"
                        else OVERLOAD_FACTOR * capacity
                    )
                    achieved, ranked, shed, n_ok = _open_loop(
                        handle.port, patterns, offered, duration
                    )
                    if rate_name == "overload" and achieved < MIN_OFFERED_FACTOR * capacity:
                        raise AssertionError(
                            f"client-bound: the senders offered {achieved:.0f} qps, "
                            f"under {MIN_OFFERED_FACTOR}x the server's measured "
                            f"capacity of {capacity:.0f} qps"
                        )
                    record = {
                        "nodes": n_nodes,
                        "rate": rate_name,
                        "capacity_qps": capacity,
                        "offered_qps": offered,
                        "achieved_qps": achieved,
                        "ok": n_ok,
                        "shed_429": shed,
                        "p50_ms": _percentile(ranked, 0.5) * 1e3,
                        "p99_ms": _percentile(ranked, 0.99) * 1e3,
                        "workers": OPEN_WORKERS,
                        "queue_depth": OPEN_QUEUE_DEPTH,
                    }
                    results.append(record)
                    table_rows.append(
                        [
                            n_nodes,
                            rate_name,
                            fmt(offered),
                            n_ok,
                            shed,
                            fmt(record["p50_ms"]),
                            fmt(record["p99_ms"]),
                        ]
                    )
        finally:
            session.close()
    return table_rows, results


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

_E15A_HEADERS = ["nodes", "qps", "p50 ms", "p99 ms"]
_E15B_HEADERS = [
    "nodes",
    "rate",
    "offered qps",
    "ok",
    "shed 429",
    "p50 ms",
    "p99 ms",
]


def _trajectory(closed_json) -> list[dict]:
    """Gated medians: closed-loop qps and p50 (see module docstring for
    why the p99s, open-loop latencies and shed counts are not gated)."""
    entries = []
    for record in closed_json:
        entries.append(
            {
                "id": f"e15.closed_qps.nodes={record['nodes']}",
                "value": record["qps"],
                "direction": "higher",
            }
        )
        entries.append(
            {
                "id": f"e15.closed_p50_ms.nodes={record['nodes']}",
                "value": record["p50_ms"],
                "direction": "lower",
            }
        )
    return entries


def write_json(payload: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _run_all(base: Path, sizes, repeats: int, quick: bool):
    per_client = 30 if quick else 120
    duration = 1.5 if quick else 4.0
    closed_rows, closed_json = run_closed_loop(base, sizes, repeats, per_client)
    open_rows, open_json = run_open_loop(base, sizes, duration)
    payload = {
        "experiment": "E15",
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "closed_loop": closed_json,
        "open_loop": open_json,
        "trajectory": _trajectory(closed_json),
    }
    return closed_rows, open_rows, payload


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------


def test_network_serving(report, tmp_path, benchmark):
    closed_rows, open_rows, payload = benchmark.pedantic(
        lambda: _run_all(tmp_path, SIZES, REPEATS, quick=False), rounds=1
    )
    report.table(
        f"E15a  closed-loop HTTP throughput ({CLIENTS} keep-alive clients, "
        f"top-{TOP_K} queries)",
        _E15A_HEADERS,
        closed_rows,
    )
    report.table(
        f"E15b  open-loop latency and shedding (workers={OPEN_WORKERS}, "
        f"queue_depth={OPEN_QUEUE_DEPTH})",
        _E15B_HEADERS,
        open_rows,
    )
    write_json(payload)
    # Admission control must actually engage past capacity.
    overload = [r for r in payload["open_loop"] if r["rate"] == "overload"]
    assert overload and all(r["shed_429"] > 0 for r in overload), (
        "the overload rate never tripped admission control: "
        f"{payload['open_loop']}"
    )


# ----------------------------------------------------------------------
# script entry point
# ----------------------------------------------------------------------


def _print_table(title: str, headers, rows) -> None:
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    print(title)
    print("-" * len(title))
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    print()


def main(argv=None) -> int:
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small size, shorter bursts (CI smoke; no timing assertions)",
    )
    args = parser.parse_args(argv)
    sizes = QUICK_SIZES if args.quick else SIZES
    repeats = QUICK_REPEATS if args.quick else REPEATS
    with tempfile.TemporaryDirectory() as tmp:
        closed_rows, open_rows, payload = _run_all(
            Path(tmp), sizes, repeats, quick=args.quick
        )
    _print_table(
        f"E15a  closed-loop HTTP throughput ({CLIENTS} keep-alive clients, "
        f"top-{TOP_K} queries)",
        _E15A_HEADERS,
        closed_rows,
    )
    _print_table(
        f"E15b  open-loop latency and shedding (workers={OPEN_WORKERS}, "
        f"queue_depth={OPEN_QUEUE_DEPTH})",
        _E15B_HEADERS,
        open_rows,
    )
    write_json(payload)
    print(f"machine-readable medians written to {JSON_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
