"""E17 — availability under worker kills with R-way replication.

PR 9 made the process cluster fault tolerant: every document now lives
on ``replication_factor`` ring successors, writes flow through the
primary and replicate to the rest, and reads fail over — primary, then
fresh replicas, then stale ones — under a retry policy with an absolute
deadline budget.  The claim worth pricing is the *availability
contract*: with ``replication_factor=2``, killing any single worker
during sustained mixed load must produce **zero client-visible read
failures** and **zero lost acknowledged writes**, at a bounded latency
cost.  This experiment measures exactly that:

* **E17a — baseline.**  Reader threads plus one writer against a
  healthy R=2 cluster: aggregate read qps and read latency quantiles
  with nothing failing.  This is the denominator for the chaos phase's
  p99 inflation.

* **E17b — chaos.**  The same mixed load while the seeded
  ``FaultPlan.kills`` schedule SIGKILLs one worker at a time — the
  next kill only fires after the previous victim respawned and every
  replica resynced (the one-failure-at-a-time regime R=2 is designed
  for).  Every read during the phase must succeed; every write the
  client saw acknowledged (directly or after in-budget retries) must
  be readable once the dust settles.  The kill count, failed reads,
  lost writes, and the chaos-vs-baseline p99 ratio are all reported;
  the failure counters are asserted to be zero *on every host* — they
  are correctness tripwires, not timings.

Runs both ways::

    PYTHONPATH=src python -m pytest benchmarks/bench_e17_availability.py \
        -x -q -o python_files="bench_*.py"
    PYTHONPATH=src python benchmarks/bench_e17_availability.py [--quick]

The script form needs no pytest plugins (CI smoke uses ``--quick``)
and always writes machine-readable results — including the
``trajectory`` entries the CI benchmark-trajectory gate compares — to
``benchmarks/out/BENCH_E17.json``.  Latency/throughput trajectory
entries are emitted only on multi-core hosts (on one core they price
the scheduler, not the failover path); the ``failed_reads`` and
``lost_writes`` tripwires are emitted everywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import threading
import time
from pathlib import Path

try:
    from conftest import fmt
except ImportError:  # script mode: run outside pytest's rootdir sys.path
    def fmt(value: float, digits: int = 4) -> str:
        return f"{value:.{digits}g}"

from repro.serve import connect_collection
from repro.serve.cluster import ProcessCollection, call_with_retry
from repro.serve.cluster.chaos import ChaosMonkey, FaultPlan
import repro

OUT_DIR = Path(__file__).parent / "out"
JSON_PATH = OUT_DIR / "BENCH_E17.json"

N_DOCS = 6
N_NODES = 300
WORKERS = 3
REPLICATION = 2
READERS = 4
TOP_K = 10
PLAN_SEED = 20060328  # the paper's publication year+month+day
KILLS = 3
QUICK_KILLS = 1
BASELINE_S = 3.0
QUICK_BASELINE_S = 1.5
WRITE_GAP_S = 0.02
WRITE_BUDGET_S = 60.0
HEAL_TIMEOUT_S = 120.0
KILL_DWELL_S = 0.75  # mixed load runs this long after each heal


def _max_p99_inflation() -> float:
    # Acceptance ceiling: chaos-phase read p99 over the baseline p99,
    # asserted only on hosts with >= 2 cores (one core serializes the
    # respawn against the readers and prices the scheduler instead).
    return float(os.environ.get("E17_MAX_P99_INFLATION", "50.0"))


def _build_collection(base: Path):
    """N_DOCS person documents plus the query mix the readers run."""
    path = base / "avail"
    shutil.rmtree(path, ignore_errors=True)
    keys = [f"person{i}" for i in range(N_DOCS)]
    with connect_collection(path, create=True, observability=None) as seed:
        rng = random.Random(11)
        for key in keys:
            seed.create_document(key, root="person")
            update = repro.update(
                repro.pattern("person", variable="p", anchored=True)
            )
            for j in range(max(4, N_NODES // 75)):
                update = update.insert(
                    "p", repro.tree("email", f"{key}.{j}@x")
                )
            seed.update(key, update.confidence(0.5 + rng.random() / 2))
    patterns = ["//email", "/person { email [$e] }"]
    return path, keys, patterns


def _insert_email(value: str):
    return (
        repro.update(repro.pattern("person", variable="p", anchored=True))
        .insert("p", repro.tree("email", value))
        .confidence(0.9)
    )


def _wait_healthy(cluster, deadline_s: float = HEAL_TIMEOUT_S) -> None:
    """Block until every worker is alive again and no replica is stale."""
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline_s:
        if all(info["alive"] for info in cluster.workers().values()):
            try:
                cluster.await_replication(deadline_s)
                return
            except Exception:
                pass
        time.sleep(0.05)
    raise AssertionError("cluster never healed within the timeout")


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def _mixed_load(cluster, keys, patterns, *, monkey=None, duration_s=0.0):
    """One load phase: READERS reader threads + 1 writer, and either a
    fixed duration (baseline) or a kill schedule (chaos — the phase
    ends when the last kill has been applied *and healed*).

    Returns the phase record: read counts/latencies, every acknowledged
    write value, and the failure counters the contract is about.
    """
    stop = threading.Event()
    latencies: list[list[float]] = [[] for _ in range(READERS)]
    read_errors: list = []
    acked: list[str] = []
    write_errors: list = []
    phase = "chaos" if monkey is not None else "baseline"

    def reader(slot: int) -> None:
        local = latencies[slot]
        i = slot
        while not stop.is_set():
            pattern = patterns[i % len(patterns)]
            key = keys[i % len(keys)]
            t0 = time.perf_counter()
            try:
                cluster.query(pattern, keys=[key]).limit(TOP_K).all()
            except Exception as exc:  # the contract says: never
                read_errors.append(repr(exc))
            else:
                local.append(time.perf_counter() - t0)
            i += 1

    def writer() -> None:
        rng = random.Random(PLAN_SEED)
        i = 0
        while not stop.is_set():
            value = f"{phase}.{i}@x"

            def write() -> None:
                cluster.update(keys[0], _insert_email(value))

            try:
                call_with_retry(
                    write,
                    deadline=time.monotonic() + WRITE_BUDGET_S,
                    rng=rng,
                )
            except Exception as exc:  # not acked: the client saw it fail
                write_errors.append(repr(exc))
            else:
                acked.append(value)
            i += 1
            stop.wait(WRITE_GAP_S)

    threads = [
        threading.Thread(target=reader, args=(slot,)) for slot in range(READERS)
    ]
    threads.append(threading.Thread(target=writer))
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    kills = 0
    try:
        if monkey is None:
            time.sleep(duration_s)
        else:
            while True:
                fault = monkey.apply_next()
                if fault is None:
                    break
                kills += 1
                victim = monkey.applied[-1][1]
                before = cluster.workers()[victim]["respawns"]
                # The SIGKILL takes a monitor tick to be *observed*; a
                # naive health poll right after the kill sees the stale
                # "alive" flag and declares victory before the failover
                # path ever ran.  Wait for the respawn counter first.
                t0 = time.monotonic()
                while time.monotonic() - t0 < HEAL_TIMEOUT_S:
                    if cluster.workers()[victim]["respawns"] > before:
                        break
                    time.sleep(0.02)
                else:
                    raise AssertionError(
                        f"killed worker {victim} was never respawned"
                    )
                _wait_healthy(cluster)
                time.sleep(KILL_DWELL_S)  # load against the healed cluster
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    wall = time.perf_counter() - start

    flat = sorted(s for local in latencies for s in local)
    return {
        "phase": phase,
        "wall_s": wall,
        "kills": kills,
        "reads": len(flat),
        "read_qps": len(flat) / wall if wall else 0.0,
        "read_p50_ms": _quantile(flat, 0.50) * 1e3,
        "read_p99_ms": _quantile(flat, 0.99) * 1e3,
        "failed_reads": len(read_errors),
        "read_errors": read_errors[:5],
        "writes_acked": len(acked),
        "failed_writes": len(write_errors),
        "acked_values": acked,
    }


def _verify_acked(cluster, key: str, acked: list[str]) -> int:
    """How many acknowledged write values are *not* readable after the
    cluster healed — the lost-write counter (contract: zero)."""
    rows = cluster.query("/person { email [$e] }", keys=[key]).all()
    present = {row.bindings()["e"] for row in rows}
    return sum(1 for value in acked if value not in present)


def run_availability(base: Path, quick: bool):
    """E17 rows: [phase, kills, reads, read qps, p50 ms, p99 ms,
    failed reads, acked writes, lost writes]."""
    path, keys, patterns = _build_collection(base)
    kills = QUICK_KILLS if quick else KILLS
    duration = QUICK_BASELINE_S if quick else BASELINE_S
    with ProcessCollection(
        path,
        shard_processes=WORKERS,
        replication_factor=REPLICATION,
        observability=None,
        attempt_timeout=2.0,
        query_deadline=30.0,
    ) as cluster:
        cluster.await_replication(HEAL_TIMEOUT_S)
        baseline = _mixed_load(cluster, keys, patterns, duration_s=duration)
        _wait_healthy(cluster)
        baseline["lost_writes"] = _verify_acked(
            cluster, keys[0], baseline.pop("acked_values")
        )

        monkey = ChaosMonkey(cluster, FaultPlan.kills(PLAN_SEED, length=kills))
        chaos = _mixed_load(cluster, keys, patterns, monkey=monkey)
        _wait_healthy(cluster)
        chaos["lost_writes"] = _verify_acked(
            cluster, keys[0], chaos.pop("acked_values")
        )

    inflation = (
        chaos["read_p99_ms"] / baseline["read_p99_ms"]
        if baseline["read_p99_ms"]
        else float("inf")
    )
    table_rows = [
        [
            record["phase"],
            record["kills"],
            record["reads"],
            fmt(record["read_qps"]),
            fmt(record["read_p50_ms"]),
            fmt(record["read_p99_ms"]),
            record["failed_reads"],
            record["writes_acked"],
            record["lost_writes"],
        ]
        for record in (baseline, chaos)
    ]
    return table_rows, {
        "baseline": baseline,
        "chaos": chaos,
        "p99_inflation": inflation,
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

_E17_HEADERS = [
    "phase",
    "kills",
    "reads",
    "read qps",
    "p50 ms",
    "p99 ms",
    "failed reads",
    "acked writes",
    "lost writes",
]


def _trajectory(results: dict) -> list[dict]:
    """The numbers the CI trajectory gate compares across commits.

    The failure counters are emitted on *every* host — they gate the
    availability contract itself, and a zero baseline tolerates only
    zero (``0 > 0 * slack`` never fires, any regression does).  The
    latency/throughput numbers are multi-core-only, as in E16.
    """
    chaos = results["chaos"]
    entries = [
        {"id": "e17.failed_reads", "value": chaos["failed_reads"], "direction": "lower"},
        {"id": "e17.lost_writes", "value": chaos["lost_writes"], "direction": "lower"},
    ]
    if (os.cpu_count() or 1) >= 2:
        entries.extend(
            [
                {
                    "id": "e17.read_p99_ms.baseline",
                    "value": results["baseline"]["read_p99_ms"],
                    "direction": "lower",
                },
                {
                    "id": "e17.read_p99_ms.chaos",
                    "value": chaos["read_p99_ms"],
                    "direction": "lower",
                },
                {
                    "id": "e17.read_qps.chaos",
                    "value": chaos["read_qps"],
                    "direction": "higher",
                },
            ]
        )
    return entries


def write_json(payload: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _run_all(base: Path, quick: bool):
    table_rows, results = run_availability(base, quick)
    payload = {
        "experiment": "E17",
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "workers": WORKERS,
        "replication_factor": REPLICATION,
        "plan_seed": PLAN_SEED,
        "baseline": results["baseline"],
        "chaos": results["chaos"],
        "p99_inflation": results["p99_inflation"],
        "trajectory": _trajectory(results),
    }
    return table_rows, payload


def _report(report_table, table_rows, payload) -> None:
    report_table(
        f"E17  availability: {WORKERS} workers at R={REPLICATION}, "
        f"{payload['chaos']['kills']} kill(s) under mixed load "
        f"(p99 inflation {fmt(payload['p99_inflation'], 3)}x)",
        _E17_HEADERS,
        table_rows,
    )


def _assert_contract(payload: dict) -> None:
    chaos = payload["chaos"]
    assert chaos["failed_reads"] == 0, (
        f"{chaos['failed_reads']} reads failed during the kill schedule "
        f"(sample: {chaos['read_errors']}) — R={REPLICATION} failover "
        f"must keep every read answerable with one worker down"
    )
    assert chaos["lost_writes"] == 0, (
        f"{chaos['lost_writes']} acknowledged writes were unreadable "
        f"after the cluster healed — acked means durable"
    )
    assert payload["baseline"]["failed_reads"] == 0
    assert payload["baseline"]["lost_writes"] == 0
    assert chaos["kills"] >= 1, "the chaos phase never applied a kill"


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------


def test_availability(report, tmp_path, benchmark):
    table_rows, payload = benchmark.pedantic(
        lambda: _run_all(tmp_path, quick=False), rounds=1
    )
    _report(report.table, table_rows, payload)
    write_json(payload)
    _assert_contract(payload)
    if (os.cpu_count() or 1) >= 2:
        assert payload["p99_inflation"] <= _max_p99_inflation(), (
            f"chaos-phase read p99 inflated {payload['p99_inflation']:.1f}x "
            f"over baseline, above the {_max_p99_inflation()}x ceiling "
            f"(cpu_count={os.cpu_count()})"
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
        help="one kill, shorter baseline (CI smoke; contract still asserted)",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        table_rows, payload = _run_all(Path(tmp), quick=args.quick)

    def table(title, headers, rows):
        _print_table(title, headers, rows)

    _report(table, table_rows, payload)
    write_json(payload)
    _assert_contract(payload)
    print(f"machine-readable results written to {JSON_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
