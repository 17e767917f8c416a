"""E8 — The probabilistic XML warehouse end to end (paper, slides 3 & 16).

The architecture diagram: imprecise modules push update transactions
with confidences; consumers query.  The bench drives the warehouse with
the three module simulators (information extraction, data cleaning,
schema matching), measuring update throughput over the stream length
and query latency on the resulting store.
"""

from __future__ import annotations

import time

import pytest

from repro import Session
from repro.warehouse import Warehouse
from repro.workloads import CleaningScenario, ExtractionScenario, MatchingScenario

from conftest import fmt

SCENARIOS = {
    "extraction": lambda: ExtractionScenario(seed=30, n_people=6),
    "cleaning": lambda: CleaningScenario(seed=31, n_products=5),
    "matching": lambda: MatchingScenario(seed=32),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_update_throughput(report, tmp_path, benchmark, name):
    scenario = SCENARIOS[name]()

    def run():
        rows = []
        for stream_length in (10, 50, 150):
            path = tmp_path / f"{name}-{stream_length}"
            with Warehouse.create(
                path, scenario.initial_document(), auto_simplify_factor=4.0
            ) as wh:
                transactions = list(scenario.stream(stream_length))
                start = time.perf_counter()
                for tx in transactions:
                    wh._commit_update(tx)
                elapsed = time.perf_counter() - start
                rows.append(
                    [
                        stream_length,
                        fmt(stream_length / elapsed, 4),
                        wh.stats()["nodes"],
                        wh.stats()["used_events"],
                    ]
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1)
    report.table(
        f"E8a  {name} module stream throughput",
        ["transactions", "tx/s", "nodes after", "events used"],
        rows,
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_query_latency_after_stream(report, tmp_path, benchmark, name):
    scenario = SCENARIOS[name]()
    path = tmp_path / name
    with Warehouse.create(path, scenario.initial_document(), auto_simplify_factor=4.0) as wh:
        for tx in scenario.stream(60):
            wh._commit_update(tx)
        patterns = scenario.query_mix()
        session = Session(wh)

        def query_all():
            return [session.query(p).answers() for p in patterns]

        results = benchmark(query_all)
        report.table(
            f"E8b  {name} query mix after 60 transactions",
            ["query", "answers", "top probability"],
            [
                [str(p), len(r), fmt(r[0].probability) if r else "-"]
                for p, r in zip(patterns, results)
            ],
        )


def test_durability_of_stream(report, tmp_path, benchmark):
    """Commit-per-update: reopening reproduces the exact store."""

    def run():
        scenario = ExtractionScenario(seed=33, n_people=4)
        path = tmp_path / "durable"
        with Warehouse.create(path, scenario.initial_document()) as wh:
            for tx in scenario.stream(25):
                wh._commit_update(tx)
            canonical = wh.document.root.canonical()
            sequence = wh.sequence
        with Warehouse.open(path) as wh:
            assert wh.document.root.canonical() == canonical
            assert wh.sequence == sequence
            entries = len(wh.history())
        return sequence, entries

    sequence, entries = benchmark.pedantic(run, rounds=1)
    report.table(
        "E8c  durability after 25 transactions",
        ["committed sequence", "log entries", "reopen matches"],
        [[sequence, entries, "yes"]],
    )
