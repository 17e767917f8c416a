"""E9 — Query optimization ablation (paper, slide 19 perspectives).

The matcher ships three optimizations: label-index
candidate pre-filtering, bottom-up semi-join pruning and early join
checking.  The bench toggles each on documents of growing size,
verifying the result sets are identical and measuring the pruning wins.

E9 revisited — the cost-based engine
------------------------------------
The five fixed configurations below are *manual* points in the strategy
space: someone has to know which toggles pay off for a given document
and query.  The :mod:`repro.engine` subsystem subsumes the ablation
flags: it collects document statistics, prices candidate sets and axis
steps, and emits a per-query plan choosing the visit order, the scan
operator, the semi-join prune and the join-check placement — the same
decisions the flags hard-code, now made from data.  ``test_planner_vs_
fixed`` closes the loop: on this bench's workloads the auto-planned
path must never be slower than the worst fixed configuration and must
stay within 10% of the best one, with the plan served from the
warehouse-style plan cache on repeat executions (steady state for the
paper's polling consumers).

Script mode (no pytest plugins needed)::

    PYTHONPATH=src python benchmarks/bench_e9_query_optimization.py [--quick]

measures the steady-state auto-planned path against the fixed
configurations across sizes and writes machine-readable medians —
including the ``trajectory`` entries the CI benchmark-trajectory gate
compares — to ``benchmarks/out/BENCH_E9.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

import pytest

from repro.analysis import counters
from repro.engine import QueryEngine
from repro.tpwj import MatchConfig, find_matches
from repro.trees import RandomTreeConfig
from repro.workloads import FuzzyWorkloadConfig, random_fuzzy_tree, random_query_for

try:
    from conftest import fmt
except ImportError:  # script mode: run outside pytest's rootdir sys.path
    def fmt(value: float, digits: int = 4) -> str:
        return f"{value:.{digits}g}"

OUT_DIR = Path(__file__).parent / "out"
JSON_PATH = OUT_DIR / "BENCH_E9.json"

SIZES = (100, 300, 600, 1200)
QUICK_SIZES = (100, 300)

CONFIGS = {
    "all-on": MatchConfig(),
    "no-label-index": MatchConfig(use_label_index=False),
    "no-semijoin": MatchConfig(use_semijoin_pruning=False),
    "no-early-join": MatchConfig(early_join_check=False),
    "all-off": MatchConfig(
        use_label_index=False, use_semijoin_pruning=False, early_join_check=False
    ),
}


def instance(n_nodes: int, seed: int = 40):
    rng = random.Random(seed)
    doc = random_fuzzy_tree(
        rng,
        FuzzyWorkloadConfig(
            tree=RandomTreeConfig(
                max_nodes=n_nodes,
                max_children=5,
                max_depth=7,
                min_nodes=max(2, n_nodes // 2),
            ),
            n_events=4,
        ),
    )
    pattern = random_query_for(
        rng, doc.root, max_nodes=5, join_probability=0.8, value_test_probability=0.5
    )
    return doc, pattern


@pytest.mark.parametrize("n_nodes", [100, 300, 600])
def test_ablation_table(report, benchmark, n_nodes):
    doc, pattern = instance(n_nodes)

    def run():
        baseline = None
        rows = []
        for name, config in CONFIGS.items():
            counters.reset()
            start = time.perf_counter()
            matches = find_matches(pattern, doc.root, config)
            elapsed = time.perf_counter() - start
            assignments = counters.get("match.assignments")
            if baseline is None:
                baseline = len(matches)
            assert len(matches) == baseline  # optimizations never change results
            rows.append([name, len(matches), int(assignments), fmt(elapsed)])
        counters.reset()
        return rows

    rows = benchmark.pedantic(run, rounds=1)
    report.table(
        f"E9a  matcher ablation, {n_nodes}-node document, query {pattern}",
        ["config", "matches", "assignments tried", "seconds"],
        rows,
    )


@pytest.mark.parametrize("config_name", ["all-on", "all-off"])
def test_matcher_benchmark(benchmark, config_name):
    doc, pattern = instance(400, seed=41)
    config = CONFIGS[config_name]
    benchmark(find_matches, pattern, doc.root, config)


def _best_of(callable_, repeats: int = 5) -> float:
    """Minimum wall-clock over *repeats* calls (noise-robust timing)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


@pytest.mark.parametrize("n_nodes", [100, 300, 600, 1200])
def test_planner_vs_fixed(report, benchmark, n_nodes):
    """E9c — the cost-based engine against every fixed configuration.

    The engine runs in warehouse steady state: statistics collected
    once, the plan built on first execution and served from the plan
    cache afterwards.  Asserts the acceptance envelope — never slower
    than the worst fixed configuration, within 10% of the best.
    """
    doc, pattern = instance(n_nodes)
    engine = QueryEngine(lambda: doc.root)
    reference = len(find_matches(pattern, doc.root))

    def run():
        rows = []
        fixed_times: dict[str, float] = {}
        for name, config in CONFIGS.items():
            elapsed = _best_of(lambda: find_matches(pattern, doc.root, config))
            fixed_times[name] = elapsed
            rows.append([name, reference, fmt(elapsed)])

        matches = engine.find_matches(pattern)  # builds + caches the plan
        assert len(matches) == reference
        auto_time = _best_of(lambda: engine.find_matches(pattern))
        rows.append(["auto-planned", len(matches), fmt(auto_time)])

        best = min(fixed_times.values())
        worst = max(fixed_times.values())
        # Timer-noise guard for sub-millisecond workloads; CI runners
        # are noisy shared machines, so they widen it via E9_TIMING_SLACK.
        slack = float(os.environ.get("E9_TIMING_SLACK", "2.5e-4"))
        assert auto_time <= worst + slack, (
            f"auto-planned path ({auto_time:.6f}s) slower than the worst "
            f"fixed configuration ({worst:.6f}s)"
        )
        assert auto_time <= best * 1.10 + slack, (
            f"auto-planned path ({auto_time:.6f}s) more than 10% behind the "
            f"best fixed configuration ({best:.6f}s)"
        )
        rows.append(["(best fixed)", reference, fmt(best)])
        return rows

    rows = benchmark.pedantic(run, rounds=1)
    report.table(
        f"E9c  planner vs fixed strategies, {n_nodes}-node document, "
        f"query {pattern}",
        ["strategy", "matches", "seconds"],
        rows,
    )


def test_plan_cache_serves_repeat_queries(report, benchmark):
    """E9d — repeated queries hit the plan cache (no re-planning cost)."""

    def run():
        doc, pattern = instance(400, seed=43)
        engine = QueryEngine(lambda: doc.root)
        counters.reset()
        engine.find_matches(pattern)
        built_first = counters.get("engine.plans_built")
        hits_first = counters.get("engine.plan_cache_hits")
        engine.find_matches(pattern)
        built_second = counters.get("engine.plans_built")
        hits_second = counters.get("engine.plan_cache_hits")
        counters.reset()
        assert built_second == built_first == 1  # planned exactly once
        assert hits_second == hits_first + 1  # second run: cache hit
        return [[int(built_second), int(hits_second)]]

    rows = benchmark.pedantic(run, rounds=1)
    report.table(
        "E9d  plan cache on a repeated query",
        ["plans built", "cache hits"],
        rows,
    )


def run_planner_medians(sizes, repeats: int = 5):
    """Steady-state engine timings per size, for the script/JSON mode.

    Per size: the best fixed configuration (the strongest manual
    baseline), the warm auto-planned path (plan cached, document walk
    reused — warehouse steady state), and the match count as a sanity
    anchor.
    """
    table_rows = []
    results = []
    for n_nodes in sizes:
        doc, pattern = instance(n_nodes)
        engine = QueryEngine(lambda: doc.root)
        reference = len(find_matches(pattern, doc.root))
        fixed_times = {
            name: _best_of(
                lambda config=config: find_matches(pattern, doc.root, config),
                repeats,
            )
            for name, config in CONFIGS.items()
        }
        matches = engine.find_matches(pattern)  # builds + caches the plan
        assert len(matches) == reference
        auto = _best_of(lambda: engine.find_matches(pattern), repeats)
        best_fixed = min(fixed_times.values())
        table_rows.append(
            [
                n_nodes,
                reference,
                fmt(best_fixed * 1e6),
                fmt(auto * 1e6),
                fmt(best_fixed / auto if auto else float("inf"), 3),
            ]
        )
        results.append(
            {
                "nodes": n_nodes,
                "matches": reference,
                "best_fixed_us": best_fixed * 1e6,
                "auto_planned_us": auto * 1e6,
            }
        )
    return table_rows, results


_E9_SCRIPT_HEADERS = [
    "nodes",
    "matches",
    "best fixed us",
    "auto-planned us",
    "best fixed / auto",
]


def write_json(payload: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("n_nodes", [600, 1200])
def test_topk_streaming_vs_materialize(report, benchmark, tmp_path_factory, n_nodes):
    """E9e — top-k through the session API: streaming vs materializing.

    ``Session.query(...).limit(k)`` pushes the cap into the engine's
    streaming protocol: the backtracking join stops after k emitted
    rows, and per-row probability work is only paid for those k.  The
    materializing path evaluates every match.  On documents of ≥600
    nodes the streamed top-5 must beat full materialization.
    """
    from collections import Counter

    from repro.api import connect

    doc, _ = instance(n_nodes)
    label, occurrences = Counter(
        node.label for node in doc.root.iter()
    ).most_common(1)[0]
    query = f"//{label}"
    path = tmp_path_factory.mktemp("e9e") / f"wh-{n_nodes}"
    with connect(path, create=True, document=doc) as session:
        # Warm-up: plan cached, document walk built — steady state.
        assert len(session.query(query).limit(5).all()) == 5

        def run():
            streamed = _best_of(lambda: session.query(query).limit(5).all())
            materialized = _best_of(lambda: session.query(query).all())
            rows_total = session.query(query).count()
            assert rows_total >= occurrences // 2
            slack = float(os.environ.get("E9_TIMING_SLACK", "2.5e-4"))
            assert streamed <= materialized + slack, (
                f"top-5 streaming ({streamed:.6f}s) did not beat full "
                f"materialization ({materialized:.6f}s) on {n_nodes} nodes"
            )
            speedup = materialized / streamed if streamed > 0 else float("inf")
            return [
                [
                    doc.size(),
                    rows_total,
                    fmt(materialized),
                    fmt(streamed),
                    fmt(speedup, 3),
                ]
            ]

        rows = benchmark.pedantic(run, rounds=1)
    report.table(
        f"E9e  top-k streaming vs materialize, {n_nodes}-node document, "
        f"query {query} limit 5",
        ["nodes", "total rows", "materialize s", "stream-5 s", "speedup"],
        rows,
    )


def test_pruning_wins_grow_with_document(report, benchmark):
    def run():
        rows = []
        for n_nodes in (100, 300, 600, 1000):
            doc, pattern = instance(n_nodes, seed=42)
            counters.reset()
            find_matches(pattern, doc.root, CONFIGS["all-on"])
            on_assignments = counters.get("match.assignments")
            counters.reset()
            find_matches(pattern, doc.root, CONFIGS["all-off"])
            off_assignments = counters.get("match.assignments")
            counters.reset()
            ratio = off_assignments / on_assignments if on_assignments else float("inf")
            rows.append(
                [doc.size(), int(on_assignments), int(off_assignments), fmt(ratio, 3)]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1)
    report.table(
        "E9b  assignments tried: optimized vs naive matcher",
        ["nodes", "optimized", "naive", "naive/optimized"],
        rows,
    )


# ----------------------------------------------------------------------
# script entry point (machine-readable medians for the trajectory gate)
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
    parser = argparse.ArgumentParser(
        description="E9 steady-state planner medians (script mode)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes, fewer repeats (CI smoke; no timing assertions)",
    )
    args = parser.parse_args(argv)
    sizes = QUICK_SIZES if args.quick else SIZES
    repeats = 3 if args.quick else 5
    rows, results = run_planner_medians(sizes, repeats)
    _print_table(
        "E9   steady-state engine vs best fixed configuration",
        _E9_SCRIPT_HEADERS,
        rows,
    )
    write_json(
        {
            "experiment": "E9",
            "metric": "query_us",
            "quick": args.quick,
            "planner": results,
            "trajectory": [
                {
                    "id": f"e9.auto_planned_us.nodes={record['nodes']}",
                    "value": record["auto_planned_us"],
                    "direction": "lower",
                }
                for record in results
            ],
        }
    )
    print(f"machine-readable medians written to {JSON_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
