"""E18 — probability-aware top-k and anytime answers (2.0 surface).

Two workloads, one per tentpole claim of the QueryOptions redesign:

* **Top-k branch-and-bound** — a directory of persons where a handful
  carry high confidence and the long tail is unlikely, each person
  fattened with per-event email children.  ``order_by_probability()
  .limit(5)`` admits through the threshold heap and prunes partial
  matches whose condition bound cannot beat the current floor; the
  baseline enumerates every row and sorts.  Same rows, a fraction of
  the join work.
* **Anytime Monte-Carlo** — an adversarial event graph: every person
  answers identically (one answer group) and layer updates attach a
  shared event to every person in a *group*, with each person in two
  groups.  The overlapping bipartite blocks refuse to factor into
  independent components, so exact Shannon expansion blows up while
  the sampler's per-sample cost stays linear in the DNF.  ``estimate
  (epsilon=, deadline_ms=)`` returns a ±epsilon answer inside a
  budget the exact path exceeds by an order of magnitude.

Script mode (no pytest plugins needed)::

    PYTHONPATH=src python benchmarks/bench_e18_topk.py [--quick]

measures both workloads and writes machine-readable medians —
including the ``trajectory`` entries the CI benchmark-trajectory gate
compares — to ``benchmarks/out/BENCH_E18.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import time
from pathlib import Path

import pytest

import repro
from repro import connect
from repro.obs.metrics import process_registry
from repro.tpwj import parse_pattern

try:
    from conftest import fmt
except ImportError:  # script mode: run outside pytest's rootdir sys.path
    def fmt(value: float, digits: int = 4) -> str:
        return f"{value:.{digits}g}"

OUT_DIR = Path(__file__).parent / "out"
JSON_PATH = OUT_DIR / "BENCH_E18.json"

# Top-k workload: nodes = persons * (2 + EMAILS) + 1 (directory root).
SIZES = (320, 640, 1200)
QUICK_SIZES = (320,)
EMAILS = 6
HOT_PERSONS = 6
TOPK = 5
TOPK_PATTERN = "//person { name [$n], email [$e] }"

# Anytime workload: one answer group over overlapping bipartite blocks.
ANYTIME_PERSONS = 34
ANYTIME_LAYERS = 20
ANYTIME_GROUPS = 16
ANYTIME_PATTERN = "//person { name [$n], flag [$f] }"
DEADLINE_MS = 25
EPSILON = 0.05


def build_topk_warehouse(path, n_nodes: int, seed: int = 18):
    """A top-k-adversarial directory: few hot persons, a cheap long tail.

    The branch-and-bound join prices the hot persons first into the
    admission heap; every cold person is then pruned at its first
    binding, skipping the email cross-product entirely.  The full
    enumeration pays for all ``persons * EMAILS`` rows.
    """
    persons = n_nodes // (2 + EMAILS)
    rng = random.Random(seed)
    session = connect(path, create=True, root="directory")
    for i in range(persons):
        if i < HOT_PERSONS:
            conf = round(rng.uniform(0.94, 0.99), 3)
        else:
            conf = round(rng.uniform(0.02, 0.12), 3)
        session.update(
            repro.update(
                repro.pattern("directory", variable="d", anchored=True)
            ).insert(
                "d", repro.tree("person", repro.tree("name", f"p{i:04d}"))
            ),
            confidence=conf,
        )
    for j in range(EMAILS):
        session.update(
            repro.update(repro.pattern("person", variable="p")).insert(
                "p", repro.tree("email", f"m{j}@example.org")
            ),
            confidence=round(rng.uniform(0.4, 0.8), 3),
        )
    return session


def build_anytime_warehouse(path, persons: int, layers: int, groups: int, seed: int = 7):
    """One answer group whose DNF is a union of *overlapping* bipartite
    blocks: person i (in groups g1, g2) x layer j (targeting one group).

    With each person in two groups the blocks share person events, so
    the Shannon expansion cannot split the graph into independent
    components and its recursion grows superpolynomially — the regime
    the anytime estimator exists for.  Confidences are kept low so the
    group probability stays interior (~0.76): the sampler has real
    variance to fight, not a near-certain event.
    """
    rng = random.Random(seed)
    session = connect(path, create=True, root="directory")
    for _ in range(persons):
        g1, g2 = rng.sample(range(groups), 2)
        session.update(
            repro.update(
                repro.pattern("directory", variable="d", anchored=True)
            ).insert(
                "d",
                repro.tree(
                    "person",
                    repro.tree("name", "dup"),
                    repro.tree("group", f"g{g1}"),
                    repro.tree("group", f"g{g2}"),
                ),
            ),
            confidence=round(rng.uniform(0.05, 0.30), 3),
        )
    for _ in range(layers):
        g = rng.randrange(groups)
        session.update(
            repro.update(
                parse_pattern(f'//person [$p] {{ group [="g{g}"] }}')
            ).insert("p", repro.tree("flag", "x")),
            confidence=round(rng.uniform(0.05, 0.30), 3),
        )
    return session


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


def _row_key(row):
    return (row.probability, row.tree.canonical())


# ----------------------------------------------------------------------
# pytest tier: the acceptance assertions
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n_nodes", [320, 1200])
def test_topk_branch_and_bound(report, benchmark, tmp_path_factory, n_nodes):
    """E18a — top-5 branch-and-bound vs enumerate-everything-and-sort.

    Same rows in the same order, and at 1200 nodes the pruned join must
    be at least 5x faster (``E18_MIN_SPEEDUP`` relaxes the factor on
    noisy shared runners).
    """
    path = tmp_path_factory.mktemp("e18a") / f"wh-{n_nodes}"
    with build_topk_warehouse(path, n_nodes) as session:
        topk_rows = list(
            session.query(TOPK_PATTERN).order_by_probability().limit(TOPK)
        )
        full = list(session.query(TOPK_PATTERN))
        expected = sorted(full, key=lambda row: -row.probability)[:TOPK]
        assert [_row_key(r) for r in topk_rows] == [_row_key(r) for r in expected]

        process_registry.reset()
        list(session.query(TOPK_PATTERN).order_by_probability().limit(TOPK))
        pruned = process_registry.counter("match.bound_pruned")
        process_registry.reset()
        assert pruned > 0, "bounded join never pruned a partial match"

        def run():
            topk = _best_of(
                lambda: list(
                    session.query(TOPK_PATTERN).order_by_probability().limit(TOPK)
                )
            )
            full_sort = _best_of(
                lambda: sorted(
                    session.query(TOPK_PATTERN),
                    key=lambda row: -row.probability,
                )[:TOPK]
            )
            speedup = full_sort / topk if topk > 0 else float("inf")
            if n_nodes >= 1200:
                floor = float(os.environ.get("E18_MIN_SPEEDUP", "5.0"))
                assert speedup >= floor, (
                    f"top-{TOPK} branch-and-bound ({topk:.6f}s) is only "
                    f"{speedup:.2f}x faster than enumerate+sort "
                    f"({full_sort:.6f}s) on {n_nodes} nodes; need >= {floor}x"
                )
            return [
                [n_nodes, len(full), fmt(full_sort), fmt(topk), fmt(speedup, 3)]
            ]

        rows = benchmark.pedantic(run, rounds=1)
    report.table(
        f"E18a top-{TOPK} branch-and-bound vs enumerate+sort, "
        f"{n_nodes}-node directory",
        ["nodes", "total rows", "enumerate+sort s", f"top-{TOPK} s", "speedup"],
        rows,
    )


def test_anytime_estimate_beats_exact_shannon(report, benchmark, tmp_path_factory):
    """E18b — the anytime path answers inside a budget exact cannot meet.

    On the overlapping-block event graph the exact Shannon expansion
    must cost more than 10x the sampling deadline, while ``estimate``
    lands within ±epsilon of the exact probability.
    """
    path = tmp_path_factory.mktemp("e18b") / "wh"
    with build_anytime_warehouse(
        path, ANYTIME_PERSONS, ANYTIME_LAYERS, ANYTIME_GROUPS
    ) as session:
        # Warm-up: plan + document walk cached for both paths.
        assert list(session.query(ANYTIME_PATTERN).limit(1))

        def run():
            start = time.perf_counter()
            answers = session.query(ANYTIME_PATTERN).answers()
            exact_s = time.perf_counter() - start
            start = time.perf_counter()
            estimates = session.query(ANYTIME_PATTERN).estimate(
                epsilon=EPSILON, deadline_ms=DEADLINE_MS, seed=0
            )
            estimate_s = time.perf_counter() - start
            assert len(answers) == len(estimates) == 1
            error = abs(estimates[0].probability - answers[0].probability)
            assert error <= EPSILON, (
                f"estimate off by {error:.4f} > epsilon {EPSILON}"
            )
            deadline_s = DEADLINE_MS / 1000.0
            assert exact_s >= 10.0 * deadline_s, (
                f"exact Shannon ({exact_s:.3f}s) no longer exceeds 10x the "
                f"{DEADLINE_MS}ms deadline — grow the anytime workload"
            )
            slack = float(os.environ.get("E18_TIMING_SLACK", "3.0"))
            assert estimate_s <= exact_s / slack, (
                f"anytime path ({estimate_s:.3f}s) is not meaningfully "
                f"faster than exact ({exact_s:.3f}s)"
            )
            return [
                [
                    fmt(answers[0].probability, 6),
                    fmt(estimates[0].probability, 6),
                    estimates[0].samples,
                    fmt(exact_s),
                    fmt(estimate_s),
                    fmt(exact_s / estimate_s, 3),
                ]
            ]

        rows = benchmark.pedantic(run, rounds=1)
    report.table(
        f"E18b anytime estimate (eps={EPSILON}, deadline={DEADLINE_MS}ms) "
        "vs exact Shannon, overlapping-block event graph",
        ["exact p", "estimate p", "samples", "exact s", "estimate s", "ratio"],
        rows,
    )


# ----------------------------------------------------------------------
# script entry point (machine-readable medians for the trajectory gate)
# ----------------------------------------------------------------------


def run_topk_medians(sizes, repeats: int = 5):
    table_rows = []
    results = []
    for n_nodes in sizes:
        with tempfile.TemporaryDirectory() as tmp:
            with build_topk_warehouse(Path(tmp) / "wh", n_nodes) as session:
                topk_rows = [
                    _row_key(r)
                    for r in session.query(TOPK_PATTERN)
                    .order_by_probability()
                    .limit(TOPK)
                ]
                full = list(session.query(TOPK_PATTERN))
                expected = [
                    _row_key(r)
                    for r in sorted(full, key=lambda row: -row.probability)[:TOPK]
                ]
                assert topk_rows == expected  # pruning never changes results
                topk = _best_of(
                    lambda: list(
                        session.query(TOPK_PATTERN)
                        .order_by_probability()
                        .limit(TOPK)
                    ),
                    repeats,
                )
                full_sort = _best_of(
                    lambda: sorted(
                        session.query(TOPK_PATTERN),
                        key=lambda row: -row.probability,
                    )[:TOPK],
                    repeats,
                )
        speedup = full_sort / topk if topk else float("inf")
        table_rows.append(
            [
                n_nodes,
                len(full),
                fmt(full_sort * 1e6),
                fmt(topk * 1e6),
                fmt(speedup, 3),
            ]
        )
        results.append(
            {
                "nodes": n_nodes,
                "rows": len(full),
                "full_sort_us": full_sort * 1e6,
                "topk5_us": topk * 1e6,
            }
        )
    return table_rows, results


def run_anytime_medians(repeats: int = 3):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wh"
        with build_anytime_warehouse(
            path, ANYTIME_PERSONS, ANYTIME_LAYERS, ANYTIME_GROUPS
        ) as session:
            exact_p = session.query(ANYTIME_PATTERN).answers()[0].probability
            estimates = session.query(ANYTIME_PATTERN).estimate(
                epsilon=EPSILON, deadline_ms=DEADLINE_MS, seed=0
            )
            assert abs(estimates[0].probability - exact_p) <= EPSILON
            estimate = _best_of(
                lambda: session.query(ANYTIME_PATTERN).estimate(
                    epsilon=EPSILON, deadline_ms=DEADLINE_MS, seed=0
                ),
                repeats,
            )
        # Exact Shannon timing must be cold: the engine's shared
        # ShannonCache would otherwise serve repeats for free, so each
        # repeat reopens the warehouse for a fresh cache.
        exact = float("inf")
        for _ in range(repeats):
            with connect(path) as session:
                start = time.perf_counter()
                answers = session.query(ANYTIME_PATTERN).answers()
                elapsed = time.perf_counter() - start
            assert answers[0].probability == exact_p
            exact = min(exact, elapsed)
    table_row = [
        fmt(exact_p, 6),
        fmt(estimates[0].probability, 6),
        estimates[0].samples,
        fmt(exact * 1e3),
        fmt(estimate * 1e3),
        fmt(exact / estimate if estimate else float("inf"), 3),
    ]
    result = {
        "exact_probability": exact_p,
        "estimate_probability": estimates[0].probability,
        "samples": estimates[0].samples,
        "exact_shannon_ms": exact * 1e3,
        "estimate_wall_ms": estimate * 1e3,
    }
    return table_row, result


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


def write_json(payload: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="E18 top-k / anytime medians (script mode)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes, fewer repeats (CI smoke; no timing assertions)",
    )
    args = parser.parse_args(argv)
    sizes = QUICK_SIZES if args.quick else SIZES
    repeats = 3 if args.quick else 5
    topk_rows, topk_results = run_topk_medians(sizes, repeats)
    _print_table(
        f"E18a top-{TOPK} branch-and-bound vs enumerate+sort",
        ["nodes", "rows", "enumerate+sort us", f"top-{TOPK} us", "speedup"],
        topk_rows,
    )
    anytime_row, anytime_result = run_anytime_medians(2 if args.quick else 3)
    _print_table(
        f"E18b anytime estimate (eps={EPSILON}, deadline={DEADLINE_MS}ms) "
        "vs exact Shannon",
        ["exact p", "estimate p", "samples", "exact ms", "estimate ms", "ratio"],
        [anytime_row],
    )
    write_json(
        {
            "experiment": "E18",
            "metric": "query_us",
            "quick": args.quick,
            "topk": topk_results,
            "anytime": anytime_result,
            "trajectory": [
                *(
                    {
                        "id": f"e18.topk5_us.nodes={record['nodes']}",
                        "value": record["topk5_us"],
                        "direction": "lower",
                    }
                    for record in topk_results
                ),
                {
                    "id": "e18.estimate_wall_ms",
                    "value": anytime_result["estimate_wall_ms"],
                    "direction": "lower",
                },
            ],
        }
    )
    print(f"machine-readable medians written to {JSON_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
