"""E12 — the probability fast path (slide 13's pipeline, made cheap).

Once matching is planned (PR 1) and streamed (PR 3), the dominant
per-row cost is the probability pipeline: per-match existence
conditions (mapped nodes ∧ all ancestors), DNF absorption over the
matches of an answer, and the Shannon expansion pricing the
disjunction.  This experiment measures what the fast path buys:

* **E12a** — per-answer probability evaluation, *seed pipeline*
  (per-match ancestor walks, quadratic DNF absorption, per-call
  Shannon memo with per-level event recounts — the exact algorithms of
  the seed tree, re-implemented here as the baseline) vs. the *fast
  path* (ancestor-condition index, sorted/bucketed absorption,
  factorized Shannon expansion with incremental counts and the
  engine-scoped memo), across document sizes, with and without
  deletion churn;
* **E12b** — the engine-scoped Shannon cache: per-row cost with the
  memo cleared before every query vs. warm across queries.

Matching and answer-tree construction are *excluded* from the timed
section (identical on both paths): each measured run prices the same
pre-enumerated (match, answer-key) list, and the two paths must agree
on every probability to 1e-12 — checked on every run.

Runs both ways::

    PYTHONPATH=src python -m pytest benchmarks/bench_e12_probability.py \
        -x -q -o python_files="bench_*.py"
    PYTHONPATH=src python benchmarks/bench_e12_probability.py [--quick]

The script form needs no pytest plugins (CI smoke uses ``--quick``)
and always writes machine-readable medians to
``benchmarks/out/BENCH_E12.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from sys import intern as _intern_str

try:
    from conftest import fmt
except ImportError:  # script mode: run outside pytest's rootdir sys.path
    def fmt(value: float, digits: int = 4) -> str:
        return f"{value:.{digits}g}"

from repro.core.fuzzy_tree import FuzzyNode
from repro.core.query import match_conditions
from repro.core.update import apply_update
from repro.engine import QueryEngine, StatsDelta
from repro.events import Condition, Dnf, dnf_probability
from repro.obs.metrics import process_registry
from repro.tpwj.parser import parse_pattern
from repro.tpwj.result import answer_tree
from repro.trees.random import RandomTreeConfig
from repro.updates.operations import DeleteOperation
from repro.updates.transaction import UpdateTransaction
from repro.workloads import FuzzyWorkloadConfig, random_fuzzy_tree

OUT_DIR = Path(__file__).parent / "out"
JSON_PATH = OUT_DIR / "BENCH_E12.json"

SIZES = (150, 400, 1200)
QUICK_SIZES = (150,)
CHURN = 20
# Quick mode trims sizes and repeats but keeps the per-point workload
# identical (same churn), so the CI trajectory gate can compare a
# quick-mode datapoint against the committed full-mode baseline.
QUICK_CHURN = CHURN
GUARD_WIDTH = 6
REPEATS = 5
QUICK_REPEATS = 2


# ----------------------------------------------------------------------
# Workload: a random document grown by controlled probabilistic deletions
# ----------------------------------------------------------------------


def build_document(n_nodes: int, churn: int, seed: int = 7):
    """A random fuzzy document plus *churn* guard-conditioned deletions.

    The deletion chain is the E5 dependency shape kept at benchmark
    scale: ``churn`` valued ``item`` leaves are scattered through the
    tree and each is deleted under a rotating pair of guard conditions
    with confidence 0.8 — every deletion mints a fresh event and splits
    its target into survivor copies whose conditions accumulate guard
    and confidence literals, which is exactly the state that makes the
    probability pipeline expensive.  Statistics/index deltas are fed to
    the engine as a warehouse commit would.
    """
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
    root = document.root
    guards = []
    for i in range(GUARD_WIDTH):
        name = f"g{i}"
        document.events.declare(name, 0.6)
        root.add_child(FuzzyNode("guard", value=name, condition=Condition.of(name)))
        guards.append(name)
    hosts = [node for node in root.iter() if node.value is None]
    for k in range(max(churn, 1)):
        rng.choice(hosts).add_child(FuzzyNode("item", value=f"v{k}"))

    engine = QueryEngine(lambda: document.root)
    for k in range(churn):
        first = guards[k % GUARD_WIDTH]
        second = guards[(k + 1) % GUARD_WIDTH]
        query = parse_pattern(
            f'/{root.label} {{ guard[="{first}"], guard[="{second}"], '
            f'//item[$t="v{k}"] }}'
        )
        transaction = UpdateTransaction(query, [DeleteOperation("t")], 0.8)
        delta = StatsDelta()
        apply_update(document, transaction, delta=delta)
        engine.apply_delta(delta)
    return document, engine


def enumerate_rows(document, engine):
    """(match, interned answer key) pairs for the measured query mix.

    Enumeration and answer-tree construction are identical on both
    pipelines, so they happen once, outside every timed section.
    """
    queries = [
        parse_pattern("//item[$t]"),
        parse_pattern(f"/{document.root.label} {{ guard[$g], //item[$t] }}"),
    ]
    rows = []
    for query in queries:
        for match in engine.find_matches(query):
            key = _intern_str(answer_tree(document.root, match).canonical())
            rows.append((match, key))
    return rows


# ----------------------------------------------------------------------
# The two pipelines under test
# ----------------------------------------------------------------------


def fast_pipeline(document, engine, rows) -> dict[str, float]:
    """Condition → absorption → probability through the fast path."""
    index = engine.condition_index()
    cache = engine.shannon
    events = document.events
    grouped: dict[str, list[Condition]] = {}
    for match, key in rows:
        conditions = match_conditions(match, index=index)
        if not conditions:
            continue
        grouped.setdefault(key, []).extend(conditions)
    return {
        key: dnf_probability(Dnf(conditions), events, cache=cache)
        for key, conditions in grouped.items()
    }


def seed_pipeline(document, engine, rows) -> dict[str, float]:
    """The seed algorithms, re-implemented verbatim as the baseline.

    Per-match ancestor walks, the quadratic two-way absorption the seed
    ``Dnf.__init__`` performed, and a Shannon expansion whose memo dies
    with the call and whose branch event is recounted from every term
    at every recursion level.  (Both pipelines share today's interned
    conditions — the baseline is the seed's *algorithms*, so the
    measured ratio is conservative.)
    """
    events = document.events
    grouped: dict[str, list[Condition]] = {}
    for match, key in rows:
        condition = _seed_match_condition(match)
        if condition is None:
            continue
        grouped.setdefault(key, []).append(condition)
    return {
        key: _seed_dnf_probability(_seed_absorb(conditions), events)
        for key, conditions in grouped.items()
    }


def _seed_match_condition(match):
    literals: set = set()
    seen: set[int] = set()
    for node in match.nodes():
        for walk in node.ancestors(include_self=True):
            if id(walk) in seen:
                continue
            seen.add(id(walk))
            literals |= walk.condition.literals
    combined = Condition(frozenset(literals), allow_inconsistent=True)
    return combined if combined.is_consistent else None


def _seed_absorb(terms):
    kept: list[Condition] = []
    for term in terms:
        if not term.is_consistent:
            continue
        if any(term.implies(existing) for existing in kept):
            continue
        kept = [existing for existing in kept if not existing.implies(term)]
        kept.append(term)
    return tuple(kept)


def _seed_dnf_probability(terms, table) -> float:
    cache: dict[frozenset, float] = {}

    def solve(term_set: frozenset) -> float:
        if not term_set:
            return 0.0
        if any(term.is_true for term in term_set):
            return 1.0
        cached = cache.get(term_set)
        if cached is not None:
            return cached
        counts: dict[str, int] = {}
        for term in term_set:
            for event in term.events():
                counts[event] = counts.get(event, 0) + 1
        event = max(sorted(counts), key=lambda name: counts[name])
        p = table.probability(event)
        result = 0.0
        for truth, weight in ((True, p), (False, 1.0 - p)):
            if weight == 0.0:
                continue
            branch = frozenset(
                restricted
                for term in term_set
                if (restricted := term.restrict(event, truth)) is not None
            )
            result += weight * solve(branch)
        cache[term_set] = result
        return result

    return solve(frozenset(terms))


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


def _check_agreement(fast: dict, seed: dict, context: str) -> None:
    assert fast.keys() == seed.keys(), f"{context}: answer sets diverge"
    for key, probability in fast.items():
        assert abs(probability - seed[key]) <= 1e-12, (
            f"{context}: probability diverges on {key!r}: "
            f"fast={probability!r} seed={seed[key]!r}"
        )


@contextmanager
def _counters_off():
    """Time the algorithms, not the process registry's bookkeeping."""
    process_registry.disable()
    try:
        yield
    finally:
        process_registry.enable()


def _best_median(pipeline, document, engine, rows, repeats: int, inner: int) -> float:
    """Best-of-*repeats* median of per-run seconds for *inner* runs."""
    medians = []
    for _ in range(repeats):
        timings = []
        for _ in range(inner):
            start = time.perf_counter()
            pipeline(document, engine, rows)
            timings.append(time.perf_counter() - start)
        medians.append(statistics.median(timings))
    return min(medians)


def run_pipeline_comparison(sizes, churn: int, repeats: int):
    """E12a rows: [nodes, churned size, rows, seed µs/row, fast µs/row, speedup]."""
    table_rows = []
    results = []
    for n_nodes in sizes:
        document, engine = build_document(n_nodes, churn)
        rows = enumerate_rows(document, engine)
        with _counters_off():
            _check_agreement(
                fast_pipeline(document, engine, rows),
                seed_pipeline(document, engine, rows),
                f"nodes={n_nodes} churn={churn}",
            )
            fast = _best_median(fast_pipeline, document, engine, rows, repeats, 3)
            seed = _best_median(seed_pipeline, document, engine, rows, repeats, 3)
        per_row_fast = fast / len(rows) * 1e6
        per_row_seed = seed / len(rows) * 1e6
        speedup = seed / fast if fast else float("inf")
        table_rows.append(
            [
                n_nodes,
                document.size(),
                len(rows),
                fmt(per_row_seed),
                fmt(per_row_fast),
                fmt(speedup, 3),
            ]
        )
        results.append(
            {
                "nodes": n_nodes,
                "churn": churn,
                "document_size": document.size(),
                "rows": len(rows),
                "seed_us_per_row": per_row_seed,
                "fast_us_per_row": per_row_fast,
                "speedup": speedup,
            }
        )
    return table_rows, results


def run_cache_scope(sizes, churn: int, repeats: int):
    """E12b rows: [nodes, cold µs/row, warm µs/row, ratio]."""
    table_rows = []
    results = []
    for n_nodes in sizes:
        document, engine = build_document(n_nodes, churn)
        rows = enumerate_rows(document, engine)

        def cold(document, engine, rows):
            engine.shannon.clear()
            return fast_pipeline(document, engine, rows)

        with _counters_off():
            cold_s = _best_median(cold, document, engine, rows, repeats, 3)
            fast_pipeline(document, engine, rows)  # warm the memo
            warm_s = _best_median(fast_pipeline, document, engine, rows, repeats, 3)
        per_row_cold = cold_s / len(rows) * 1e6
        per_row_warm = warm_s / len(rows) * 1e6
        table_rows.append(
            [
                n_nodes,
                fmt(per_row_cold),
                fmt(per_row_warm),
                fmt(per_row_cold / per_row_warm if per_row_warm else float("inf"), 3),
            ]
        )
        results.append(
            {
                "nodes": n_nodes,
                "churn": churn,
                "cold_us_per_row": per_row_cold,
                "warm_us_per_row": per_row_warm,
            }
        )
    return table_rows, results


def _trajectory(pipeline_results) -> list[dict]:
    """The medians the CI trajectory gate compares across commits."""
    return [
        {
            "id": (
                f"e12.fast_us_per_row.nodes={record['nodes']}"
                f".churn={record['churn']}"
            ),
            "value": record["fast_us_per_row"],
            "direction": "lower",
        }
        for record in pipeline_results
    ]


def write_json(payload: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    payload = dict(payload)
    payload["trajectory"] = _trajectory(payload.get("pipeline", ()))
    JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


_E12A_HEADERS = [
    "nodes",
    "churned size",
    "rows",
    "seed us/row",
    "fast us/row",
    "speedup",
]
_E12B_HEADERS = ["nodes", "cold us/row", "warm us/row", "cold/warm"]


def _min_speedup() -> float:
    # The acceptance floor (3x at 1200 nodes under churn) holds with
    # margin on a dev machine; shared CI runners are noisy, so the
    # tripwire is overridable.
    return float(os.environ.get("E12_MIN_SPEEDUP", "3.0"))


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------


def test_probability_pipeline_speedup(report, benchmark):
    churned, churned_json = benchmark.pedantic(
        lambda: run_pipeline_comparison(SIZES, CHURN, REPEATS), rounds=1
    )
    report.table(
        f"E12a  per-answer probability: seed pipeline vs fast path "
        f"({CHURN} deletions)",
        _E12A_HEADERS,
        churned,
    )
    clean, clean_json = run_pipeline_comparison(SIZES, 0, REPEATS)
    report.table(
        "E12a' per-answer probability: seed pipeline vs fast path (no churn)",
        _E12A_HEADERS,
        clean,
    )
    write_json(
        {
            "experiment": "E12",
            "metric": "per_row_probability_us",
            "quick": False,
            "pipeline": churned_json + clean_json,
        }
    )
    at_scale = churned_json[-1]
    assert at_scale["speedup"] >= _min_speedup(), (
        f"fast-path speedup {at_scale['speedup']:.2f}x at "
        f"{at_scale['nodes']} nodes fell below the {_min_speedup()}x floor"
    )


def test_engine_scoped_cache(report, benchmark):
    rows, _ = benchmark.pedantic(
        lambda: run_cache_scope(SIZES, CHURN, REPEATS), rounds=1
    )
    report.table("E12b  shannon memo scope: cleared per query vs engine-owned", _E12B_HEADERS, rows)
    for row in rows:
        # A warm engine-scoped memo must never lose to a cold one.
        assert float(row[2]) <= float(row[1]) * 1.25


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
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes, light churn (CI smoke; no timing assertions)",
    )
    args = parser.parse_args(argv)
    sizes = QUICK_SIZES if args.quick else SIZES
    churn = QUICK_CHURN if args.quick else CHURN
    repeats = QUICK_REPEATS if args.quick else REPEATS

    churned, churned_json = run_pipeline_comparison(sizes, churn, repeats)
    _print_table(
        f"E12a  per-answer probability: seed pipeline vs fast path "
        f"({churn} deletions)",
        _E12A_HEADERS,
        churned,
    )
    clean, clean_json = run_pipeline_comparison(sizes, 0, repeats)
    _print_table(
        "E12a' per-answer probability: seed pipeline vs fast path (no churn)",
        _E12A_HEADERS,
        clean,
    )
    cache_rows, cache_json = run_cache_scope(sizes, churn, repeats)
    _print_table(
        "E12b  shannon memo scope: cleared per query vs engine-owned",
        _E12B_HEADERS,
        cache_rows,
    )
    write_json(
        {
            "experiment": "E12",
            "metric": "per_row_probability_us",
            "quick": args.quick,
            "pipeline": churned_json + clean_json,
            "cache_scope": cache_json,
        }
    )
    print(f"machine-readable medians written to {JSON_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
