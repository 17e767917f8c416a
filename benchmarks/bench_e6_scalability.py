"""E6 — Fuzzy evaluation vs naive possible-worlds vs Monte-Carlo.

The reason the fuzzy-tree representation exists (slides 12–13): direct
evaluation avoids enumerating the 2^n worlds.  The bench sweeps the
number of events at fixed document size (worlds path blows up, fuzzy
path stays flat) and the document size at fixed events (both scale
polynomially), with Monte-Carlo sampling as the third series.
"""

from __future__ import annotations

import random
import time

import pytest

from repro import (
    estimate_query,
    query_possible_worlds,
    to_possible_worlds,
)
from repro.core.query import query_fuzzy_tree
from repro.trees import RandomTreeConfig
from repro.workloads import FuzzyWorkloadConfig, random_fuzzy_tree, random_query_for

from conftest import fmt


def instance(n_nodes: int, n_events: int, seed: int = 5):
    rng = random.Random(seed)
    config = FuzzyWorkloadConfig(
        tree=RandomTreeConfig(
            max_nodes=n_nodes,
            max_children=4,
            max_depth=6,
            min_nodes=max(2, n_nodes // 2),
        ),
        n_events=n_events,
        condition_probability=0.7,
    )
    doc = random_fuzzy_tree(rng, config)
    pattern = random_query_for(rng, doc.root, max_nodes=3, join_probability=0.0)
    return doc, pattern


def timed(function) -> float:
    start = time.perf_counter()
    function()
    return time.perf_counter() - start


def test_latency_vs_events(report, benchmark):
    """The crossover table: worlds path exponential, fuzzy path flat."""

    def run():
        rows = []
        for n_events in (2, 4, 6, 8, 10, 12):
            doc, pattern = instance(40, n_events)
            fuzzy_s = timed(lambda: query_fuzzy_tree(doc, pattern))
            worlds_s = timed(
                lambda: query_possible_worlds(to_possible_worlds(doc), pattern)
            )
            mc_s = timed(
                lambda: estimate_query(doc, pattern, samples=500, rng=random.Random(1))
            )
            rows.append(
                [
                    n_events,
                    2 ** len(doc.used_events()),
                    fmt(fuzzy_s),
                    fmt(worlds_s),
                    fmt(mc_s),
                    fmt(worlds_s / fuzzy_s if fuzzy_s else float("inf"), 3),
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1)
    report.table(
        "E6a  query latency vs number of events (40-node documents)",
        ["events", "worlds", "fuzzy (s)", "naive worlds (s)", "monte-carlo 500 (s)", "naive/fuzzy"],
        rows,
    )
    # Shape check: the worlds/fuzzy ratio must grow with the event count.
    assert float(rows[-1][5]) > float(rows[0][5])


def test_latency_vs_document_size(report, benchmark):
    def run():
        rows = []
        for n_nodes in (20, 50, 100, 200, 400):
            doc, pattern = instance(n_nodes, n_events=6, seed=6)
            fuzzy_s = timed(lambda: query_fuzzy_tree(doc, pattern))
            mc_s = timed(
                lambda: estimate_query(doc, pattern, samples=300, rng=random.Random(2))
            )
            rows.append([doc.size(), fmt(fuzzy_s), fmt(mc_s)])
        return rows

    rows = benchmark.pedantic(run, rounds=1)
    report.table(
        "E6b  query latency vs document size (6 events)",
        ["nodes", "fuzzy (s)", "monte-carlo 300 (s)"],
        rows,
    )
    # Shape check: fuzzy evaluation is polynomial in the document size —
    # its time grows by less than the cube of the size ratio.
    size_ratio = rows[-1][0] / rows[0][0]
    assert float(rows[-1][1]) / float(rows[0][1]) < size_ratio**3


@pytest.mark.parametrize("n_events", [4, 8, 12])
def test_fuzzy_query_benchmark(benchmark, n_events):
    doc, pattern = instance(60, n_events, seed=7)
    benchmark(query_fuzzy_tree, doc, pattern)


@pytest.mark.parametrize("samples", [100, 1000])
def test_montecarlo_accuracy_vs_cost(report, benchmark, samples):
    doc, pattern = instance(40, 6, seed=8)
    exact = {a.tree.canonical(): a.probability for a in query_fuzzy_tree(doc, pattern)}
    estimates = benchmark(
        lambda: estimate_query(doc, pattern, samples=samples, rng=random.Random(3))
    )
    worst = 0.0
    for estimate in estimates:
        err = abs(estimate.probability - exact.get(estimate.tree.canonical(), 0.0))
        worst = max(worst, err)
    report.table(
        f"E6c  Monte-Carlo accuracy, {samples} samples",
        ["samples", "answers", "worst abs error"],
        [[samples, len(estimates), fmt(worst)]],
    )
    assert worst <= 4.5 / (samples ** 0.5)  # ~4.5 sigma for p(1-p)<=1/4
