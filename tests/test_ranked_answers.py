"""Refined answers are exactly priced: ``answers()`` and ``estimate()``
under ``limit`` / ``order_by_probability`` / ``min_probability`` return
the unrefined ranking, filtered and sliced — each answer's probability
is the disjunction over *all* its matches (paper, slide 13), never over
a row prefix."""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import Condition, EventTable, FuzzyNode, FuzzyTree
from repro.trees import RandomTreeConfig
from repro.workloads import FuzzyWorkloadConfig, random_fuzzy_tree, random_query_for

SMALL_DOCS = FuzzyWorkloadConfig(
    tree=RandomTreeConfig(max_nodes=14, max_children=3, max_depth=4),
    n_events=3,
)


def two_bs() -> FuzzyTree:
    """``A`` over two ``B`` children under independent 0.5 events."""
    root = FuzzyNode("A")
    root.add_child(FuzzyNode("B", condition=Condition.of("e1")))
    root.add_child(FuzzyNode("B", condition=Condition.of("e2")))
    return FuzzyTree(root, EventTable({"e1": 0.5, "e2": 0.5}))


def _probabilities(items) -> list[float]:
    return [item.probability for item in items]


def test_refined_answers_price_every_match(tmp_path):
    with repro.connect(tmp_path / "wh", create=True, document=two_bs()) as session:
        query = session.query("/A { B }")
        assert _probabilities(query.answers()) == [0.75]
        assert _probabilities(query.limit(1).answers()) == [0.75]
        assert _probabilities(query.order_by_probability().limit(1).answers()) == [0.75]
        assert _probabilities(query.min_probability(0.6).answers()) == [0.75]
        assert query.min_probability(0.8).answers() == []
        (estimate,) = query.limit(1).estimate(epsilon=0.02, seed=3)
        assert abs(estimate.probability - 0.75) < 0.05


def test_collection_top_k_answers_merge_by_probability(tmp_path):
    with repro.connect_collection(tmp_path / "c", create=True) as collection:
        collection.create_document("one", document=two_bs())
        collection.create_document("two", document=two_bs())
        query = collection.query("/A { B }")
        full = query.answers()
        assert [(a.document, a.probability) for a in full] == [("one", 0.75), ("two", 0.75)]
        assert [a.document for a in query.limit(1).answers()] == ["one"]
        top = query.order_by_probability().limit(1).answers()
        assert [(a.document, a.probability) for a in top] == [("one", 0.75)]


def _same(got, expected) -> None:
    assert [a.canonical for a in got] == [a.canonical for a in expected]
    for left, right in zip(got, expected):
        assert abs(left.probability - right.probability) <= 1e-12


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([None, 0.05, 0.3, 0.5, 0.8]),
)
def test_refined_answers_are_the_full_ranking_filtered_and_sliced(seed, k, floor):
    rng = random.Random(seed)
    doc = random_fuzzy_tree(rng, SMALL_DOCS)
    pattern = random_query_for(rng, doc.root, max_nodes=3)
    with tempfile.TemporaryDirectory() as tmp:
        with repro.connect(Path(tmp) / "wh", create=True, document=doc) as session:
            query = session.query(pattern)
            full = query.answers()
            kept = [a for a in full if floor is None or a.probability >= floor]
            _same(query.limit(k).answers(), full[:k])
            _same(query.order_by_probability().limit(k).answers(), full[:k])
            if floor is not None:
                _same(query.min_probability(floor).answers(), kept)
                _same(query.min_probability(floor).limit(k).answers(), kept[:k])
                top = query.order_by_probability().min_probability(floor).limit(k)
                _same(top.answers(), kept[:k])
