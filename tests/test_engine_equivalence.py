"""Property test: every plan shape yields exactly the definition's matches.

There is one matcher — the engine's operators, run under a cost-based
plan or under the fixed pre-order plan a ``MatchConfig`` spells out —
so a config with every optimization disabled is no longer independent
ground truth: it is the same operators.  The ground truth here is
``reference_matches`` (``tests/reference_matcher.py``), slide 13's
definition executed literally.  For random documents and random
patterns, every plan shape (all 8 toggle combinations × fixed plan,
``plan="auto"``, a prebuilt plan) must produce its match *set*; the
fixed plan must also produce its *order*, because ``max_matches``
truncation — hence WAL replay — depends on it.  This is the engine's
load-bearing correctness test: plans may reorder the visit sequence and
pick different operators, but never change the answer.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MatchConfig, find_matches
from repro.engine import build_plan, iter_plan
from repro.tpwj.parser import parse_pattern
from repro.errors import QueryError
from repro.tpwj.pattern import Pattern, PatternNode
from repro.trees import Node, RandomTreeConfig
from repro.workloads import FuzzyWorkloadConfig, random_fuzzy_tree, random_query_for

from reference_matcher import reference_matches

seeds = st.integers(min_value=0, max_value=2**32 - 1)

relaxed = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Every combination of the three strategy toggles; the last is the
#: "naive" one (no index, no pruning, late joins).
TOGGLES = [
    MatchConfig(use_label_index=index, use_semijoin_pruning=semijoin, early_join_check=early)
    for index, semijoin, early in itertools.product([True, False], repeat=3)
]

DOCS = FuzzyWorkloadConfig(
    tree=RandomTreeConfig(max_nodes=40, max_children=4, max_depth=5),
    n_events=3,
)


def ordered_keys(matches, pattern) -> list[tuple[int, ...]]:
    """Identity-based canonical keys for a match list.

    A match is the function pattern node -> data node; two matches are
    the same iff they agree on every positive pattern node.
    """
    order = pattern.positive_nodes()
    return [tuple(id(match[p]) for p in order) for match in matches]


def match_keys(matches, pattern) -> set[tuple[int, ...]]:
    return set(ordered_keys(matches, pattern))


def reference_keys(pattern, root) -> list[tuple[int, ...]]:
    """The definition's matches, keyed like :func:`ordered_keys`, in
    lexicographic document order."""
    return [tuple(id(d) for d in images) for images in reference_matches(pattern, root)]


def assert_every_shape_agrees(pattern, root, expected: list[tuple[int, ...]]) -> None:
    """All plan shapes give *expected*'s set; the fixed plan its order."""
    plan = build_plan(pattern, root)
    for config in TOGGLES:
        assert ordered_keys(find_matches(pattern, root, config), pattern) == expected
        auto = find_matches(pattern, root, config, plan="auto")
        assert match_keys(auto, pattern) == set(expected)
        assert len(auto) == len(expected)
        built = list(iter_plan(plan, root, config))
        assert match_keys(built, pattern) == set(expected)
        assert len(built) == len(expected)


def make_instance(seed: int):
    rng = random.Random(seed)
    doc = random_fuzzy_tree(rng, DOCS)
    pattern = random_query_for(
        rng,
        doc.root,
        max_nodes=6,
        descendant_probability=0.4,
        wildcard_probability=0.2,
        value_test_probability=0.4,
        join_probability=0.6,
    )
    return doc, pattern


@relaxed
@given(seeds)
def test_fixed_plan_yields_reference_order(seed):
    doc, pattern = make_instance(seed)
    expected = reference_keys(pattern, doc.root)
    assert expected  # the generator embeds the pattern: at least one match
    for config in TOGGLES:
        assert ordered_keys(find_matches(pattern, doc.root, config), pattern) == expected


@relaxed
@given(seeds)
def test_auto_plan_equals_naive_matcher(seed):
    doc, pattern = make_instance(seed)
    expected = set(reference_keys(pattern, doc.root))
    for config in TOGGLES:
        planned = find_matches(pattern, doc.root, config, plan="auto")
        assert match_keys(planned, pattern) == expected
        assert len(planned) == len(expected)


@relaxed
@given(seeds)
def test_explicit_plan_equals_naive_matcher(seed):
    doc, pattern = make_instance(seed)
    plan = build_plan(pattern, doc.root)
    # The plan's visit order must be topological: parents before children.
    positions = {id(node): i for i, node in enumerate(plan.order)}
    for node in plan.order:
        if node.parent is not None:
            assert positions[id(node.parent)] < positions[id(node)]
    expected = set(reference_keys(pattern, doc.root))
    for config in TOGGLES:
        planned = list(iter_plan(plan, doc.root, config))
        assert match_keys(planned, pattern) == expected
        assert len(planned) == len(expected)


@relaxed
@given(seeds, st.integers(min_value=1, max_value=4))
def test_max_matches_is_honored(seed, limit):
    doc, pattern = make_instance(seed)
    expected = reference_keys(pattern, doc.root)
    config = MatchConfig(max_matches=limit)
    # Fixed plan: exactly the reference's length-k prefix.
    assert ordered_keys(find_matches(pattern, doc.root, config), pattern) == expected[:limit]
    # Planned: k genuine matches, whichever the visit order reaches first.
    capped = find_matches(pattern, doc.root, config, plan="auto")
    assert len(capped) == min(limit, len(expected))
    assert match_keys(capped, pattern) <= set(expected)


def test_mismatched_plan_is_rejected():
    """A plan for one query cannot silently run a different query."""
    doc, _ = make_instance(0)
    other = build_plan(parse_pattern("A { B }"), doc.root)
    with pytest.raises(QueryError):
        find_matches(parse_pattern("A { C }"), doc.root, plan=other)


def test_negation_equivalence():
    """Negated subpatterns prune identically through every plan shape.

    The generator never emits negation (and rarely a single node), so
    these instances are hand-built: "an A with a B child and no C
    child" over a document where some A nodes have both, plus the
    root-probe shape — an anchored single-node pattern — with and
    without a negated child.
    """
    root = Node("R")
    a1 = root.add_child(Node("A"))
    a1.add_child(Node("B"))
    a2 = root.add_child(Node("A"))
    a2.add_child(Node("B"))
    a2.add_child(Node("C"))
    a3 = root.add_child(Node("A"))
    a3.add_child(Node("D"))

    pattern = Pattern(
        PatternNode(
            "A",
            children=[
                PatternNode("B"),
                PatternNode("C", negated=True),
            ],
        )
    )
    expected = reference_keys(pattern, root)
    assert expected == [(id(a1), id(a1.children[0]))]
    assert_every_shape_agrees(pattern, root, expected)

    for text, count in [
        ("/R", 1),
        ("/A", 0),
        ("/R { !A }", 0),
        ("/R { !D }", 1),  # D is a grandchild, not a child
        ("/R { !//D }", 0),
        ("/R { !//Z }", 1),
        ("/* { !A { B, C, D } }", 1),
    ]:
        probe = parse_pattern(text)
        expected = reference_keys(probe, root)
        assert expected == [(id(root),)] * count, text
        assert_every_shape_agrees(probe, root, expected)
