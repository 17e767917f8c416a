"""Descendant edges as pre-order range lookups.

Every candidate list the executor builds is in document order, so an
anchor's proper descendants among the candidates are one contiguous
slice, found by bisecting the candidates' pre-order numbers.  These
tests pin the slice's boundaries (the anchor itself out, the first and
last node of its subtree in, the next sibling's subtree out) against
``reference_matches`` on label-poor, deep documents where same-label
nesting is dense, and guard the join's cost structurally: interval
reads grow linearly with the document, not with the square of it.  A
walk that commits patch in place must stay equal to a fresh walk.
"""

from __future__ import annotations

import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import find_matches
from repro.core.fuzzy_tree import FuzzyNode, FuzzyTree
from repro.engine import executor
from repro.engine.planner import fixed_plan
from repro.errors import UpdateError
from repro.events import Condition, EventTable
from repro.tpwj.match import DEFAULT_CONFIG
from repro.tpwj.parser import parse_pattern
from repro.trees import Node
from repro.updates.operations import DeleteOperation, InsertOperation
from repro.updates.transaction import UpdateTransaction
from repro.warehouse import Warehouse
from repro.workloads.generator import random_update_for

from reference_matcher import reference_matches
from test_engine_equivalence import assert_every_shape_agrees, reference_keys

#: Descendant chains (self-nesting included), wildcards, an anchored
#: root, negated descendants, and a child edge between two descendant
#: edges.
PATTERNS = [
    "//A { //B }",
    "//A { //A }",
    "//A { //A { //A } }",
    "//B { //A { //B } }",
    "//* { //* }",
    "//A { //*, //B }",
    "/R { //A }",
    "/R { //A { //A } }",
    "//A { !//A }",
    "//B { //A, !//B }",
    "//A { B { //A } }",
]


def deep_document(seed: int) -> Node:
    """R over a spine of 8–12 levels plus random branches, labelled from
    two or three labels: same-label ancestors and descendants abound."""
    rng = random.Random(seed)
    labels = rng.choice(["AB", "ABC"])
    root = node = Node("R")
    nodes = [root]
    for _ in range(rng.randint(8, 12)):
        node = node.add_child(Node(rng.choice(labels)))
        nodes.append(node)
    for _ in range(rng.randint(5, 25)):
        nodes.append(rng.choice(nodes).add_child(Node(rng.choice(labels))))
    return root


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_deep_label_poor_documents_match_the_reference(seed):
    root = deep_document(seed)
    for text in PATTERNS:
        pattern = parse_pattern(text)
        assert_every_shape_agrees(pattern, root, reference_keys(pattern, root))


@pytest.fixture
def boundaries():
    """R { A(a1) { B(first) { C }, C { C { B(last) } } }, A(a2) { B }, B }:
    a1's subtree opens with *first* and closes with *last*; a2 is its
    next sibling."""
    root = Node("R")
    a1 = root.add_child(Node("A"))
    first = a1.add_child(Node("B"))
    first.add_child(Node("C"))
    last = a1.add_child(Node("C")).add_child(Node("C")).add_child(Node("B"))
    a2 = root.add_child(Node("A"))
    a2.add_child(Node("B"))
    root.add_child(Node("B"))
    return root, a1, first, last, a2


def test_range_is_exactly_the_proper_descendants(boundaries):
    root = boundaries[0]
    walk = executor._Intervals(root)
    lists = [walk.all_nodes, *walk.label_index.values()]
    for nodes in lists:
        positions = walk.positions(nodes)
        assert positions == sorted(positions)  # document order
        for anchor in walk.all_nodes:
            lo, hi = walk.descendant_range(anchor, positions)
            below = {id(n) for n in anchor.iter() if n is not anchor}
            assert nodes[lo:hi] == [n for n in nodes if id(n) in below]


# ----------------------------------------------------------------------
# The patched walk: one walk per generation, kept current by commits
# ----------------------------------------------------------------------

#: Fixed-plan probes run on the patched and on a fresh walk.
WALK_PATTERNS = [
    "//A { //B }",
    "//* { A }",
    "/R { //C }",
    "//N { //* }",
    "//A { //A }",
    "//E",
]


def _ids(nodes) -> list[int]:
    return [id(n) for n in nodes]


def assert_walk_is_fresh(walk, root) -> None:
    """*walk* lists, buckets and ranges exactly like a fresh walk of
    *root*, and fixed-plan matches on it come out equal, in order."""
    fresh = executor._Intervals(root)
    assert not walk.stale
    assert _ids(walk.all_nodes) == _ids(fresh.all_nodes)
    assert {k: _ids(v) for k, v in walk.label_index.items()} == {
        k: _ids(v) for k, v in fresh.label_index.items()
    }
    for nodes in [walk.all_nodes, *walk.label_index.values()]:
        positions = walk.positions(nodes)
        assert all(a < b for a, b in zip(positions, positions[1:]))
        for anchor in walk.all_nodes:
            lo, hi = walk.descendant_range(anchor, positions)
            below = {id(n) for n in anchor.iter() if n is not anchor}
            assert _ids(nodes[lo:hi]) == [id(n) for n in nodes if id(n) in below]
    for text in WALK_PATTERNS:
        plan = fixed_plan(parse_pattern(text), DEFAULT_CONFIG)
        on = [
            _ids(m.iter_images())
            for m in executor.iter_plan(plan, root, intervals=walk)
        ]
        assert on == [
            _ids(m.iter_images())
            for m in executor.iter_plan(plan, root, intervals=fresh)
        ]


def _fuzzy_document(rng: random.Random) -> FuzzyTree:
    """R over 12–24 nodes labelled from A, B, C, every third conditioned."""
    events = EventTable({"e1": 0.6, "e2": 0.3})
    root = FuzzyNode("R")
    nodes = [root]
    for i in range(rng.randint(12, 24)):
        condition = Condition.of(rng.choice(["e1", "!e2"])) if i % 3 == 0 else None
        child = FuzzyNode(rng.choice("ABC"))
        if condition is not None:
            child.condition = condition
        nodes.append(rng.choice(nodes).add_child(child))
    return FuzzyTree(root, events)


def _tx(text: str, operations, confidence: float = 0.5) -> UpdateTransaction:
    return UpdateTransaction(parse_pattern(text), operations, confidence)


def _nested_deletion(rng: random.Random, document) -> list:
    """Delete a node and one of its descendants at confidence < 1: the
    inner target splits first, then its ancestor clones the result."""
    root = document.root
    pairs = [
        (n, d)
        for n in root.iter()
        if n is not root
        for d in n.iter()
        if d is not n
    ]
    if not pairs:
        return [_tx("/R[$r]", [InsertOperation("r", Node("A"))])]
    outer, inner = rng.choice(pairs)
    query = f"//{outer.label}[$o] {{ //{inner.label}[$i] }}"
    return [_tx(query, [DeleteOperation("i"), DeleteOperation("o")], 0.6)]


def _chained_batch(rng: random.Random, document) -> list:
    """Later members insert under, and delete, what earlier ones inserted."""
    label = rng.choice([n.label for n in document.root.iter() if n.value is None])
    return [
        _tx(f"//{label}[$x]", [InsertOperation("x", Node("N"))], 0.8),
        _tx("//N[$n]", [InsertOperation("n", Node("M", children=[Node("A")]))]),
        _tx("//M[$m]", [DeleteOperation("m")], 0.7),
        _tx("//N[$n]", [DeleteOperation("n")] if rng.random() < 0.5 else [
            InsertOperation("n", Node("B"))
        ]),
    ]


def _gap_exhaustion(rng: random.Random, document) -> list:
    """Nested inserts under the last inserted node (each level's gap is
    1/32 of its parent's), or more root appends than one gap holds."""
    if rng.random() < 0.5:
        members = [_tx("/R[$r]", [InsertOperation("r", Node("L1"))], 1.0)]
        members += [
            _tx(f"//L{k}[$l]", [InsertOperation("l", Node(f"L{k + 1}"))], 1.0)
            for k in range(1, 7)
        ]
        return members
    return [_tx("/R[$r]", [InsertOperation("r", Node("E"))], 1.0)] * 130


OPS = {
    "update": lambda rng, document: [random_update_for(rng, document)],
    "nested_deletion": _nested_deletion,
    "chained_batch": _chained_batch,
    "gap_exhaustion": _gap_exhaustion,
    "rejected_batch": lambda rng, document: [
        _tx("//*[$x]", [InsertOperation("x", Node("N"))]),
        _tx("/R[$r]", [DeleteOperation("r")]),
    ],
}


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(st.sampled_from(sorted(OPS)), min_size=1, max_size=6),
)
def test_patched_walk_equals_a_fresh_walk_after_every_commit(seed, ops):
    """Commits patch the live view's walk at every attach and detach;
    after each, it must equal a fresh walk of the new document."""
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as path:
        wh = Warehouse.create(Path(path) / "wh", _fuzzy_document(rng))
        try:
            engine = wh.engine
            for op in ops:
                root = wh.document.root
                kept = engine._intervals_for(root)  # the walk commits patch
                members = OPS[op](rng, wh.document)
                if op == "rejected_batch":
                    with pytest.raises(UpdateError):
                        wh.update_many(members)
                else:
                    wh.update_many(members)
                root = wh.document.root
                walk = engine._current_walk(root)
                if op != "rejected_batch" and not kept.stale:
                    assert walk is kept  # patched, not rebuilt
                if walk is not None:
                    assert_walk_is_fresh(walk, root)
                if root.size() > 200:
                    break  # survivor copies compound: keep the check cheap
        finally:
            wh.close()


def test_anchor_excluded_subtree_ends_included_next_sibling_excluded(boundaries):
    root, a1, first, last, a2 = boundaries
    wildcard = parse_pattern("//A { //* }")
    images = [pair for pair in reference_matches(wildcard, root) if pair[0] is a1]
    assert [d for _, d in images] == [n for n in a1.iter() if n is not a1]
    assert images[0][1] is first and images[-1][1] is last
    assert all(d is not a1 and d is not a2 for _, d in images)

    pattern = parse_pattern("//A { //B }")
    expected = reference_keys(pattern, root)
    assert expected == [
        (id(a1), id(first)),
        (id(a1), id(last)),
        (id(a2), id(a2.children[0])),
    ]
    for text in ("//A { //B }", "//A { //* }", "//A { //A }", "/R { //A { //B } }"):
        probe = parse_pattern(text)
        assert_every_shape_agrees(probe, root, reference_keys(probe, root))


def comb(n: int) -> Node:
    """R over *n* X subtrees, each X/Z/Z/Z/Y: one Y four levels below."""
    root = Node("R")
    for _ in range(n):
        node = root.add_child(Node("X"))
        for _ in range(3):
            node = node.add_child(Node("Z"))
        node.add_child(Node("Y"))
    return root


class _CountingMapping(dict):
    """A walk's ``enter`` / ``exit`` that counts every read."""

    def __init__(self, data: dict, reads: list[int]) -> None:
        super().__init__(data)
        self._reads = reads

    def __getitem__(self, key):
        self._reads[0] += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("plan", [None, "auto"])
def test_descendant_joins_read_intervals_linearly(plan, monkeypatch):
    """``//X { //Y }`` over a comb: every X has exactly one Y below it,
    so a nested-loop descendant test reads the walk ~n² times (16× from
    n to 4n); the range lookup reads it O(n) times (4×)."""
    reads = [0]
    build = executor._Intervals.__init__

    def counting_walk(self, *args, **kwargs):
        build(self, *args, **kwargs)
        self.enter = _CountingMapping(self.enter, reads)
        self.exit = _CountingMapping(self.exit, reads)

    monkeypatch.setattr(executor._Intervals, "__init__", counting_walk)
    pattern = parse_pattern("//X { //Y }")
    counts = []
    for n in (40, 160):
        reads[0] = 0
        assert len(find_matches(pattern, comb(n), plan=plan)) == n
        counts.append(reads[0])
    assert 0 < counts[1] <= 5 * counts[0], counts


@pytest.fixture
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


@pytest.mark.timeout(120)
def test_self_nesting_on_a_chain_three_times_the_recursion_limit(
    chain, tmp_path, default_recursion_limit
):
    """R/A/…/A/B, 3 000 deep: ``//B { //B }`` has no match, while
    ``//A { //A }`` has ~4.5 M and ``//A { //B }`` ~3 000, of which a
    ``limit(10)`` must stop after ten."""
    doc, _leaf = chain
    with repro.connect(tmp_path / "wh", create=True, document=doc) as session:
        assert session.query("//B { //B }").limit(10).all() == []
        rows = session.query("//A { //A }").limit(10).all()
        assert len(rows) == 10
        assert all(0.0 < row.probability <= 1.0 for row in rows)
        rows = session.query("//A { //B }").limit(10).all()
        assert [row.probability for row in rows] == [pytest.approx(0.5)] * 10
