"""Rows and answers are records filled on read.

The read side's bytes are frozen by a golden test; the lazy answer tree
and canonical key are checked against an eager copy taken at query time
(even after later commits rewrite the document), against
``minimal_subtree`` over random fuzzy documents, and by structural
guards that count the copies and matches a query makes.
"""

from __future__ import annotations

import gc
import hashlib
import random
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import Condition, EventTable, FuzzyNode, FuzzyTree
from repro.api.options import QueryOptions
from repro.core.query import iter_query_rows, query_fuzzy_tree
from repro.core.update import apply_update
from repro.engine import executor
from repro.errors import TreeError
from repro.serve.cluster.worker import _Worker
from repro.serve.http import canonical_json, encode_row, query_response_body
from repro.tpwj.match import Match, find_matches
from repro.tpwj.parser import parse_pattern
from repro.tpwj.result import distinct_answers
from repro.trees.algorithms import kept_canonical, kept_nodes, kept_tree, minimal_subtree
from repro.trees.node import Node
from repro.trees.random import RandomTreeConfig
from repro.workloads.generator import (
    FuzzyWorkloadConfig,
    random_fuzzy_tree,
    random_query_for,
    random_update_for,
)
from repro.xmlio import plain_to_string

DIRECTORY_QUERY = "//person { name [$n], email [$e] }"


def directory(seed: int = 7, persons: int = 12) -> FuzzyTree:
    """A seeded directory: persons with a name and one to three emails,
    some persons, names and emails under one or two events."""
    rng = random.Random(seed)
    events = EventTable({f"e{i}": round(rng.uniform(0.1, 0.9), 3) for i in range(6)})
    names = sorted(events.names())

    def condition() -> Condition:
        if rng.random() < 0.5:
            return Condition()
        picked = rng.sample(names, rng.randint(1, 2))
        return Condition.of(*(n if rng.random() < 0.7 else "!" + n for n in picked))

    root = FuzzyNode("directory")
    for p in range(persons):
        person = root.add_child(FuzzyNode("person", condition=condition()))
        person.add_child(FuzzyNode("name", f"n{p % 9}", condition=condition()))
        for m in range(rng.randint(1, 3)):
            email = f"m{rng.randint(0, 4)}@example.org"
            person.add_child(FuzzyNode("email", email, condition=condition()))
    return FuzzyTree(root, events)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _encode_answers(answers) -> bytes:
    return canonical_json(
        [{"probability": a.probability, "tree": a.tree.canonical()} for a in answers]
    )


#: sha256 of the read-side bytes for ``directory()`` (seed 7), taken
#: before rows and answers became lazily filled records.
_GOLDEN_ROWS = "2023b23d81a4996e42b26bd4450dd9fd277037c5784407b4451346b9f8e2ad6f"
_GOLDEN_ANSWERS = "2d293d6c074f42d41bac29b25fb6b2330f71be4a82967f1652a5538e9a4a2a46"
_GOLDEN_TREE_XML = "c306c20d113321014be95a756f9ddc743e48d8d25ea77d29c1d573d109cac1ac"


def test_read_side_bytes_are_frozen(tmp_path):
    """Encoded rows, ``answers()`` and the cluster worker's ``tree_xml``
    row payload keep their bytes; a limited ``answers()`` is the
    whole ranking's prefix, byte for byte."""
    with repro.connect(tmp_path / "wh", create=True, document=directory()) as session:
        rows = [encode_row(row) for row in session.query(DIRECTORY_QUERY)]
        assert len(rows) > 20
        assert _sha(query_response_body(rows)) == _GOLDEN_ROWS
        answers = session.query(DIRECTORY_QUERY).answers()
        assert _sha(_encode_answers(answers)) == _GOLDEN_ANSWERS
        limited = session.query(DIRECTORY_QUERY).limit(9).answers()
        assert _encode_answers(limited) == _encode_answers(answers[:9])
    worker = _Worker(tmp_path, {})
    worker.open_shard("wh")
    try:
        reply = worker.handle_query(
            {
                "pattern": DIRECTORY_QUERY,
                "keys": ["wh"],
                "options": QueryOptions().to_json(),
            }
        )
    finally:
        worker.close_all()
    assert _sha(canonical_json(reply)) == _GOLDEN_TREE_XML


def _connect(path):
    return repro.connect(path, create=True, document=directory(), observability=None)


# ----------------------------------------------------------------------
# The lazy record: built from what was captured under the pin
# ----------------------------------------------------------------------


def test_records_read_after_the_document_moved_on(tmp_path):
    """Rows and answers read only after a delete of the matched person
    and a simplify give what an eager copy at query time gave — on a
    plan-cache hit, so every match is re-keyed onto the caller's
    pattern."""
    with _connect(tmp_path / "wh") as session:
        session.query(parse_pattern(DIRECTORY_QUERY)).all()  # caches the plan
        pattern = parse_pattern(DIRECTORY_QUERY)
        person, name = pattern.root, pattern.node_for_variable("n")
        rows = session.query(pattern).all()
        answers = session.query(pattern).answers()
        root = session.document.root
        trees = [minimal_subtree(root, row.match.iter_images()) for row in rows]
        eager_rows = [
            (plain_to_string(tree), row.bindings(), plain_to_string(row.match[name]))
            for tree, row in zip(trees, rows)
        ]
        eager_answers: dict[str, str] = {}
        for tree in trees:
            eager_answers.setdefault(tree.canonical(), plain_to_string(tree))
        victim = rows[0].match[person]
        target = rows[0].bindings()["n"]

        session.update(
            repro.update(f'//person [$p] {{ name [="{target}"] }}')
            .delete("p")
            .confidence(0.6)
        )
        session.simplify()
        assert victim.parent is None  # detached in place: live links moved on

        for row, (tree, bindings, name_xml) in zip(rows, eager_rows, strict=True):
            assert row.match.pattern is pattern
            assert plain_to_string(row.tree) == tree
            assert row.canonical == row.tree.canonical()
            assert row.bindings() == bindings
            assert plain_to_string(row.match[name]) == name_xml
        assert len(answers) == len(eager_answers)
        for answer in answers:
            assert plain_to_string(answer.tree) == eager_answers[answer.canonical]
            assert answer.canonical == answer.tree.canonical()


def test_negated_subpatterns_on_a_plan_cache_hit(tmp_path):
    """``_conditions`` reads ``match[constraint.parent]``: a re-keyed
    match must price exactly like one keyed by its own plan."""
    text = '//person { name [$n], !email [="m0@example.org"] }'
    with _connect(tmp_path / "wh") as session:
        first = session.query(parse_pattern(text)).all()  # plan built for it
        again = session.query(parse_pattern(text)).all()  # cache hit
        assert [encode_row(r) for r in again] == [encode_row(r) for r in first]
        positive = session.query("//person { name [$n] }").all()
        assert sum(r.probability for r in first) < sum(r.probability for r in positive)


# ----------------------------------------------------------------------
# Structural guards: copies, matches and cycles
# ----------------------------------------------------------------------


def test_trees_are_copied_only_when_read(tmp_path, monkeypatch):
    copies = []
    copy_self = Node._copy_self

    def counting(self, cls=None):
        copies.append(self)
        return copy_self(self, cls)

    with _connect(tmp_path / "wh") as session:
        monkeypatch.setattr(Node, "_copy_self", counting)
        assert session.query(DIRECTORY_QUERY).answers()
        assert copies == []
        rows = session.query(DIRECTORY_QUERY).limit(10).all()
        assert all(row.probability > 0.0 for row in rows)
        assert copies == []
        query_response_body([encode_row(row) for row in rows])
        assert copies == []
        answers = session.query(DIRECTORY_QUERY).answers()
        trees = [answer.tree for answer in answers]
        assert len(copies) == sum(tree.size() for tree in trees)
        assert [answer.tree for answer in answers] == trees  # filled once
        assert len(copies) == sum(tree.size() for tree in trees)


def test_one_match_object_per_match_on_a_plan_cache_hit(tmp_path, monkeypatch):
    built = []
    init = Match.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    with _connect(tmp_path / "wh") as session:
        engine, root = session.warehouse.engine, session.document.root
        list(engine.iter_matches(parse_pattern(DIRECTORY_QUERY), root=root))
        monkeypatch.setattr(Match, "__init__", counting)
        pattern = parse_pattern(DIRECTORY_QUERY)
        matches = list(engine.iter_matches(pattern, root=root))
        assert matches and len(built) == len(matches)
        assert all(match.pattern is pattern for match in matches)
        built.clear()
        assert session.query(DIRECTORY_QUERY).answers()
        assert len(built) == len(matches)


def test_a_finished_match_needs_no_cycle_collector(tmp_path, monkeypatch):
    """With the collector off, the join of an exhausted or closed query
    is freed by reference counting alone."""
    joins = []

    class Tracked(executor.BacktrackJoin):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            joins.append(weakref.ref(self))

    monkeypatch.setattr(executor, "BacktrackJoin", Tracked)
    with _connect(tmp_path / "wh") as session:
        gc.disable()
        try:
            assert session.query(DIRECTORY_QUERY).answers()
            assert joins and all(join() is None for join in joins)
            joins.clear()
            stream = iter(session.query(DIRECTORY_QUERY))
            next(stream)
            assert joins[0]() is not None
            stream.close()
            assert joins and all(join() is None for join in joins)
        finally:
            gc.enable()


# ----------------------------------------------------------------------
# Differential: capture + key + copy against minimal_subtree
# ----------------------------------------------------------------------

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def reference_minimal_subtree(root: Node, targets) -> Node:
    """Slide 6, literally: the root-paths of the targets, copied."""
    keep = {id(a) for target in targets for a in target.ancestors(include_self=True)}

    def copy(node: Node) -> Node:
        fresh = Node(node.label, node.value)
        for child in node.children:
            if id(child) in keep:
                fresh.add_child(copy(child))
        return fresh

    return copy(root)


@st.composite
def targets(draw):
    """A random fuzzy document (updated, so deletions left survivor
    copies), some of its nodes with repeats, and — when a node has two
    children — both of them in reverse attachment order."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    config = FuzzyWorkloadConfig(
        tree=RandomTreeConfig(
            max_nodes=draw(st.integers(1, 40)),
            max_depth=draw(st.integers(1, 6)),
            labels=("A", "B", "C"),
            values=("x", "y", "a&b", ""),
        ),
        n_events=draw(st.integers(0, 3)),
        condition_probability=draw(st.floats(0.0, 1.0)),
    )
    doc = random_fuzzy_tree(rng, config)
    for _ in range(draw(st.integers(0, 3))):
        apply_update(doc, random_update_for(rng, doc))
    nodes = list(doc.root.iter())
    picked = [rng.choice(nodes) for _ in range(draw(st.integers(0, 6)))]
    forks = [node for node in nodes if len(node.children) > 1]
    if forks and draw(st.booleans()):
        picked += reversed(rng.sample(rng.choice(forks).children, 2))
    rng.shuffle(picked)
    return doc, picked, rng


@SETTINGS
@given(targets())
def test_capture_matches_minimal_subtree(drawn):
    doc, picked, _rng = drawn
    root = doc.root
    kept = kept_nodes(root, picked)
    expected = minimal_subtree(root, picked)
    assert kept_canonical(kept) == expected.canonical()
    assert plain_to_string(kept_tree(kept)) == plain_to_string(expected)
    assert plain_to_string(expected) == plain_to_string(
        reference_minimal_subtree(root, picked)
    )


@SETTINGS
@given(targets())
def test_lazy_records_match_minimal_subtree(drawn):
    doc, _picked, rng = drawn
    root = doc.root
    pattern = random_query_for(rng, root)
    for row in iter_query_rows(doc, pattern):
        expected = minimal_subtree(root, row.match.iter_images())
        assert row.canonical == expected.canonical()
        assert plain_to_string(row.tree) == plain_to_string(expected)
    keys = distinct_answers(root, find_matches(pattern, root))
    for answer in query_fuzzy_tree(doc, pattern):
        assert answer.canonical == answer.tree.canonical()
        assert answer.canonical in keys


def test_capture_on_a_deep_chain(chain):
    doc, leaf = chain
    picked = [leaf, leaf.parent.parent, leaf]
    kept = kept_nodes(doc.root, picked)
    expected = minimal_subtree(doc.root, picked)
    assert kept_canonical(kept) == expected.canonical()
    assert plain_to_string(kept_tree(kept)) == plain_to_string(expected)
    (row,) = iter_query_rows(doc, parse_pattern("//B"))
    assert row.canonical == expected.canonical()
    assert plain_to_string(row.tree) == plain_to_string(expected)


def test_capture_refuses_a_foreign_target():
    with pytest.raises(TreeError):
        kept_nodes(Node("A"), [Node("B")])
