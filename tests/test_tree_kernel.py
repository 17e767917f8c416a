"""The tree-walk kernel: every whole-subtree routine against the
recursive body it replaced (``tests/reference_trees.py``), the XML
emitter against ElementTree's writer, and the structural guards."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_trees as ref
from repro import Condition, EventTable, FuzzyNode, FuzzyTree
from repro.core.semantics import to_possible_worlds
from repro.core.simplify import ALL_RULES, simplify
from repro.core.update import apply_update
from repro.errors import ReproError
from repro.events.literal import Literal
from repro.tpwj.parser import parse_pattern
from repro.trees.random import RandomTreeConfig
from repro.updates.operations import DeleteOperation, InsertOperation
from repro.updates.transaction import TransactionBatch, UpdateTransaction
from repro.workloads.generator import (
    FuzzyWorkloadConfig,
    random_fuzzy_tree,
    random_update_for,
)
from repro.xmlio import (
    fuzzy_to_element,
    fuzzy_to_string,
    plain_to_element,
    plain_to_string,
    transaction_to_string,
)
from repro.xmlio.xupdate import batch_to_string

#: Values ElementTree must escape or pass through, plus the empty value
#: (written as an empty element, ``<B />``).
TRICKY = ("a&b", "<x>", 'q"q', "s'", "l1\nl2", "t\tb", "c\rr", "héllo ✓", "")

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def documents(draw):
    """A random fuzzy document, conditions included, then randomly
    updated (deletions leave survivor copies); returns it and its RNG."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    config = FuzzyWorkloadConfig(
        tree=RandomTreeConfig(
            max_nodes=draw(st.integers(1, 30)),
            max_depth=draw(st.integers(1, 5)),
            labels=("A", "B", "C", "é"),
            values=TRICKY,
        ),
        n_events=draw(st.integers(0, 4)),
        condition_probability=draw(st.floats(0.0, 1.0)),
        max_literals=draw(st.integers(1, 3)),
    )
    doc = random_fuzzy_tree(rng, config)
    for _ in range(draw(st.integers(0, 3))):
        apply_update(doc, random_update_for(rng, doc))
    # A complementary twin (γ∧e / γ∧¬e) for the sibling rule to merge.
    below_root = [node for node in doc.iter_nodes() if node.parent is not None]
    if below_root and len(doc.events) and draw(st.booleans()):
        node, event = rng.choice(below_root), rng.choice(sorted(doc.events.names()))
        if event not in node.condition.events():
            twin = node.clone()
            node.condition = node.condition.with_literal(Literal(event, True))
            twin.condition = twin.condition.with_literal(Literal(event, False))
            node.parent.add_child(twin)
    # Some events certain, for the simplifier's first rule.
    pinned = {
        name: draw(st.sampled_from((p, p, 0.0, 1.0))) for name, p in doc.events.items()
    }
    return FuzzyTree(doc.root, EventTable(pinned)), rng


class TestAgainstRecursiveReferences:
    @SETTINGS
    @given(documents())
    def test_copies_and_encodings(self, drawn):
        doc, rng = drawn
        root = doc.root
        plain = ref.world(doc, {name: True for name in doc.events.names()})
        for node in (root, plain, root.children[0] if root.children else root):
            assert node.canonical() == ref.canonical(node)
            assert node.height() == ref.height(node)
            assert node.pretty() == ref.pretty(node)
            assert node.pretty(indent="\t") == ref.pretty(node, "\t")
            copy = node.clone()
            assert copy.parent is None and copy is not node
            assert ref.canonical(copy) == ref.canonical(node)
            assert [type(n) for n in copy.iter()] == [type(n) for n in node.iter()]
            assert {id(n) for n in copy.iter()}.isdisjoint(id(n) for n in node.iter())
        assert doc.clone().root.canonical() == ref.canonical(root)
        condition = Condition.of("w") if rng.random() < 0.5 else Condition()
        converted = FuzzyNode.from_plain(plain, condition)
        assert ref.canonical(converted) == ref.canonical(ref.from_plain(plain, condition))

    @SETTINGS
    @given(documents())
    def test_worlds(self, drawn):
        doc, rng = drawn
        names = sorted(doc.events.names())
        for _ in range(4):
            assignment = {name: rng.random() < 0.5 for name in names}
            assert ref.canonical(doc.world(assignment)) == ref.canonical(
                ref.world(doc, assignment)
            )
        mine, theirs = to_possible_worlds(doc), ref.to_possible_worlds(doc)
        assert [(ref.canonical(w.tree), w.probability) for w in mine] == [
            (ref.canonical(w.tree), w.probability) for w in theirs
        ]

    @SETTINGS
    @given(documents(), st.sets(st.sampled_from(ALL_RULES[:-1])))
    def test_simplify(self, drawn, rules):
        doc, _ = drawn
        mine, theirs = doc.clone(), ref.clone(doc.root)
        theirs = FuzzyTree(theirs, doc.events.copy())
        report = simplify(mine, rules=tuple(rules))
        expected = ref.simplify(theirs, rules)
        assert ref.canonical(mine.root) == ref.canonical(theirs.root)
        for field in (
            "rounds", "nodes_after", "literals_after", "removed_certain",
            "removed_impossible", "dropped_literals", "merged_siblings",
        ):
            assert getattr(report, field) == getattr(expected, field), field


class TestXMLEmitter:
    """Exactly ElementTree's bytes: ``ET.tostring``, after ``ET.indent``
    when indenting, of the elements the recursive builders made."""

    @SETTINGS
    @given(documents(), st.booleans())
    def test_documents_and_plain_trees(self, drawn, indent):
        doc, _ = drawn
        assert fuzzy_to_string(doc, indent) == ref.to_string(
            ref.fuzzy_to_element(doc), indent
        )
        # Conditions inside a "plain" tree declare p: on its root.
        assert plain_to_string(doc.root, indent) == ref.to_string(
            ref.node_to_element(doc.root), indent
        )
        world = doc.world(dict.fromkeys(doc.events.names(), True))
        assert plain_to_string(world, indent) == ref.to_string(
            ref.node_to_element(world), indent
        )

    @SETTINGS
    @given(documents())
    def test_built_elements(self, drawn):
        doc, _ = drawn

        def shape(element):
            return [(e.tag, e.attrib, e.text, e.tail) for e in element.iter()]

        assert shape(fuzzy_to_element(doc)) == shape(ref.fuzzy_to_element(doc))
        assert shape(plain_to_element(doc.root)) == shape(ref.node_to_element(doc.root))

    @SETTINGS
    @given(documents(), st.sampled_from(TRICKY[:-1]), st.booleans())
    def test_transactions_and_batches(self, drawn, value, indent):
        doc, rng = drawn
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        query = parse_pattern(f'A[$a] {{ B[$b="{escaped}"] }}')
        conditioned = FuzzyNode(
            "N", condition=Condition.of("w", "!v"), children=[FuzzyNode("M", value)]
        )
        world = doc.world(dict.fromkeys(doc.events.names(), True))
        transactions = [
            UpdateTransaction(query, [InsertOperation("a", conditioned)], 0.25),
            UpdateTransaction(
                query, [DeleteOperation("b"), InsertOperation("a", world)], 1.0
            ),
            random_update_for(rng, doc),
        ]
        for tx in transactions:
            assert transaction_to_string(tx, indent) == ref.to_string(
                ref.transaction_to_element(tx), indent
            )
        batch = TransactionBatch(transactions)
        assert batch_to_string(batch, indent) == ref.to_string(
            ref.batch_to_element(batch), indent
        )

    def test_namespace_declarations_sorted_by_prefix(self):
        tx = UpdateTransaction(
            parse_pattern("A[$a]"),
            [InsertOperation("a", FuzzyNode("N", condition=Condition.of("w")))],
            0.5,
        )
        text = transaction_to_string(tx, indent=False)
        assert text.startswith(
            '<xu:modifications xmlns:p="urn:repro:probabilistic-xml" '
            'xmlns:xu="urn:repro:xupdate" query="A[$a]" confidence="0.5">'
        )
        assert text == ref.to_string(ref.transaction_to_element(tx), False)


class TestStructure:
    def test_fuzzy_node_defines_no_traversal(self):
        """FuzzyNode supplies per-node hooks; every walk is Node's."""
        own = set(vars(FuzzyNode))
        assert {"_copy_self", "_encode_self", "_pretty_suffix"} <= own
        assert own.isdisjoint({"clone", "canonical", "pretty", "height", "iter"})

    def test_simplify_encodes_each_node_once_per_round(self, monkeypatch):
        """Subtree keys come from one bottom-up pass per round, not a
        canonical form per child of every node (~n²/2 encodings on a
        chain)."""
        depth = 400
        root = node = FuzzyNode("R")
        for i in range(depth - 1):
            node = node.add_child(FuzzyNode("A", value=None if i < depth - 2 else "v"))
        doc = FuzzyTree(root, EventTable())
        calls = 0
        encode = FuzzyNode._encode_self

        def counting(self):
            nonlocal calls
            calls += 1
            return encode(self)

        monkeypatch.setattr(FuzzyNode, "_encode_self", counting)
        report = simplify(doc)
        assert report.nodes_after == depth
        assert 0 < calls <= 2 * depth * report.rounds


def test_world_enumeration_refuses_with_a_typed_error():
    """One branching event per level: 1 200 of them used to exceed the
    recursion limit before the world-class cap could refuse."""
    events = EventTable({f"e{i}": 0.5 for i in range(1200)})
    root = FuzzyNode(
        "A", children=[FuzzyNode("B", condition=Condition.of(f"e{i}")) for i in range(1200)]
    )
    with pytest.raises(ReproError, match="refusing to enumerate more than 10"):
        to_possible_worlds(FuzzyTree(root, events), max_worlds=10)

