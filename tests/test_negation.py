"""Tests for the negation extension (paper, slide 19 "perspectives").

A ``!``-prefixed subpattern requires that its parent's image has *no*
embedding of it.  On plain trees this is a structural check; on fuzzy
trees the presence of the forbidden subtree varies across worlds, so
the evaluator folds the complement of the embeddings' conditions into
the answer conditions — and must still commute with the possible-worlds
semantics.
"""

import random

import pytest

from repro.errors import QueryError
from repro import (
    Condition,
    DeleteOperation,
    EventTable,
    FuzzyNode,
    FuzzyTree,
    UpdateTransaction,
    query_possible_worlds,
    to_possible_worlds,
    update_possible_worlds,
)
from repro.core.update import apply_update
from repro.tpwj.parser import parse_pattern
from repro.core.query import query_fuzzy_tree
from repro.tpwj import MatchConfig, find_embeddings, find_matches, format_pattern
from repro.tpwj.pattern import Pattern, PatternNode
from repro.trees import tree
from repro.warehouse import Warehouse


class TestParsing:
    def test_negated_child(self):
        pattern = parse_pattern("A { B, !C }")
        assert [c.negated for c in pattern.root.children] == [False, True]

    def test_negated_descendant(self):
        pattern = parse_pattern("A { !//C }")
        child = pattern.root.children[0]
        assert child.negated and child.descendant

    def test_negated_subtree_with_structure(self):
        pattern = parse_pattern('A { !C { D[="x"] } }')
        constraint = pattern.root.children[0]
        assert constraint.negated
        assert constraint.children[0].value == "x"

    @pytest.mark.parametrize("text", ["A { B, !C }", "A { !//C { D } }", "A { !* }"])
    def test_format_roundtrip(self, text):
        once = format_pattern(parse_pattern(text))
        assert format_pattern(parse_pattern(once)) == once


class TestValidation:
    def test_negated_root_rejected(self):
        with pytest.raises(QueryError, match="root cannot be negated"):
            Pattern(PatternNode("A", negated=True))

    def test_variable_inside_negation_rejected(self):
        with pytest.raises(QueryError, match="negated subpattern"):
            parse_pattern("A { !C[$x] }")

    def test_variable_deep_inside_negation_rejected(self):
        with pytest.raises(QueryError, match="negated"):
            parse_pattern("A { !C { D[$x] } }")

    def test_nested_negation_rejected(self):
        root = PatternNode("A")
        outer = PatternNode("B", negated=True)
        outer.add_child(PatternNode("C", negated=True))
        root.add_child(outer)
        with pytest.raises(QueryError, match="nested negation"):
            Pattern(root)

    def test_positive_nodes_excludes_negated_subtrees(self):
        pattern = parse_pattern("A { B, !C { D } }")
        labels = [n.label for n in pattern.positive_nodes()]
        assert labels == ["A", "B"]
        assert [n.label for n in pattern.negated_constraints()] == ["C"]
        assert pattern.has_negation()


class TestPlainTreeSemantics:
    def test_absence_required(self):
        pattern = parse_pattern("A { B, !C }")
        assert len(find_matches(pattern, tree("A", tree("B")))) == 1
        assert len(find_matches(pattern, tree("A", tree("B"), tree("C")))) == 0

    def test_negated_descendant_axis(self):
        pattern = parse_pattern("A { !//C }")
        deep = tree("A", tree("B", tree("C")))
        assert len(find_matches(pattern, deep)) == 0
        shallow_only = tree("A", tree("B"))
        assert len(find_matches(pattern, shallow_only)) == 1

    def test_negated_child_axis_ignores_deeper(self):
        pattern = parse_pattern("A { !C }")
        deep = tree("A", tree("B", tree("C")))  # C is not a *child* of A
        assert len(find_matches(pattern, deep)) == 1

    def test_negated_subtree_structure(self):
        pattern = parse_pattern('A { !C { D } }')
        with_cd = tree("A", tree("C", tree("D")))
        with_c_only = tree("A", tree("C"))
        assert len(find_matches(pattern, with_cd)) == 0
        assert len(find_matches(pattern, with_c_only)) == 1

    def test_negated_value_test(self):
        pattern = parse_pattern('A { !C[="bad"] }')
        assert len(find_matches(pattern, tree("A", tree("C", "bad")))) == 0
        assert len(find_matches(pattern, tree("A", tree("C", "good")))) == 1

    def test_leaf_image_with_only_negated_children(self):
        # A leaf trivially satisfies "no C child".
        pattern = parse_pattern("E { !C }")
        assert len(find_matches(pattern, tree("E"))) == 1

    def test_honor_negation_off(self):
        pattern = parse_pattern("A { B, !C }")
        doc = tree("A", tree("B"), tree("C"))
        config = MatchConfig(honor_negation=False)
        assert len(find_matches(pattern, doc, config)) == 1


class TestFindEmbeddings:
    def test_child_axis(self):
        doc = tree("A", tree("C"), tree("C"), tree("B", tree("C")))
        pattern = parse_pattern("X { C }").root.children[0]  # a bare C child pattern
        embeddings = find_embeddings(pattern, doc)
        assert len(embeddings) == 2  # only A's direct C children

    def test_descendant_axis(self):
        doc = tree("A", tree("C"), tree("B", tree("C")))
        pattern = parse_pattern("X { //C }").root.children[0]
        assert len(find_embeddings(pattern, doc)) == 2

    def test_structured_embedding_maps_all_nodes(self):
        doc = tree("A", tree("C", tree("D"), tree("D")))
        pattern = parse_pattern("X { C { D } }").root.children[0]
        embeddings = find_embeddings(pattern, doc)
        assert len(embeddings) == 2  # two D choices
        assert all(len(e) == 2 for e in embeddings)


class TestFuzzySemantics:
    @pytest.fixture
    def doc(self):
        events = EventTable({"w1": 0.8, "w2": 0.7})
        root = FuzzyNode(
            "A",
            children=[
                FuzzyNode("B", condition=Condition.of("w1", "!w2")),
                FuzzyNode("C", children=[FuzzyNode("D", condition=Condition.of("w2"))]),
            ],
        )
        return FuzzyTree(root, events)

    def test_no_b_answer_probability(self, doc):
        # A with C but no B: P(¬(w1 ∧ ¬w2)) = 1 - 0.8*0.3 = 0.76.
        answers = query_fuzzy_tree(doc, parse_pattern("/A { C, !B }"))
        assert len(answers) == 1
        assert answers[0].probability == pytest.approx(0.76)

    def test_certainly_absent_negation_is_free(self, doc):
        answers = query_fuzzy_tree(doc, parse_pattern("/A { C, !Z }"))
        assert answers[0].probability == pytest.approx(1.0)

    def test_certainly_present_negation_kills_answer(self):
        doc = FuzzyTree(
            FuzzyNode("A", children=[FuzzyNode("B"), FuzzyNode("C")]), EventTable()
        )
        assert query_fuzzy_tree(doc, parse_pattern("/A { C, !B }")) == []

    @pytest.mark.parametrize(
        "pattern_text",
        ["/A { C, !B }", "/A { !//D }", "/A { C { !D } }", "/A { !B, !//D }"],
    )
    def test_commutes_with_worlds(self, doc, pattern_text):
        pattern = parse_pattern(pattern_text)
        via_fuzzy = {
            a.tree.canonical(): a.probability for a in query_fuzzy_tree(doc, pattern)
        }
        via_worlds = {
            w.tree.canonical(): w.probability
            for w in query_possible_worlds(to_possible_worlds(doc), pattern)
        }
        assert set(via_fuzzy) == set(via_worlds)
        for key in via_worlds:
            assert via_fuzzy[key] == pytest.approx(via_worlds[key], abs=1e-9)

    def test_update_with_negated_query_commutes(self, doc):
        # Delete C's D when B is absent, confidence 0.9.
        tx = UpdateTransaction(
            parse_pattern("/A { !B, C { D[$d] } }"),
            [DeleteOperation("d")],
            0.9,
        )
        truth = update_possible_worlds(to_possible_worlds(doc), tx)
        apply_update(doc, tx)
        assert to_possible_worlds(doc).same_distribution(truth, 1e-12)

    def test_random_instances_commute(self):
        from repro.workloads import (
            FuzzyWorkloadConfig,
            random_fuzzy_tree,
            random_query_for,
        )

        rng = random.Random(99)
        checked = 0
        while checked < 15:
            fuzzy = random_fuzzy_tree(rng, FuzzyWorkloadConfig(n_events=3))
            pattern = random_query_for(rng, fuzzy.root, max_nodes=3, join_probability=0.0)
            if pattern.root.value is not None:
                continue
            pattern.root.add_child(
                PatternNode(
                    rng.choice(["A", "B", "C", "D"]),
                    descendant=rng.random() < 0.5,
                    negated=True,
                )
            )
            via_fuzzy = {
                a.tree.canonical(): a.probability
                for a in query_fuzzy_tree(fuzzy, pattern)
            }
            via_worlds = {
                w.tree.canonical(): w.probability
                for w in query_possible_worlds(to_possible_worlds(fuzzy), pattern)
            }
            assert set(via_fuzzy) == set(via_worlds)
            for key in via_worlds:
                assert via_fuzzy[key] == pytest.approx(via_worlds[key], abs=1e-9)
            checked += 1


class TestNegatedQueriesInWarehouse:
    def test_warehouse_update_with_negated_query(self, tmp_path):
        events = EventTable({"w1": 0.5})
        doc = FuzzyTree(
            FuzzyNode(
                "A",
                children=[
                    FuzzyNode("B", condition=Condition.of("w1")),
                    FuzzyNode("C"),
                ],
            ),
            events,
        )
        baseline = to_possible_worlds(doc)
        tx = UpdateTransaction(
            parse_pattern("/A { !B, C[$c] }"), [DeleteOperation("c")], 0.8
        )
        truth = update_possible_worlds(baseline, tx)
        with Warehouse.create(tmp_path / "wh", doc) as wh:
            wh._commit_update(tx)
            assert to_possible_worlds(wh.document).same_distribution(truth, 1e-9)
        # And it survives a reopen byte-exactly.
        with Warehouse.open(tmp_path / "wh") as wh:
            assert to_possible_worlds(wh.document).same_distribution(truth, 1e-9)
