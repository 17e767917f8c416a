"""Unit tests for the TPWJ matcher (repro.tpwj.match)."""

import itertools

import pytest

import repro
from repro.api.builders import compile_transaction
from repro.core.query import iter_query_rows, query_fuzzy_tree
from repro.core.update import apply_update
from repro.engine import QueryEngine, build_plan
from repro.errors import QueryError
from repro.tpwj import MatchConfig, find_matches, parse_pattern
from repro.trees import minimal_subtree, restrict, tree


@pytest.fixture
def doc():
    return tree(
        "A",
        tree("B", "foo"),
        tree("B", "bar"),
        tree("E", tree("C", "foo")),
        tree("D", tree("F", tree("C", "nee"))),
    )


def match_count(pattern_text, root, **config_kwargs):
    config = MatchConfig(**config_kwargs) if config_kwargs else MatchConfig()
    return len(find_matches(parse_pattern(pattern_text), root, config))


class TestLabelsAndValues:
    def test_label_match(self, doc):
        assert match_count("B", doc) == 2

    def test_no_match(self, doc):
        assert match_count("Z", doc) == 0

    def test_wildcard_matches_everything(self, doc):
        assert match_count("*", doc) == doc.size()

    def test_value_test(self, doc):
        assert match_count('B[="foo"]', doc) == 1
        assert match_count('B[="quux"]', doc) == 0

    def test_value_test_with_wildcard_label(self, doc):
        assert match_count('*[="foo"]', doc) == 2  # B and C leaves


class TestAxes:
    def test_child_edge(self, doc):
        assert match_count("A { B }", doc) == 2
        assert match_count("A { C }", doc) == 0  # C is not a direct child

    def test_descendant_edge(self, doc):
        assert match_count("A { //C }", doc) == 2

    def test_descendant_is_proper(self, doc):
        # E//E would require a *proper* descendant labelled E.
        assert match_count("E { //E }", doc) == 0

    def test_nested_chain(self, doc):
        assert match_count("D { F { C } }", doc) == 1

    def test_sibling_requirements(self, doc):
        assert match_count("A { B, E }", doc) == 2  # two choices of B

    def test_homomorphism_two_pattern_children_one_data_node(self):
        # Both pattern B's may map to the same data B (homomorphic).
        doc = tree("A", tree("B"))
        assert match_count("A { B, B }", doc) == 1


class TestAnchoring:
    def test_unanchored_matches_anywhere(self, doc):
        assert match_count("C", doc) == 2

    def test_anchored_at_root_only(self, doc):
        assert match_count("/A", doc) == 1
        assert match_count("/C", doc) == 0

    def test_anchored_subtree(self, doc):
        assert match_count("/A { D { F } }", doc) == 1


class TestJoins:
    def test_join_requires_equal_values(self, doc):
        # B[foo] joins with C[foo], not with C[nee].
        assert match_count("A { B[$x], //C[$x] }", doc) == 1

    def test_join_never_binds_valueless_nodes(self):
        doc = tree("A", tree("B"), tree("C"))
        assert match_count("A { B[$x], C[$x] }", doc) == 0

    def test_single_use_variable_is_not_a_join(self, doc):
        # $x used once: no value constraint, binds the E node too.
        assert match_count("E[$x]", doc) == 1

    def test_three_way_join(self):
        doc = tree("R", tree("X", "v"), tree("Y", "v"), tree("Z", "v"))
        assert match_count("R { X[$a], Y[$a], Z[$a] }", doc) == 1
        doc2 = tree("R", tree("X", "v"), tree("Y", "v"), tree("Z", "w"))
        assert match_count("R { X[$a], Y[$a], Z[$a] }", doc2) == 0


class TestMatchObject:
    def test_mapping_and_node_for(self, doc):
        pattern = parse_pattern("A { B[$b] }")
        matches = find_matches(pattern, doc)
        values = {m.node_for("b").value for m in matches}
        assert values == {"foo", "bar"}

    def test_bindings(self, doc):
        pattern = parse_pattern("A { B[$b] }")
        match = find_matches(pattern, doc)[0]
        assert match.bindings() == {"b": match.node_for("b").value}

    def test_nodes_deduplicates(self, doc):
        pattern = parse_pattern("A { B }")
        match = find_matches(pattern, doc)[0]
        assert len(match.nodes()) == 2

    def test_getitem(self, doc):
        pattern = parse_pattern("A { B }")
        match = find_matches(pattern, doc)[0]
        assert match[pattern.root] is doc


class TestConfigAblation:
    @pytest.mark.parametrize(
        "index,semijoin,early",
        list(itertools.product([True, False], repeat=3)),
    )
    def test_all_toggles_agree(self, doc, index, semijoin, early):
        """Optimizations must never change the result set."""
        config = MatchConfig(
            use_label_index=index,
            use_semijoin_pruning=semijoin,
            early_join_check=early,
        )
        pattern = parse_pattern("A { B[$x], //C[$x], E }")
        baseline = find_matches(pattern, doc)
        matches = find_matches(pattern, doc, config)
        assert len(matches) == len(baseline)

    def test_max_matches_limits(self, doc):
        pattern = parse_pattern("*")
        config = MatchConfig(max_matches=3)
        assert len(find_matches(pattern, doc, config)) == 3

    @pytest.mark.parametrize("plan", [None, "auto", "prebuilt"])
    @pytest.mark.parametrize("cap", [0, 1, -1, "x"])
    def test_max_matches_contract(self, doc, cap, plan):
        """One cap contract on every path: None or a non-negative int,
        0 meaning no match — including the anchored single-node shape
        that is answered by a root probe instead of a walk."""
        if cap not in (0, 1):
            with pytest.raises(QueryError, match="max_matches"):
                MatchConfig(max_matches=cap)
            return
        config = MatchConfig(max_matches=cap)
        for text in ("*", "/A", "/A { !Z }"):
            pattern = parse_pattern(text)
            chosen = build_plan(pattern, doc) if plan == "prebuilt" else plan
            assert len(find_matches(pattern, doc, config, plan=chosen)) == cap

    def test_deterministic_order(self, doc):
        pattern = parse_pattern("A { B[$b] }")
        first = [m.node_for("b").value for m in find_matches(pattern, doc)]
        second = [m.node_for("b").value for m in find_matches(pattern, doc)]
        assert first == second


class TestStructuralFilters:
    def test_pattern_with_children_needs_internal_node(self):
        doc = tree("A", tree("B", "leafvalue"))
        # B has a value (leaf): pattern B { X } cannot match it.
        assert match_count("B { X }", doc) == 0

    def test_deep_descendant(self):
        doc = tree("A", tree("B", tree("C", tree("D", tree("E")))))
        assert match_count("A { //E }", doc) == 1
        assert match_count("B { //D }", doc) == 1


class TestDeepDocuments:
    """The document walk keeps its own stack: depth is not bounded by
    the interpreter's recursion limit, on any path to the matcher."""

    DEPTH = 3000  # conftest's ``chain``

    def test_every_matching_path_agrees(self, chain):
        doc, leaf = chain
        pattern = parse_pattern("//B")
        fixed = find_matches(pattern, doc.root)
        planned = find_matches(pattern, doc.root, plan="auto")
        engine = QueryEngine(lambda: doc.root).find_matches(pattern)
        for matches in (fixed, planned, engine):
            assert [m[pattern.root] for m in matches] == [leaf]
        assert len(find_matches(parse_pattern("A { //B }"), doc.root)) == self.DEPTH - 2

    @pytest.mark.parametrize("query", ["B[$t]", "A[$t] { B }"])
    def test_update_at_the_bottom(self, chain, query):
        doc, leaf = chain
        target = leaf if query.startswith("B") else leaf.parent
        transaction = compile_transaction(
            repro.update(query).insert("t", repro.tree("N", "v")).confidence(0.5)
        )
        report = apply_update(doc, transaction)
        assert report.applied and report.matches == 1
        assert [child.label for child in target.children][-1] == "N"

    def test_answers_and_rows(self, chain):
        """The row path — answer-tree copy, canonical encoding, grouping —
        is iterative too: a query *answer* at the bottom of the chain is
        built and priced, with and without an engine."""
        doc, leaf = chain
        pattern = parse_pattern("//B")
        expected = "R(" + "A(" * (self.DEPTH - 2) + "B" + ")" * (self.DEPTH - 1)
        for engine in (None, QueryEngine(lambda: doc.root)):
            (answer,) = query_fuzzy_tree(doc, pattern, engine=engine)
            assert answer.probability == pytest.approx(0.5)
            assert answer.tree.canonical() == expected
            (row,) = iter_query_rows(doc, pattern, engine=engine)
            assert row.probability == pytest.approx(0.5)
            assert row.tree.canonical() == expected
        assert minimal_subtree(doc.root, [leaf]).canonical() == expected
        keep = {id(node) for node in leaf.ancestors(include_self=True)}
        assert restrict(doc.root, keep).canonical() == expected
