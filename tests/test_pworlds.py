"""Unit tests for the possible-worlds model (repro.pworlds)."""

import pytest

from repro.errors import ReproError
from repro.pworlds import (
    PossibleWorlds,
    World,
    query_possible_worlds,
    update_possible_worlds,
)
from repro.tpwj import parse_pattern
from repro.trees import tree
from repro.updates import DeleteOperation, InsertOperation, UpdateTransaction


def slide9_worlds() -> PossibleWorlds:
    """The four-world example of slide 9."""
    return PossibleWorlds(
        [
            (tree("A", tree("C")), 0.06),
            (tree("A", tree("C", tree("D"))), 0.14),
            (tree("A", tree("B"), tree("C")), 0.24),
            (tree("A", tree("B"), tree("C", tree("D"))), 0.56),
        ]
    )


class TestNormalization:
    def test_merges_equal_trees(self):
        worlds = PossibleWorlds([(tree("A"), 0.3), (tree("A"), 0.2)])
        assert len(worlds) == 1
        assert worlds.probability_of(tree("A")) == pytest.approx(0.5)

    def test_merges_unordered_equal_trees(self):
        first = tree("A", tree("B"), tree("C"))
        second = tree("A", tree("C"), tree("B"))
        worlds = PossibleWorlds([(first, 0.5), (second, 0.5)])
        assert len(worlds) == 1

    def test_drops_zero_probability(self):
        worlds = PossibleWorlds([(tree("A"), 0.0), (tree("B"), 1.0)])
        assert len(worlds) == 1

    def test_ordered_by_decreasing_probability(self):
        worlds = slide9_worlds()
        probabilities = [w.probability for w in worlds]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_accepts_world_objects(self):
        worlds = PossibleWorlds([World(tree("A"), 1.0)])
        assert worlds.total_probability() == 1.0

    def test_negative_probability_rejected(self):
        with pytest.raises(ReproError):
            PossibleWorlds([(tree("A"), -0.1)])

    def test_non_node_rejected(self):
        with pytest.raises(ReproError):
            PossibleWorlds([("A", 0.5)])  # type: ignore[list-item]


class TestDistribution:
    def test_check_distribution(self):
        slide9_worlds().check_distribution()

    def test_check_distribution_rejects_drift(self):
        with pytest.raises(ReproError, match="sum to"):
            PossibleWorlds([(tree("A"), 0.4)]).check_distribution()

    def test_probability_of_missing_tree_is_zero(self):
        assert slide9_worlds().probability_of(tree("Z")) == 0.0

    def test_same_distribution(self):
        assert slide9_worlds().same_distribution(slide9_worlds())

    def test_same_distribution_detects_difference(self):
        other = PossibleWorlds([(tree("A", tree("C")), 1.0)])
        assert not slide9_worlds().same_distribution(other)


class TestQuerySemantics:
    def test_answer_probability_is_membership_mass(self):
        # //D matches in the two worlds containing D: 0.14 + 0.56.
        result = query_possible_worlds(slide9_worlds(), parse_pattern("//D"))
        assert len(result) == 1
        assert result.worlds[0].probability == pytest.approx(0.70)
        assert result.worlds[0].tree.canonical() == "A(C(D))"

    def test_no_match_gives_empty_result(self):
        result = query_possible_worlds(slide9_worlds(), parse_pattern("//Z"))
        assert len(result) == 0

    def test_multiple_answers_from_one_world(self):
        worlds = PossibleWorlds([(tree("A", tree("B", "x"), tree("B", "y")), 1.0)])
        result = query_possible_worlds(worlds, parse_pattern("//B"))
        assert len(result) == 2
        assert result.total_probability() == pytest.approx(2.0)

    def test_duplicate_answers_within_world_collapse(self):
        # Two B leaves with the same value yield one answer tree each —
        # but identical minimal subtrees, so Q(t) contains it once.
        worlds = PossibleWorlds([(tree("A", tree("B", "x"), tree("B", "x")), 1.0)])
        result = query_possible_worlds(worlds, parse_pattern("//B"))
        assert len(result) == 1
        assert result.worlds[0].probability == pytest.approx(1.0)

    def test_join_query(self):
        doc = tree("A", tree("B", "v"), tree("C", tree("D", "v")))
        other = tree("A", tree("B", "v"), tree("C", tree("D", "x")))
        worlds = PossibleWorlds([(doc, 0.5), (other, 0.5)])
        result = query_possible_worlds(
            worlds, parse_pattern("/A { B[$x], C { D[$x] } }")
        )
        assert len(result) == 1
        assert result.worlds[0].probability == pytest.approx(0.5)


class TestUpdateSemantics:
    def test_unselected_worlds_unchanged(self):
        tx = UpdateTransaction(
            parse_pattern("/A { Z[$z] }"), [DeleteOperation("z")], 0.9
        )
        before = slide9_worlds()
        after = update_possible_worlds(before, tx)
        assert after.same_distribution(before)

    def test_selected_world_splits(self):
        worlds = PossibleWorlds([(tree("A", tree("B")), 1.0)])
        tx = UpdateTransaction(
            parse_pattern("/A { B[$b] }"), [DeleteOperation("b")], 0.8
        )
        after = update_possible_worlds(worlds, tx)
        assert after.probability_of(tree("A")) == pytest.approx(0.8)
        assert after.probability_of(tree("A", tree("B"))) == pytest.approx(0.2)

    def test_mass_is_conserved(self):
        tx = UpdateTransaction(
            parse_pattern("/A { B[$b] }"), [DeleteOperation("b")], 0.5
        )
        after = update_possible_worlds(slide9_worlds(), tx)
        assert after.total_probability() == pytest.approx(1.0)

    def test_confidence_one_replaces(self):
        worlds = PossibleWorlds([(tree("A", tree("B")), 1.0)])
        tx = UpdateTransaction(
            parse_pattern("/A[$a]"), [InsertOperation("a", tree("N"))], 1.0
        )
        after = update_possible_worlds(worlds, tx)
        assert len(after) == 1
        assert after.probability_of(tree("A", tree("B"), tree("N"))) == pytest.approx(1.0)

    def test_confidence_zero_is_noop(self):
        worlds = slide9_worlds()
        tx = UpdateTransaction(
            parse_pattern("/A[$a]"), [InsertOperation("a", tree("N"))], 0.0
        )
        after = update_possible_worlds(worlds, tx)
        assert after.same_distribution(worlds)

    def test_update_can_merge_worlds(self):
        # Deleting D with certainty collapses the D/no-D world pairs.
        worlds = slide9_worlds()
        tx = UpdateTransaction(
            parse_pattern("//D[$d]"), [DeleteOperation("d")], 1.0
        )
        after = update_possible_worlds(worlds, tx)
        assert len(after) == 2
        assert after.probability_of(tree("A", tree("C"))) == pytest.approx(0.20)
        assert after.probability_of(
            tree("A", tree("B"), tree("C"))
        ) == pytest.approx(0.80)
