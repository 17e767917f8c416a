"""Unit tests for DNFs, exact probability, and disjoint complements
(repro.events.dnf) — the machinery behind answer combination and
probabilistic deletions."""

import pytest

from repro.events import (
    TRUE,
    Condition,
    Dnf,
    EventTable,
    assignment_weight,
    complement_as_disjoint_conditions,
    dnf_probability,
    enumerate_assignments,
)


def brute_force_probability(terms, table):
    """Reference: enumerate all assignments of the table's events."""
    total = 0.0
    for assignment in enumerate_assignments(table.names()):
        if any(term.satisfied_by(assignment) for term in terms):
            total += assignment_weight(assignment, table)
    return total


class TestDnfStructure:
    def test_empty_is_false(self):
        assert Dnf().is_false and not Dnf().is_true

    def test_true_term_makes_true(self):
        assert Dnf([TRUE]).is_true

    def test_absorption(self):
        # w1 absorbs w1 ∧ w2.
        dnf = Dnf([Condition.of("w1", "w2"), Condition.of("w1")])
        assert dnf.terms == (Condition.of("w1"),)

    def test_absorption_either_order(self):
        dnf = Dnf([Condition.of("w1"), Condition.of("w1", "w2")])
        assert dnf.terms == (Condition.of("w1"),)

    def test_inconsistent_terms_dropped(self):
        from repro.events import Literal

        bad = Condition([Literal("w1"), Literal("w1", False)], allow_inconsistent=True)
        assert Dnf([bad]).is_false

    def test_or_(self):
        dnf = Dnf([Condition.of("w1")]).or_(Condition.of("w2"))
        assert len(dnf.terms) == 2

    def test_equality_ignores_term_order(self):
        a, b = Condition.of("w1"), Condition.of("w2")
        assert Dnf([a, b]) == Dnf([b, a])
        assert hash(Dnf([a, b])) == hash(Dnf([b, a]))

    def test_events_union(self):
        dnf = Dnf([Condition.of("w1"), Condition.of("!w2", "w3")])
        assert dnf.events() == {"w1", "w2", "w3"}

    def test_satisfied_by(self):
        dnf = Dnf([Condition.of("w1"), Condition.of("w2")])
        assert dnf.satisfied_by({"w1": False, "w2": True})
        assert not dnf.satisfied_by({"w1": False, "w2": False})

    def test_non_condition_rejected(self):
        with pytest.raises(TypeError):
            Dnf(["w1"])  # type: ignore[list-item]


class TestDnfProbability:
    def test_false_is_zero(self):
        assert dnf_probability(Dnf(), EventTable()) == 0.0

    def test_true_is_one(self):
        assert dnf_probability(Dnf([TRUE]), EventTable()) == 1.0

    def test_single_conjunction_is_product(self):
        table = EventTable({"w1": 0.8, "w2": 0.7})
        p = dnf_probability([Condition.of("w1", "!w2")], table)
        assert p == pytest.approx(0.8 * 0.3)

    def test_disjunction_inclusion_exclusion(self):
        table = EventTable({"w1": 0.5, "w2": 0.5})
        p = dnf_probability([Condition.of("w1"), Condition.of("w2")], table)
        assert p == pytest.approx(0.75)

    def test_overlapping_terms(self):
        table = EventTable({"a": 0.3, "b": 0.6, "c": 0.9})
        terms = [Condition.of("a", "b"), Condition.of("b", "c"), Condition.of("!a", "!c")]
        assert dnf_probability(terms, table) == pytest.approx(
            brute_force_probability(terms, table)
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_on_random_dnfs(self, seed):
        import random

        rng = random.Random(seed)
        names = [f"e{i}" for i in range(5)]
        table = EventTable({n: rng.uniform(0.05, 0.95) for n in names})
        terms = []
        for _ in range(rng.randint(1, 5)):
            chosen = rng.sample(names, rng.randint(1, 3))
            terms.append(
                Condition.of(*(n if rng.random() < 0.5 else f"!{n}" for n in chosen))
            )
        assert dnf_probability(terms, table) == pytest.approx(
            brute_force_probability(terms, table)
        )

    def test_accepts_sequence_or_dnf(self):
        table = EventTable({"w1": 0.4})
        terms = [Condition.of("w1")]
        assert dnf_probability(terms, table) == dnf_probability(Dnf(terms), table)


class TestComplementDecomposition:
    def assert_partition_of_complement(self, conditions, pieces, events):
        """Pieces must be pairwise disjoint and cover exactly ¬(∨ conditions)."""
        for assignment in enumerate_assignments(events):
            in_disjunction = any(c.satisfied_by(assignment) for c in conditions)
            holding = [p for p in pieces if p.satisfied_by(assignment)]
            if in_disjunction:
                assert holding == [], f"piece overlaps disjunction at {assignment}"
            else:
                assert len(holding) == 1, f"cover not exact at {assignment}: {holding}"

    def test_single_condition_first_failing_literal_shape(self):
        # ¬(w1 ∧ w3) = ¬w1 ∪ (w1 ∧ ¬w3) — the slide-15 decomposition.
        pieces = complement_as_disjoint_conditions([Condition.of("w1", "w3")])
        assert set(pieces) == {Condition.of("!w1"), Condition.of("w1", "!w3")}

    def test_single_literal(self):
        pieces = complement_as_disjoint_conditions([Condition.of("w1")])
        assert pieces == [Condition.of("!w1")]

    def test_tautology_has_empty_complement(self):
        assert complement_as_disjoint_conditions([TRUE]) == []

    def test_empty_disjunction_complement_is_true(self):
        assert complement_as_disjoint_conditions([]) == [TRUE]

    def test_multi_condition_partition(self):
        conditions = [Condition.of("a", "b"), Condition.of("!b", "c")]
        pieces = complement_as_disjoint_conditions(conditions)
        self.assert_partition_of_complement(conditions, pieces, ["a", "b", "c"])

    @pytest.mark.parametrize("seed", range(10))
    def test_random_partitions(self, seed):
        import random

        rng = random.Random(seed)
        names = [f"e{i}" for i in range(4)]
        conditions = []
        for _ in range(rng.randint(1, 4)):
            chosen = rng.sample(names, rng.randint(1, 3))
            conditions.append(
                Condition.of(*(n if rng.random() < 0.5 else f"!{n}" for n in chosen))
            )
        pieces = complement_as_disjoint_conditions(conditions)
        self.assert_partition_of_complement(conditions, pieces, names)

    def test_probabilities_sum_to_complement(self):
        table = EventTable({"a": 0.2, "b": 0.9})
        conditions = [Condition.of("a"), Condition.of("b")]
        pieces = complement_as_disjoint_conditions(conditions)
        total = sum(dnf_probability([p], table) for p in pieces)
        assert total == pytest.approx(1.0 - dnf_probability(conditions, table))

    def test_fixed_order_is_respected(self):
        pieces = complement_as_disjoint_conditions(
            [Condition.of("a", "b")], order=["b", "a"]
        )
        assert set(pieces) == {Condition.of("!b"), Condition.of("b", "!a")}
