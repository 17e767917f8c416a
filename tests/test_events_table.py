"""Unit tests for event tables (repro.events.table)."""

import pytest

from repro.errors import (
    EventError,
    InvalidProbabilityError,
    UnknownEventError,
)
from repro.events import Condition, EventTable, Literal, dnf_probability


class TestDeclaration:
    def test_declare_and_lookup(self):
        table = EventTable()
        table.declare("w1", 0.8)
        assert table.probability("w1") == 0.8
        assert "w1" in table and len(table) == 1

    def test_constructor_mapping(self):
        table = EventTable({"a": 0.1, "b": 0.9})
        assert table.names() == ("a", "b")

    def test_redeclare_same_probability_ok(self):
        table = EventTable({"w1": 0.5})
        table.declare("w1", 0.5)
        assert len(table) == 1

    def test_redeclare_different_probability_rejected(self):
        table = EventTable({"w1": 0.5})
        with pytest.raises(EventError, match="already declared"):
            table.declare("w1", 0.6)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), "x", None, True])
    def test_invalid_probability_rejected(self, bad):
        with pytest.raises(InvalidProbabilityError):
            EventTable({"w1": bad})  # type: ignore[dict-item]

    @pytest.mark.parametrize("ok", [0, 1, 0.0, 1.0, 0.5])
    def test_boundary_probabilities_accepted(self, ok):
        assert EventTable({"w1": ok}).probability("w1") == float(ok)

    def test_invalid_name_rejected(self):
        with pytest.raises(EventError):
            EventTable({"9x": 0.5})


class TestFresh:
    def test_fresh_allocates_distinct_names(self):
        table = EventTable()
        names = {table.fresh(0.5) for _ in range(10)}
        assert len(names) == 10

    def test_fresh_skips_existing_names(self):
        table = EventTable({"w1": 0.3})
        name = table.fresh(0.5)
        assert name != "w1" and name in table

    def test_fresh_prefix(self):
        table = EventTable()
        assert table.fresh(0.5, prefix="upd").startswith("upd")

    def test_fresh_validates_probability(self):
        with pytest.raises(InvalidProbabilityError):
            EventTable().fresh(2.0)


class TestRemoval:
    def test_remove(self):
        table = EventTable({"w1": 0.5})
        table.remove("w1")
        assert "w1" not in table

    def test_remove_unknown_rejected(self):
        with pytest.raises(UnknownEventError):
            EventTable().remove("w1")


class TestProbabilities:
    """A condition is priced as a one-term DNF against its table."""

    def test_literal_probability(self):
        table = EventTable({"w1": 0.8})
        assert dnf_probability([Condition.of("w1")], table) == pytest.approx(0.8)
        assert dnf_probability([Condition.of("!w1")], table) == pytest.approx(0.2)

    def test_condition_probability_is_product(self):
        table = EventTable({"w1": 0.8, "w2": 0.7})
        cond = Condition.of("w1", "!w2")
        assert dnf_probability([cond], table) == pytest.approx(0.8 * 0.3)

    def test_true_condition_has_probability_one(self):
        assert dnf_probability([Condition()], EventTable()) == 1.0

    def test_inconsistent_condition_has_probability_zero(self):
        table = EventTable({"w1": 0.5})
        cond = Condition(
            [Literal("w1"), Literal("w1", False)], allow_inconsistent=True
        )
        assert dnf_probability([cond], table) == 0.0

    def test_unknown_event_raises(self):
        with pytest.raises(UnknownEventError):
            dnf_probability([Condition.of("w1")], EventTable())

    def test_check_condition(self):
        table = EventTable({"w1": 0.5})
        table.check_condition(Condition.of("w1"))
        with pytest.raises(UnknownEventError):
            table.check_condition(Condition.of("w2"))


class TestCopies:
    def test_copy_is_independent(self):
        table = EventTable({"w1": 0.5})
        copy = table.copy()
        copy.declare("w2", 0.1)
        assert "w2" not in table

    def test_copy_preserves_fresh_counter(self):
        table = EventTable()
        table.fresh(0.5)
        copy = table.copy()
        assert copy.fresh(0.5) == table.fresh(0.5)

    def test_as_dict_and_equality(self):
        table = EventTable({"a": 0.1})
        assert table.as_dict() == {"a": 0.1}
        assert table == EventTable({"a": 0.1})
        assert table != EventTable({"a": 0.2})

    def test_iteration_order_is_insertion_order(self):
        table = EventTable({"z": 0.1, "a": 0.2})
        assert list(table) == ["z", "a"]
        assert list(table.items()) == [("z", 0.1), ("a", 0.2)]
