"""Unit tests for random tree generation (repro.trees.random)."""

import random

import pytest

from repro.trees import RandomTreeConfig, random_tree


class TestRandomTree:
    def test_deterministic_for_seed(self):
        first = random_tree(random.Random(42))
        second = random_tree(random.Random(42))
        assert first.equals(second)

    def test_different_seeds_usually_differ(self):
        trees = {random_tree(random.Random(seed)).canonical() for seed in range(10)}
        assert len(trees) > 1

    def test_respects_max_nodes(self):
        config = RandomTreeConfig(max_nodes=10)
        for seed in range(20):
            assert random_tree(random.Random(seed), config).size() <= 10

    def test_respects_max_depth(self):
        config = RandomTreeConfig(max_nodes=200, max_depth=3)
        for seed in range(10):
            assert random_tree(random.Random(seed), config).height() <= 3

    def test_respects_label_alphabet(self):
        config = RandomTreeConfig(labels=("X", "Y"))
        node = random_tree(random.Random(0), config)
        assert {n.label for n in node.iter()} <= {"X", "Y"}

    def test_values_only_on_leaves(self):
        for seed in range(10):
            node = random_tree(random.Random(seed))
            for inner in node.iter():
                if inner.value is not None:
                    assert inner.is_leaf

    def test_no_values_when_probability_zero(self):
        config = RandomTreeConfig(value_probability=0.0)
        node = random_tree(random.Random(3), config)
        assert all(n.value is None for n in node.iter())

    def test_min_nodes_floor_is_respected(self):
        config = RandomTreeConfig(max_nodes=40, min_nodes=20)
        for seed in range(30):
            size = random_tree(random.Random(seed), config).size()
            assert 20 <= size <= 40

    def test_min_nodes_retry_is_deterministic(self):
        config = RandomTreeConfig(max_nodes=40, min_nodes=20)
        first = random_tree(random.Random(5), config)
        second = random_tree(random.Random(5), config)
        assert first.equals(second)

    @pytest.mark.parametrize(
        "field,value",
        [("max_nodes", 0), ("max_children", 0), ("min_nodes", 0)],
    )
    def test_invalid_config_rejected(self, field, value):
        with pytest.raises(ValueError):
            RandomTreeConfig(**{field: value})

    def test_min_nodes_above_max_rejected(self):
        with pytest.raises(ValueError):
            RandomTreeConfig(max_nodes=5, min_nodes=6)

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError):
            RandomTreeConfig(labels=())

