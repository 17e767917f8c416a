"""Random data-tree generation.

Used by the property tests (as a seed-driven complement to hypothesis
strategies) and by the workload generators.  All randomness flows through
an explicit :class:`random.Random` instance so every benchmark run is
reproducible from its seed.
"""

from __future__ import annotations

import random

from repro.trees.node import Node

__all__ = ["RandomTreeConfig", "random_tree"]


class RandomTreeConfig:
    """Shape parameters for :func:`random_tree`.

    Parameters
    ----------
    max_nodes:
        Upper bound on the number of nodes generated.
    max_children:
        Maximum branching factor.
    max_depth:
        Maximum depth (root at depth 0).
    labels:
        Label alphabet to draw from.
    value_probability:
        Probability that a leaf carries a text value.
    values:
        Value alphabet for leaves.
    """

    def __init__(
        self,
        max_nodes: int = 30,
        max_children: int = 4,
        max_depth: int = 6,
        labels: tuple[str, ...] = ("A", "B", "C", "D", "E", "F"),
        value_probability: float = 0.5,
        values: tuple[str, ...] = ("foo", "bar", "nee", "qux"),
        min_nodes: int = 1,
    ) -> None:
        if max_nodes < 1:
            raise ValueError("max_nodes must be at least 1")
        if max_children < 1:
            raise ValueError("max_children must be at least 1")
        if not labels:
            raise ValueError("labels must be non-empty")
        if not 1 <= min_nodes <= max_nodes:
            raise ValueError("min_nodes must lie in [1, max_nodes]")
        self.max_nodes = max_nodes
        self.max_children = max_children
        self.max_depth = max_depth
        self.labels = labels
        self.value_probability = value_probability
        self.values = values
        self.min_nodes = min_nodes


def random_tree(rng: random.Random, config: RandomTreeConfig | None = None) -> Node:
    """Generate a random unordered data tree.

    The generator grows the tree breadth-first, spending a node budget of
    ``config.max_nodes``; leaves receive a value with probability
    ``config.value_probability``.  When the random growth stalls below
    ``config.min_nodes`` (every frontier node drew zero children early),
    the draw is retried — deterministically, from the same RNG stream —
    so sweeps over sizes measure what they claim to.
    """
    config = config or RandomTreeConfig()
    for _attempt in range(100):
        root = _grow(rng, config)
        if root.size() >= config.min_nodes:
            return root
    return root  # pathological configs: return the last attempt


def _grow(rng: random.Random, config: RandomTreeConfig) -> Node:
    root = Node(rng.choice(config.labels))
    budget = config.max_nodes - 1
    frontier: list[tuple[Node, int]] = [(root, 0)]
    while frontier and budget > 0:
        index = rng.randrange(len(frontier))
        node, depth = frontier.pop(index)
        if depth >= config.max_depth:
            continue
        n_children = rng.randint(0, min(config.max_children, budget))
        for _ in range(n_children):
            child = Node(rng.choice(config.labels))
            node.add_child(child)
            budget -= 1
            frontier.append((child, depth + 1))
    # Assign values to a random subset of leaves.
    for leaf in list(root.leaves()):
        if config.values and rng.random() < config.value_probability:
            leaf.value = rng.choice(config.values)
    return root
