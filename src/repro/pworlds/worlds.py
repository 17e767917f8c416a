"""The possible-worlds model — the paper's semantic foundation (slide 9).

A probabilistic document denotes a finite set of ``(tree, probability)``
pairs, one per possible world.  :class:`PossibleWorlds` stores such a
set, with *normalization* — merging worlds whose trees are equal as
unordered trees, summing their probabilities — applied on construction.

This model is deliberately naive: it is the ground truth against which
the fuzzy-tree implementation is validated (the commuting diagrams of
slides 13 and 14) and the baseline whose exponential cost motivates the
fuzzy-tree representation (benchmark E6).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from repro.errors import ReproError
from repro.trees.node import Node

__all__ = ["PossibleWorlds", "World"]


class World:
    """One possible world: a data tree with its probability."""

    __slots__ = ("tree", "probability")

    def __init__(self, tree: Node, probability: float) -> None:
        if not isinstance(tree, Node):
            raise ReproError(f"world tree must be a Node, got {type(tree).__name__}")
        if isinstance(probability, bool) or not isinstance(probability, (int, float)):
            raise ReproError(f"world probability must be a number, got {probability!r}")
        probability = float(probability)
        if probability < 0.0 or math.isnan(probability):
            raise ReproError(f"world probability must be non-negative, got {probability}")
        self.tree = tree
        self.probability = probability

    def __repr__(self) -> str:
        return f"World(p={self.probability:.6g}, tree={self.tree.canonical()})"


class PossibleWorlds:
    """A normalized set of possible worlds.

    Construction merges worlds with equal trees (unordered-tree
    equality) by summing probabilities, drops zero-probability worlds,
    and orders worlds by decreasing probability (ties broken by the
    canonical form) so iteration is deterministic.
    """

    __slots__ = ("_worlds", "_by_canonical")

    def __init__(self, worlds: Iterable[World | tuple[Node, float]]) -> None:
        merged: dict[str, World] = {}
        for item in worlds:
            world = item if isinstance(item, World) else World(item[0], item[1])
            if world.probability == 0.0:
                continue
            key = world.tree.canonical()
            existing = merged.get(key)
            if existing is None:
                merged[key] = World(world.tree, world.probability)
            else:
                existing.probability += world.probability
        ordered = sorted(
            merged.items(), key=lambda kv: (-kv[1].probability, kv[0])
        )
        self._worlds = tuple(world for _key, world in ordered)
        self._by_canonical = {key: world for key, world in ordered}

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[World]:
        return iter(self._worlds)

    def __len__(self) -> int:
        return len(self._worlds)

    @property
    def worlds(self) -> tuple[World, ...]:
        return self._worlds

    def probability_of(self, tree: Node) -> float:
        """Probability mass of worlds whose tree equals *tree*."""
        world = self._by_canonical.get(tree.canonical())
        return world.probability if world is not None else 0.0

    def total_probability(self) -> float:
        return sum(world.probability for world in self._worlds)

    def check_distribution(self, tolerance: float = 1e-9) -> None:
        """Raise unless probabilities sum to 1 (true probabilistic documents)."""
        total = self.total_probability()
        if abs(total - 1.0) > tolerance:
            raise ReproError(
                f"possible-worlds probabilities sum to {total}, expected 1"
            )

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------

    def same_distribution(
        self, other: "PossibleWorlds", tolerance: float = 1e-9
    ) -> bool:
        """True when both sets give every tree the same probability."""
        keys = set(self._by_canonical) | set(other._by_canonical)
        for key in keys:
            mine = self._by_canonical.get(key)
            theirs = other._by_canonical.get(key)
            p_mine = mine.probability if mine else 0.0
            p_theirs = theirs.probability if theirs else 0.0
            if abs(p_mine - p_theirs) > tolerance:
                return False
        return True

    def __repr__(self) -> str:
        return f"PossibleWorlds({len(self._worlds)} worlds, total={self.total_probability():.6g})"
