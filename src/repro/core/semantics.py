"""Possible-worlds semantics of fuzzy trees (paper, slide 12).

Two directions:

* :func:`to_possible_worlds` — the *semantics* arrow of the paper's
  commuting diagrams.  Rather than enumerating all ``2^n`` truth
  assignments, it Shannon-expands over the events of the *live*
  conditions only: a branch ends as soon as every node condition is
  decided, so the leaf count equals the number of condition-
  distinguishable world classes (e.g. a k-event first-success selector
  chain yields k+1 leaves, not ``2^k``).  Worlds with equal trees merge
  (normalization).

* :func:`from_possible_worlds` — the constructive half of the slide-12
  theorem ("the fuzzy tree model is as expressive as the possible
  worlds model"): given any normalized world set sharing a root label
  and value, build a fuzzy tree with fresh selector events whose
  semantics is exactly the input.  The construction uses the
  first-success encoding: world ``i`` is selected by
  ``¬x1 … ¬x(i-1) xi`` with ``P(xi) = pi / (1 - p1 - … - p(i-1))``.
"""

from __future__ import annotations

from repro.analysis.instrumentation import counters
from repro.errors import ReproError
from repro.events.condition import Condition
from repro.events.literal import Literal
from repro.events.table import EventTable
from repro.core.fuzzy_tree import FuzzyNode, FuzzyTree
from repro.pworlds.worlds import PossibleWorlds, World
from repro.trees.algorithms import restrict

__all__ = ["to_possible_worlds", "from_possible_worlds"]

#: Guard for per-match event enumeration elsewhere in the library
#: (aggregates): 2^24 assignments is the accident threshold.
MAX_ENUMERATED_EVENTS = 24

#: Guard on the number of world classes :func:`to_possible_worlds` may
#: produce before concluding the instance needs sampling instead.
MAX_WORLD_CLASSES = 200_000


def to_possible_worlds(
    fuzzy: FuzzyTree, max_worlds: int = MAX_WORLD_CLASSES
) -> PossibleWorlds:
    """Enumerate the possible worlds of a fuzzy tree, exactly.

    Shannon expansion over live condition events: each branch fixes one
    event that some still-undecided condition mentions; a branch ends
    when every condition is decided.  The cost is proportional to the
    number of condition-distinguishable world classes (bounded by
    *max_worlds*), not to ``2^(#events)``.
    """
    conditioned = [
        node for node in fuzzy.iter_nodes() if not node.condition.is_true
    ]
    leaves: list[tuple[tuple[Condition | None, ...], float]] = []

    # Depth-first on an explicit stack (True branch first, as pushed
    # last): no depth bound from the number of branching events.
    stack = [(tuple(node.condition for node in conditioned), 1.0)]
    while stack:
        states, weight = stack.pop()
        counts: dict[str, int] = {}
        for condition in states:
            if condition is not None and not condition.is_true:
                for event in condition.events():
                    counts[event] = counts.get(event, 0) + 1
        if not counts:
            counters.incr("semantics.world_classes")
            leaves.append((states, weight))
            if len(leaves) > max_worlds:
                raise ReproError(
                    f"refusing to enumerate more than {max_worlds} world "
                    "classes; use the Monte-Carlo estimator for larger instances"
                )
            continue
        event = max(sorted(counts), key=lambda name: counts[name])
        probability = fuzzy.events.probability(event)
        for truth, branch_weight in ((False, 1.0 - probability), (True, probability)):
            if branch_weight == 0.0:
                continue
            restricted = tuple(
                None if condition is None else condition.restrict(event, truth)
                for condition in states
            )
            stack.append((restricted, weight * branch_weight))

    # A world keeps the unconditioned nodes and its leaf's survivors.
    unconditioned = {id(node) for node in fuzzy.iter_nodes() if node.condition.is_true}
    worlds: list[World] = []
    for states, weight in leaves:
        keep = {
            id(node)
            for node, condition in zip(conditioned, states)
            if condition is not None
        }
        worlds.append(World(restrict(fuzzy.root, unconditioned | keep), weight))
    return PossibleWorlds(worlds)


def from_possible_worlds(
    worlds: PossibleWorlds,
    prefix: str = "v",
    tolerance: float = 1e-9,
) -> FuzzyTree:
    """Build a fuzzy tree whose semantics is the given world set.

    Requirements (and the reasons they exist):

    * probabilities must sum to 1 — the input must be a probability
      distribution over worlds;
    * all world roots must share the same label and value — a fuzzy
      tree has a single unconditioned root, so worlds can only differ
      below it.  (The paper's examples all share the document root.)

    The returned tree attaches, under the shared root, the children of
    each world's root guarded by that world's selector condition.
    """
    world_list = list(worlds)
    if not world_list:
        raise ReproError("cannot build a fuzzy tree from an empty world set")
    worlds.check_distribution(tolerance)

    first = world_list[0].tree
    for world in world_list[1:]:
        if world.tree.label != first.label or world.tree.value != first.value:
            raise ReproError(
                "all worlds must share the root label and value to be "
                f"representable with a single document root "
                f"({first.label!r}/{first.value!r} vs "
                f"{world.tree.label!r}/{world.tree.value!r})"
            )

    events = EventTable()
    selectors = _selector_conditions(
        [world.probability for world in world_list], events, prefix
    )

    root = FuzzyNode(first.label, first.value)
    for world, selector in zip(world_list, selectors):
        for child in world.tree.children:
            fuzzy_child = FuzzyNode.from_plain(child, condition=selector)
            root.add_child(fuzzy_child)
    return FuzzyTree(root, events)


def _selector_conditions(
    probabilities: list[float], events: EventTable, prefix: str
) -> list[Condition]:
    """Disjoint selector conditions with the given probabilities.

    First-success encoding: selector ``i`` is ``¬x1 … ¬x(i-1) xi`` (the
    last world needs no own event).  Conditional probabilities are
    clamped into [0, 1] to absorb floating-point drift.
    """
    count = len(probabilities)
    selectors: list[Condition] = []
    negatives: list[Literal] = []
    remaining = 1.0
    for index, probability in enumerate(probabilities):
        if index == count - 1:
            selectors.append(Condition(negatives))
            break
        conditional = probability / remaining if remaining > 0.0 else 0.0
        conditional = min(1.0, max(0.0, conditional))
        name = events.fresh(conditional, prefix=prefix)
        selectors.append(Condition(negatives + [Literal(name, True)]))
        negatives.append(Literal(name, False))
        remaining -= probability
    return selectors
