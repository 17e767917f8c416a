"""Update semantics on possible worlds (paper, slide 10).

Definition: the result of an update (query ``Q``, operations ``τ``)
with confidence ``c`` on a possible-worlds set ``T`` is the
normalization of::

    {(t, p) ∈ T | t is not selected by Q}
  ∪ {(τ(t), p·c)       | t is selected by Q}
  ∪ {(t, p·(1-c))      | t is selected by Q}

A world is *selected* when the query has at least one match in it; ``τ``
applies every operation for every match (see
:func:`repro.updates.transaction.apply_deterministic`).
"""

from __future__ import annotations

from repro.obs.metrics import process_registry
from repro.pworlds.worlds import PossibleWorlds, World
from repro.tpwj.match import DEFAULT_CONFIG, MatchConfig, find_matches
from repro.updates.transaction import UpdateTransaction, apply_deterministic

__all__ = ["update_possible_worlds"]


def update_possible_worlds(
    worlds: PossibleWorlds,
    transaction: UpdateTransaction,
    config: MatchConfig = DEFAULT_CONFIG,
) -> PossibleWorlds:
    """Apply a probabilistic update transaction world-by-world.

    Probability mass is conserved: the result's total equals the
    input's (each selected world splits into two pieces whose
    probabilities sum to the original).
    """
    confidence = transaction.confidence
    results: list[World] = []
    for world in worlds:
        process_registry.incr("pworlds.update.worlds")
        matches = find_matches(transaction.query, world.tree, config)
        if not matches:
            results.append(World(world.tree, world.probability))
            continue
        process_registry.incr("pworlds.update.selected")
        updated = apply_deterministic(transaction, world.tree, matches, config)
        if confidence > 0.0:
            results.append(World(updated, world.probability * confidence))
        if confidence < 1.0:
            results.append(World(world.tree, world.probability * (1.0 - confidence)))
    return PossibleWorlds(results)
