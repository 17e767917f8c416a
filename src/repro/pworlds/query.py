"""Query semantics on possible worlds (paper, slide 10).

Definition: for ``T = {(ti, pi)}``, the result of query ``Q`` over ``T``
is the normalization of ``{(t, pi) | t ∈ Q(ti)}`` — every answer tree
produced in world ``i`` is reported with that world's probability, and
normalization merges equal answer trees across worlds by summing.

``Q(ti)`` is a *set* of answer trees (one minimal subtree per match,
duplicates collapsed), so an answer's final probability is exactly the
probability that it belongs to the query result.
"""

from __future__ import annotations

from repro.obs.metrics import process_registry
from repro.pworlds.worlds import PossibleWorlds, World
from repro.tpwj.match import DEFAULT_CONFIG, MatchConfig, find_matches
from repro.tpwj.pattern import Pattern
from repro.tpwj.result import distinct_answers

__all__ = ["query_possible_worlds"]


def query_possible_worlds(
    worlds: PossibleWorlds,
    pattern: Pattern,
    config: MatchConfig = DEFAULT_CONFIG,
) -> PossibleWorlds:
    """Evaluate a TPWJ query world-by-world and normalize the answers.

    The result is a :class:`PossibleWorlds` over *answer trees*; its
    total probability is the expected number of distinct answers, not
    necessarily 1 (an answer's probability is its marginal membership
    probability).
    """
    results: list[World] = []
    for world in worlds:
        process_registry.incr("pworlds.query.worlds")
        matches = find_matches(pattern, world.tree, config)
        for answer in distinct_answers(world.tree, matches).values():
            results.append(World(answer, world.probability))
    return PossibleWorlds(results)
