"""Aggregate queries over fuzzy trees.

Beyond returning each answer's probability, users of a probabilistic
warehouse routinely ask *how many* results to expect: "how many emails
do we believe this person has?", "what is the chance at least two
duplicates survive?".  This module provides exact aggregates over the
matches of a TPWJ query:

* :func:`expected_matches` — the expected number of matches, by
  linearity of expectation (no world enumeration, one DNF probability
  per match);
* :func:`expected_answers` — the expected number of *distinct* answer
  trees (sum of the answers' probabilities);
* :func:`match_count_distribution` — the full distribution of the
  number of matches, by enumeration over the events the matches
  involve (guarded like :func:`repro.core.semantics.to_possible_worlds`);
* :func:`probability_at_least` — tail probability of the count.

All aggregates commute with the possible-worlds semantics (a world's
match count is exactly the number of underlying matches whose
conditions it satisfies) — validated by the test suite.
"""

from __future__ import annotations

from repro.core.fuzzy_tree import FuzzyTree
from repro.core.query import _consistent_matches, query_fuzzy_tree
from repro.core.semantics import MAX_ENUMERATED_EVENTS
from repro.errors import ReproError
from repro.events.assignment import assignment_weight, enumerate_assignments
from repro.events.condition import Condition
from repro.events.dnf import dnf_probability
from repro.tpwj.match import DEFAULT_CONFIG, MatchConfig
from repro.tpwj.pattern import Pattern

__all__ = [
    "expected_matches",
    "expected_answers",
    "match_count_distribution",
    "probability_at_least",
]


def _match_pieces(
    fuzzy: FuzzyTree, pattern: Pattern, config: MatchConfig
) -> list[list[Condition]]:
    """Per-match disjoint condition pieces (inconsistent matches dropped)."""
    return [
        conditions
        for _match, conditions in _consistent_matches(fuzzy, pattern, config, None)
    ]


def expected_matches(
    fuzzy: FuzzyTree,
    pattern: Pattern,
    config: MatchConfig = DEFAULT_CONFIG,
) -> float:
    """Expected number of matches of *pattern* (linearity of expectation)."""
    return sum(
        dnf_probability(conditions, fuzzy.events)
        for conditions in _match_pieces(fuzzy, pattern, config)
    )


def expected_answers(
    fuzzy: FuzzyTree,
    pattern: Pattern,
    config: MatchConfig = DEFAULT_CONFIG,
) -> float:
    """Expected number of distinct answer trees in the query result."""
    return sum(
        answer.probability for answer in query_fuzzy_tree(fuzzy, pattern, config)
    )


def match_count_distribution(
    fuzzy: FuzzyTree,
    pattern: Pattern,
    config: MatchConfig = DEFAULT_CONFIG,
) -> dict[int, float]:
    """Exact distribution of the number of matches.

    Enumerates the truth assignments of the events the matches mention
    (not the whole table); exponential in that event count, guarded at
    ``2^MAX_ENUMERATED_EVENTS``.
    """
    per_match = _match_pieces(fuzzy, pattern, config)
    involved: set[str] = set()
    for conditions in per_match:
        for condition in conditions:
            involved |= condition.events()
    if len(involved) > MAX_ENUMERATED_EVENTS:
        raise ReproError(
            f"refusing to enumerate 2^{len(involved)} assignments "
            f"(limit is 2^{MAX_ENUMERATED_EVENTS})"
        )
    distribution: dict[int, float] = {}
    for assignment in enumerate_assignments(sorted(involved)):
        weight = assignment_weight(assignment, fuzzy.events)
        if weight == 0.0:
            continue
        count = sum(
            1
            for conditions in per_match
            if any(condition.satisfied_by(assignment) for condition in conditions)
        )
        distribution[count] = distribution.get(count, 0.0) + weight
    return dict(sorted(distribution.items()))


def probability_at_least(
    fuzzy: FuzzyTree,
    pattern: Pattern,
    k: int,
    config: MatchConfig = DEFAULT_CONFIG,
) -> float:
    """P(the query has at least *k* matches)."""
    if k <= 0:
        return 1.0
    distribution = match_count_distribution(fuzzy, pattern, config)
    return sum(weight for count, weight in distribution.items() if count >= k)
