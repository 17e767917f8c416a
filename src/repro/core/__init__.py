"""The fuzzy tree model — the paper's primary contribution (S6).

* :class:`FuzzyTree` / :class:`FuzzyNode` — the representation (slide 12);
* :func:`to_possible_worlds` / :func:`from_possible_worlds` — semantics
  and the expressiveness theorem (slide 12);
* :func:`query_fuzzy_tree` — direct query evaluation (slide 13);
* :func:`apply_update` — direct update application (slides 14–15);
* :func:`simplify` — fuzzy data simplification (slide 19);
* :func:`estimate_query` — Monte-Carlo approximation.
"""

from repro.core.aggregates import (
    expected_answers,
    expected_matches,
    match_count_distribution,
    probability_at_least,
)
from repro.core.fuzzy_tree import FuzzyNode, FuzzyTree
from repro.core.montecarlo import AnswerEstimate, estimate_answers, estimate_query
from repro.core.query import (
    FuzzyAnswer,
    Row,
    group_rows,
    iter_bounded_rows,
    iter_query_rows,
    match_condition,
    match_conditions,
    query_fuzzy_tree,
    topk_rows,
)
from repro.core.semantics import from_possible_worlds, to_possible_worlds
from repro.core.simplify import ALL_RULES, SimplifyReport, simplify
from repro.core.update import UpdateReport, apply_update

__all__ = [
    "FuzzyNode",
    "FuzzyTree",
    "to_possible_worlds",
    "from_possible_worlds",
    "FuzzyAnswer",
    "Row",
    "query_fuzzy_tree",
    "iter_query_rows",
    "iter_bounded_rows",
    "topk_rows",
    "group_rows",
    "match_condition",
    "UpdateReport",
    "apply_update",
    "SimplifyReport",
    "simplify",
    "ALL_RULES",
    "AnswerEstimate",
    "estimate_answers",
    "estimate_query",
    "match_conditions",
    "expected_matches",
    "expected_answers",
    "match_count_distribution",
    "probability_at_least",
]
