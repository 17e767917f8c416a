"""Answer construction for TPWJ queries.

Slide 6: "Result: minimal subtree containing all the nodes mapped by
the query".  :func:`answer_tree` materialises that subtree for one
match; :func:`distinct_answers` collapses the matches of one document
into the *set* of answer trees (unordered-tree equality), which is the
per-world query result ``Q(t)`` used by the possible-worlds semantics.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.tpwj.match import Match
from repro.trees.algorithms import minimal_subtree
from repro.trees.node import Node

__all__ = ["answer_tree", "distinct_answers"]


def answer_tree(root: Node, match: Match) -> Node:
    """The minimal subtree of *root* containing the match's image nodes.

    The result is a fresh plain tree (conditions of fuzzy nodes, if any,
    are not copied: answers are ordinary data trees).
    """
    # Raw images: a repeated node's walk stops on its first step.
    return minimal_subtree(root, match.iter_images())


def distinct_answers(root: Node, matches: Iterable[Match]) -> dict[str, Node]:
    """Map canonical form -> answer tree over all matches (set semantics).

    Within a single document several matches may induce the same minimal
    subtree; ``Q(t)`` is a set, so duplicates collapse here.
    """
    answers: dict[str, Node] = {}
    for match in matches:
        answer = answer_tree(root, match)
        answers.setdefault(answer.canonical(), answer)
    return answers
