"""Fuzzy data simplification (paper, slide 19 "perspectives").

Updates — deletions especially — grow the fuzzy tree: survivor copies
multiply and conditions accumulate literals.  Simplification rewrites
the document into a smaller one with the *same possible-worlds
semantics* (the property the test suite checks on every rule):

``certain``
    Events with probability 0 or 1 are resolved: a literal that is
    always true is dropped; a node whose condition contains a literal
    that is always false is removed with its subtree.

``impossible``
    A node whose condition, conjoined with its ancestors' conditions,
    is inconsistent can exist in no world; its subtree is removed.

``implied``
    A literal that already appears in an ancestor's condition is
    redundant on a descendant (the descendant only exists in worlds
    where all ancestors exist) and is dropped.

``siblings``
    Two sibling subtrees identical in every respect except that their
    root conditions are ``γ ∧ e`` and ``γ ∧ ¬e`` are merged into one
    subtree with root condition ``γ`` — in every world where ``γ``
    holds exactly one of the pair existed, so the multiset of children
    is preserved.

``gc``
    Events no longer referenced by any condition are dropped from the
    event table.

Rules run in rounds until a fixpoint is reached.  Each rule can be
toggled (the E7 ablation measures their individual contributions).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

from repro.events.condition import Condition
from repro.core.fuzzy_tree import FuzzyNode, FuzzyTree
from repro.trees.algorithms import _fold, _walk
from repro.trees.node import Node

__all__ = ["SimplifyReport", "simplify", "ALL_RULES"]

#: Rule names in application order.
ALL_RULES = ("certain", "impossible", "implied", "siblings", "gc")


@dataclass(slots=True)
class SimplifyReport:
    """Counts of what each simplification rule did."""

    rounds: int = 0
    nodes_before: int = 0
    nodes_after: int = 0
    literals_before: int = 0
    literals_after: int = 0
    removed_certain: int = 0
    removed_impossible: int = 0
    dropped_literals: int = 0
    merged_siblings: int = 0
    collected_events: int = 0
    by_rule: dict = field(default_factory=dict)


def simplify(
    fuzzy: FuzzyTree,
    rules: tuple[str, ...] = ALL_RULES,
    max_rounds: int = 100,
) -> SimplifyReport:
    """Simplify *fuzzy* in place; returns a :class:`SimplifyReport`.

    ``rules`` selects which rewriting rules run (names from
    :data:`ALL_RULES`); unknown names raise ``ValueError``.
    """
    unknown = set(rules) - set(ALL_RULES)
    if unknown:
        raise ValueError(f"unknown simplification rules: {sorted(unknown)}")

    report = SimplifyReport()
    report.nodes_before = fuzzy.size()
    report.literals_before = fuzzy.condition_literal_count()

    changed = True
    while changed and report.rounds < max_rounds:
        report.rounds += 1
        before = astuple(report)
        if "certain" in rules:
            _resolve_certain(fuzzy, report)
        if "impossible" in rules:
            _remove_impossible(fuzzy, report)
        if "implied" in rules:
            _drop_implied(fuzzy, report)
        if "siblings" in rules:
            _merge_siblings(fuzzy, report)
        changed = astuple(report) != before  # a rewrite raised a count
    if "gc" in rules:
        _collect_events(fuzzy, report)

    report.nodes_after = fuzzy.size()
    report.literals_after = fuzzy.condition_literal_count()
    return report


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------


def _resolve_certain(fuzzy: FuzzyTree, report: SimplifyReport) -> None:
    """Resolve probability-0/1 events inside conditions."""
    certain: dict[str, bool] = {}
    for name, probability in fuzzy.events.items():
        if probability == 1.0:
            certain[name] = True
        elif probability == 0.0:
            certain[name] = False
    if not certain:
        return

    def enter(node: FuzzyNode, depth: int) -> bool:  # True: skip the subtree
        decided = [lit for lit in node.condition.literals if lit.event in certain]
        if any(certain[lit.event] != lit.positive for lit in decided):
            node.detach()  # a literal always false: the node is impossible
            report.removed_certain += node.size()
            return True
        if decided:  # every decided literal is always true: redundant
            node.condition = node.condition.without_literals(decided)
            report.dropped_literals += len(decided)
        return False

    _walk(fuzzy.root, enter)


def _remove_impossible(fuzzy: FuzzyTree, report: SimplifyReport) -> None:
    """Remove subtrees whose path condition is inconsistent."""
    path = [frozenset()]  # path[d]: the literals above the depth-d node

    def enter(node: FuzzyNode, depth: int) -> bool:
        del path[depth + 1 :]
        literals = path[depth] | node.condition.literals
        if Condition(literals, allow_inconsistent=True).is_consistent:
            path.append(literals)
            return False
        report.removed_impossible += node.size()
        node.detach()
        return True

    _walk(fuzzy.root, enter)


def _drop_implied(fuzzy: FuzzyTree, report: SimplifyReport) -> None:
    """Drop literals that already appear on an ancestor."""
    path = [frozenset()]  # path[d]: the literals above the depth-d node

    def enter(node: FuzzyNode, depth: int) -> None:
        del path[depth + 1 :]
        redundant = node.condition.literals & path[depth]
        if redundant:
            node.condition = node.condition.without_literals(redundant)
            report.dropped_literals += len(redundant)
        path.append(path[depth] | node.condition.literals)

    _walk(fuzzy.root, enter)


def _merge_siblings(fuzzy: FuzzyTree, report: SimplifyReport) -> None:
    """Merge sibling pairs with complementary conditions ``γ∧e`` / ``γ∧¬e``.

    Siblings group by the canonical form of their subtree without their
    own condition, every node's computed in one bottom-up pass.  Keys
    computed before any merge stay exact: a merge rewrites only the kept
    sibling's own condition, which its key excludes, and the walk merges
    under a node before under any of its descendants.
    """
    keys: dict[int, str] = {}

    def key(node: FuzzyNode, parts) -> str:  # returns the full canonical form
        suffix = f"({','.join(sorted(parts))})" if parts else ""
        keys[id(node)] = Node._encode_self(node) + suffix
        return node._encode_self() + suffix

    def enter(node: FuzzyNode, depth: int) -> None:
        while True:  # one merge at a time, regrouping after each
            groups: dict[str, list[FuzzyNode]] = {}
            for child in node.children:
                groups.setdefault(keys[id(child)], []).append(child)
            pair = next(filter(None, map(_find_complementary_pair, groups.values())), None)
            if pair is None:
                return
            first, second, merged_condition = pair
            first.condition = merged_condition
            second.detach()
            report.merged_siblings += 1

    _fold(fuzzy.root, key)
    _walk(fuzzy.root, enter)


def _find_complementary_pair(
    group: list[FuzzyNode],
) -> tuple[FuzzyNode, FuzzyNode, Condition] | None:
    for i, first in enumerate(group):
        for second in group[i + 1 :]:
            difference = first.condition.literals ^ second.condition.literals
            if len(difference) != 2:
                continue
            a, b = sorted(difference, key=lambda lit: lit.positive)
            if a.event == b.event and a.positive != b.positive:
                shared = first.condition.literals & second.condition.literals
                return first, second, Condition(shared)
    return None


def _collect_events(fuzzy: FuzzyTree, report: SimplifyReport) -> None:
    used = fuzzy.used_events()
    for name in list(fuzzy.events.names()):
        if name not in used:
            fuzzy.events.remove(name)
            report.collected_events += 1
