"""Probabilistic updates directly on fuzzy trees (paper, slides 14–15).

The transaction's confidence ``c`` is materialised as a **fresh event**
``w`` with probability ``c`` (slide 15's ``w3``).  With the matches of
the transaction's query computed on the underlying tree — each match
``m`` carrying its existence condition ``γm`` (conjunction over the
mapped nodes and their ancestors) — the two elementary operations are:

* **Insertion** (slide 14: "no problem"): for every match, a copy of
  the subtree is attached under the anchor with root condition
  ``γm ∧ w`` — "conditions required for the query to match added to
  inserted nodes".

* **Deletion** (slide 14: "more problematic"): a target node ``n``
  survives only when *no* deleting match fires, i.e. under
  ``¬(⋁ γm ∧ w)``.  Conditions are conjunctions, so the complement is
  rewritten as a disjoint union of conjunctions
  (:func:`repro.events.dnf.complement_as_disjoint_conditions`) and
  ``n`` is replaced by one *survivor copy* per disjunct.  This is the
  exponential growth the paper warns about, and it reproduces slide 15
  exactly: replacing ``C`` (condition ``w2``) when ``B`` (``w1``) is
  present, with confidence 0.9 (event ``w3``), yields survivor copies
  ``C[¬w1, w2]`` and ``C[w1, w2, ¬w3]`` plus the inserted
  ``D[w1, w2, w3]``.

Operation order matches the deterministic ``τ`` of
:func:`repro.updates.transaction.apply_deterministic`: insertions
first, then deletions deepest-target-first — so the commuting diagram
of slide 14 closes (benchmark E3, property tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import UpdateError
from repro.events.condition import Condition
from repro.events.dnf import complement_as_disjoint_conditions
from repro.events.literal import Literal
from repro.core.fuzzy_tree import FuzzyNode, FuzzyTree
from repro.core.query import match_conditions
from repro.tpwj.match import DEFAULT_CONFIG, MatchConfig

__all__ = ["UpdateReport", "apply_update"]


@dataclass(slots=True)
class UpdateReport:
    """What an update application did (for logs, tests and benchmarks)."""

    matches: int = 0
    consistent_matches: int = 0
    confidence_event: str | None = None
    inserted_subtrees: int = 0
    inserted_nodes: int = 0
    skipped_insertions: int = 0
    deletion_targets: int = 0
    survivor_copies: int = 0
    survivor_nodes: int = 0
    applied: bool = False
    notes: list[str] = field(default_factory=list)


def apply_update(
    fuzzy: FuzzyTree,
    transaction,
    config: MatchConfig = DEFAULT_CONFIG,
    walk=None,
) -> UpdateReport:
    """Apply a probabilistic update transaction to *fuzzy*, in place.

    Returns an :class:`UpdateReport`.  When the query has no (possible)
    match, or the confidence is 0, the document is left untouched —
    mirroring the possible-worlds semantics where unselected worlds keep
    their probability and a 0-confidence update never applies.

    Targets are located under the fixed pre-order plan *config* spells
    out, so matches — hence inserted-sibling order, survivor-copy order
    and the confidence event minted — are deterministic.  By default
    the plan runs on a throw-away document walk.  *walk*, when given, is
    the writer's handle on the walk of ``fuzzy.root`` (see
    :class:`~repro.engine.executor._WriterWalk`): the plan runs on it,
    and every subtree attached or detached is reported to it as it
    happens, so the same walk serves the next locate and the next query,
    and the handle's ordered record of those subtrees is what the
    engine's commit hook patches its per-node indexes from.
    """
    # Imported here: the engine builds on the core package.
    from repro.engine.executor import iter_plan
    from repro.engine.planner import fixed_plan
    from repro.updates.transaction import UpdateTransaction

    if not isinstance(transaction, UpdateTransaction):
        raise UpdateError(
            f"expected UpdateTransaction, got {type(transaction).__name__}"
        )

    report = UpdateReport()
    structural_config = (
        replace(config, honor_negation=False)
        if transaction.query.has_negation()
        else config
    )
    plan = fixed_plan(transaction.query, structural_config)
    intervals = None if walk is None else walk.for_plan(plan)
    matches = list(
        iter_plan(plan, fuzzy.root, structural_config, intervals=intervals)
    )
    report.matches = len(matches)

    # A match may hold under several disjoint conjunctive conditions
    # (exactly one with plain patterns; several when the query carries
    # negated subpatterns).  Downstream, each (match, piece) behaves
    # like an independent conjunctive match: in every world at most one
    # piece per match holds.
    match_infos: list[tuple] = []
    consistent = 0
    for match in matches:
        pieces = match_conditions(match)
        if not pieces:
            continue  # the match can fire in no world
        consistent += 1
        for piece in pieces:
            match_infos.append((match, piece))
    report.consistent_matches = consistent

    if not match_infos:
        report.notes.append("no possible match; document unchanged")
        return report
    if transaction.confidence == 0.0:
        report.notes.append("confidence 0; document unchanged")
        return report

    # All-or-nothing: reject before minting the confidence event or
    # touching the tree, so a refused transaction leaves every world as
    # it was.
    for op in transaction.deletions:
        for match, _ in match_infos:
            if match.node_for(op.target) is fuzzy.root:
                raise UpdateError("cannot delete the document root")

    confidence_literal: Literal | None = None
    if transaction.confidence < 1.0:
        name = fuzzy.events.fresh(transaction.confidence)
        confidence_literal = Literal(name, True)
        report.confidence_event = name

    _apply_insertions(transaction, match_infos, confidence_literal, report, walk)
    _apply_deletions(transaction, match_infos, confidence_literal, report, walk)
    report.applied = True
    return report


def _with_confidence(condition: Condition, literal: Literal | None) -> Condition:
    return condition if literal is None else condition.with_literal(literal)


def _apply_insertions(
    transaction,
    match_infos: list[tuple],
    confidence_literal: Literal | None,
    report: UpdateReport,
    walk=None,
) -> None:
    for match, gamma in match_infos:
        for op in transaction.insertions:
            anchor = match.node_for(op.anchor)
            assert isinstance(anchor, FuzzyNode)
            if anchor.value is not None:
                # No mixed content: inserting under a valued leaf is a
                # defined no-op, mirroring apply_deterministic.
                report.skipped_insertions += 1
                continue
            condition = _with_confidence(gamma, confidence_literal)
            subtree = FuzzyNode.from_plain(op.subtree, condition=condition)
            anchor.add_child(subtree)
            if walk is not None:
                walk.attach(subtree)
            report.inserted_subtrees += 1
            report.inserted_nodes += subtree.size()


def _apply_deletions(
    transaction,
    match_infos: list[tuple],
    confidence_literal: Literal | None,
    report: UpdateReport,
    walk=None,
) -> None:
    # Group full deletion conditions (γm ∧ w) per target node.
    grouped: dict[int, tuple[FuzzyNode, list[Condition]]] = {}
    order: list[FuzzyNode] = []
    for match, gamma in match_infos:
        for op in transaction.deletions:
            target = match.node_for(op.target)
            assert isinstance(target, FuzzyNode)
            full = _with_confidence(gamma, confidence_literal)
            entry = grouped.get(id(target))
            if entry is None:
                grouped[id(target)] = (target, [full])
                order.append(target)
            else:
                entry[1].append(full)

    # Deepest targets first: a target nested inside another is split
    # before its ancestor clones the whole (already split) subtree.
    order.sort(key=lambda node: node.depth(), reverse=True)

    for target in order:
        _, deletion_conditions = grouped[id(target)]
        report.deletion_targets += 1
        parent = target.parent
        assert parent is not None  # apply_update rejected root deletions
        pieces = complement_as_disjoint_conditions(deletion_conditions)
        target.detach()
        if walk is not None:
            walk.detach(target, parent)
        for piece in pieces:
            combined = Condition(
                target.condition.literals | piece.literals, allow_inconsistent=True
            )
            if not combined.is_consistent:
                continue  # this survivor can exist in no world
            copy = target.clone()
            copy.condition = combined
            parent.add_child(copy)
            if walk is not None:
                walk.attach(copy)
            report.survivor_copies += 1
            report.survivor_nodes += copy.size()
