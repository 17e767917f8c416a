"""Planning for TPWJ evaluation: from the walk's exact counts, or fixed.

A :class:`Plan` fixes, ahead of execution, every strategy decision the
one executor (:mod:`repro.engine.executor`) takes:

* the **visit order** of the pattern nodes — any topological order of
  the pattern tree is legal (a node's parent must be bound before the
  node); the planner picks greedily by the number of options a node
  has under one bound parent, so selective nodes (rare labels, value
  tests, second occurrences of a join variable) bind early and cut the
  backtracking tree high up;
* the **scan operator** — label-index scan versus full document scan
  per pattern node;
* whether the **structural semi-join prune** pays for itself (its cost
  is linear in the candidate lists; on tiny lists the pass costs more
  than the enumeration it saves);
* where **join checks** run — eagerly during enumeration when the
  pattern has join variables, at the end otherwise.

Two planners produce one.  :func:`plan_prepared` chooses all four from
the exact candidate lists a document walk prepared for the pattern
(:func:`build_plan` runs it on a fresh walk); :func:`fixed_plan` copies
them from a :class:`~repro.tpwj.match.MatchConfig` (pre-order visit,
the caller's toggles) — what ``find_matches(plan=None)`` /
``planner=False`` run.

Plans are explainable: :meth:`Plan.explain` renders the decisions with
the counts that drove them, and ``repro explain`` surfaces it on the
command line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import process_registry
from repro.tpwj.match import MatchConfig
from repro.tpwj.parser import format_pattern
from repro.tpwj.pattern import Pattern, PatternNode

__all__ = ["Plan", "PlanStep", "build_plan", "fixed_plan", "pattern_fingerprint"]

#: Below this total candidate volume the semi-join prepass costs more
#: than the enumeration it could save.
SEMIJOIN_THRESHOLD = 32


def pattern_fingerprint(pattern: Pattern) -> str:
    """A deterministic key identifying a pattern up to text syntax.

    ``format_pattern`` round-trips through the parser, so two patterns
    with the same fingerprint are structurally identical (same labels,
    axes, value tests, variables, negation, anchoring).
    """
    return format_pattern(pattern)


@dataclass(frozen=True)
class PlanStep:
    """One pattern node in the visit order, with the counts that placed it.

    *candidates* is the length of the node's candidate list (None: not
    scanned, because an earlier list came out empty); *options* is the
    average number of candidates under one candidate of the node's
    parent, divided by the join variable's distinct values when the
    variable is bound earlier (None for fixed plans).
    """

    node: PatternNode
    scan: str  # "label-index" | "full-scan"
    candidates: int | None = None
    options: float | None = None

    def describe(self) -> str:
        label = self.node.label if self.node.label is not None else "*"
        bits = [label]
        if self.node.variable is not None:
            bits.append(f"${self.node.variable}")
        if self.node.value is not None:
            bits.append(f'="{self.node.value}"')
        axis = "//" if self.node.descendant and self.node.parent is not None else ""
        text = f"{axis}{' '.join(bits)}  [{self.scan}]"
        if self.candidates is None:
            return text + "  not scanned"
        text += f"  candidates={self.candidates}"
        if self.options is not None:
            text += f"  options={self.options:.2f}"
        return text


@dataclass(frozen=True)
class Plan:
    """An executable, explainable evaluation plan for one pattern.

    The plan owns the *strategy* decisions; runtime semantics
    (``max_matches``, ``honor_negation``) stay with the
    :class:`~repro.tpwj.match.MatchConfig` supplied at execution time.
    """

    pattern: Pattern
    steps: tuple[PlanStep, ...]
    use_label_index: bool
    use_semijoin_pruning: bool
    early_join_check: bool
    fingerprint: str
    reasons: tuple[str, ...] = field(default_factory=tuple)

    @property
    def order(self) -> list[PatternNode]:
        return [step.node for step in self.steps]

    def explain(self) -> str:
        """Multi-line human-readable rendering of the plan."""
        lines = [
            f"plan for {self.fingerprint}",
            "  operators:",
            f"    semi-join prune: {'on' if self.use_semijoin_pruning else 'off'}",
            f"    join check: {'early' if self.early_join_check else 'final'}",
            "  visit order:",
        ]
        for position, step in enumerate(self.steps):
            lines.append(f"    {position + 1}. {step.describe()}")
        if self.reasons:
            lines.append("  decisions:")
            for reason in self.reasons:
                lines.append(f"    - {reason}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Plan({self.fingerprint!r}, {len(self.steps)} steps)"


def build_plan(pattern: Pattern, root) -> Plan:
    """The plan :func:`plan_prepared` chooses for *pattern* on a fresh
    walk of the tree at *root*."""
    # Imported here: the executor builds on this module.
    from repro.engine.executor import _Intervals, _planned

    return _planned(pattern, root, _Intervals(root)).plan


def semijoin_pays(sizes: list[int]) -> bool:
    """Whether the semi-join prepass pays on candidate lists of *sizes*:
    more than one list, and a total volume of at least
    :data:`SEMIJOIN_THRESHOLD`."""
    return len(sizes) > 1 and sum(sizes) >= SEMIJOIN_THRESHOLD


def plan_prepared(
    pattern: Pattern, prepared, walk, sizes: list[int], semijoin: bool
) -> Plan:
    """Choose the visit order and operators for *pattern* from its exact
    candidate lists, *prepared* on *walk*.

    *sizes* are the list lengths the *semijoin* decision was taken on
    (scan, local and anchored filters applied, see
    :func:`semijoin_pays`); *prepared* holds the lists the join will
    read, pruned by the semi-join when it paid.  For each node the greedy order reads the
    average number of its candidates under one candidate of its parent
    (see :func:`_per_parent`) and divides it by the distinct values of
    its join variable once that variable is bound.
    """
    process_registry.incr("engine.plans_built")
    join_vars = pattern.join_variables()
    positive = pattern.positive_nodes()
    candidates = prepared.candidates
    reasons: list[str] = []

    if candidates is None:
        # A list came out empty: there is nothing to join, in any order.
        order = positive
        options: dict[PatternNode, float] = {}
        reasons.append("no match: a candidate list came out empty")
    else:
        options = {
            node: _per_parent(node, prepared, walk) for node in positive[1:]
        }
        distinct = {
            node: len({n.value for n in candidates[node]})
            for node in positive
            if node.variable in join_vars
        }
        bound = {pattern.root.variable} & join_vars.keys()

        def expected(node: PatternNode) -> float:
            if node.variable in bound:
                return options[node] / distinct[node]
            return options[node]

        # Greedy over the frontier (root, then children of placed nodes),
        # fewest expected options first; ties keep declaration order.
        order = [pattern.root]
        frontier = [c for c in pattern.root.children if not c.negated]
        while frontier:
            frontier.sort(key=expected)
            chosen = frontier.pop(0)
            options[chosen] = expected(chosen)
            order.append(chosen)
            if chosen.variable in join_vars:
                bound.add(chosen.variable)
            frontier.extend(c for c in chosen.children if not c.negated)
        if order != positive:
            reasons.append(
                "reordered visit sequence: fewest options per bound parent first"
            )

    use_label_index = any(node.label is not None for node in positive)
    if use_label_index:
        labelled = sum(node.label is not None for node in positive)
        reasons.append(
            f"label-index scan: {labelled}/{len(positive)} pattern nodes "
            "carry a label test"
        )
    else:
        reasons.append("full scan: every pattern node is a wildcard")

    volume = sum(sizes)
    if semijoin:
        reasons.append(
            f"semi-join prune: candidate volume {volume} >= threshold "
            f"{SEMIJOIN_THRESHOLD} ({prepared.pruned or 0} pruned)"
        )
    elif len(positive) <= 1:
        reasons.append("no semi-join prune: single pattern node")
    else:
        reasons.append(
            f"no semi-join prune: candidate volume {volume} below threshold "
            f"{SEMIJOIN_THRESHOLD}"
        )

    if join_vars:
        names = ", ".join(f"${v}" for v in sorted(join_vars))
        reasons.append(f"early join check: join variables {names}")
    else:
        reasons.append("no join variables: join check elided")

    counted = dict(zip(positive, sizes))
    steps = tuple(
        PlanStep(
            node,
            "label-index" if use_label_index and node.label is not None else "full-scan",
            len(candidates[node]) if candidates is not None else counted.get(node),
            options.get(node),
        )
        for node in order
    )
    return Plan(
        pattern=pattern,
        steps=steps,
        use_label_index=use_label_index,
        use_semijoin_pruning=semijoin,
        early_join_check=bool(join_vars),
        fingerprint=pattern_fingerprint(pattern),
        reasons=tuple(reasons),
    )


def _per_parent(node: PatternNode, prepared, walk) -> float:
    """The average number of *node*'s candidates under one candidate of
    its parent: pre-order ranges (the join's own) for a descendant edge,
    a count of the candidates whose parent is listed for a child edge."""
    parents = prepared.candidates[node.parent]
    if node.descendant:
        positions = prepared.positions_of(node, walk)
        under = 0
        for parent in parents:
            lo, hi = walk.descendant_range(parent, positions)
            under += hi - lo
    else:
        listed = {id(parent) for parent in parents}
        under = sum(id(c.parent) in listed for c in prepared.candidates[node])
    return under / len(parents)


def fixed_plan(pattern: Pattern, config: MatchConfig) -> Plan:
    """The plan a :class:`~repro.tpwj.match.MatchConfig` spells out.

    Declaration pre-order visit (so matches come out in document order,
    the order ``max_matches`` truncation — hence WAL replay — depends
    on) and the operators named by *config*'s three strategy toggles.
    Nothing is counted or formatted: Monte-Carlo builds one of these
    per sampled world, every update one per transaction.
    """
    indexed = config.use_label_index
    return Plan(
        pattern=pattern,
        steps=tuple(
            PlanStep(node, "label-index" if indexed and node.label is not None else "full-scan")
            for node in pattern.positive_nodes()
        ),
        use_label_index=indexed,
        use_semijoin_pruning=config.use_semijoin_pruning,
        early_join_check=config.early_join_check,
        fingerprint="[fixed pre-order]",
    )
