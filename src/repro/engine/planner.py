"""Planning for TPWJ evaluation: cost-based, or fixed from the toggles.

A :class:`Plan` fixes, ahead of execution, every strategy decision the
one executor (:mod:`repro.engine.executor`) takes:

* the **visit order** of the pattern nodes — any topological order of
  the pattern tree is legal (a node's parent must be bound before the
  node); the planner picks greedily by expected option count, so
  selective nodes (rare labels, value tests, second occurrences of a
  join variable) bind early and cut the backtracking tree high up;
* the **scan operator** — label-index scan versus full document scan
  per pattern node;
* whether the **structural semi-join prune** pays for itself (its cost
  is linear in the candidate sets; on tiny candidate sets the pass
  costs more than the enumeration it saves);
* where **join checks** run — eagerly during enumeration when the
  pattern has join variables, at the end otherwise.

Two planners produce one: :func:`build_plan` chooses all four from
document statistics, :func:`fixed_plan` copies them from a
:class:`~repro.tpwj.match.MatchConfig` (pre-order visit, the caller's
toggles) — what ``find_matches(plan=None)`` / ``planner=False`` run.

Plans are explainable: :meth:`Plan.explain` renders the decisions with
the estimates that drove them, and ``repro explain`` surfaces it on the
command line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.cardinality import (
    axis_selectivity,
    estimate_candidates,
    estimate_enumeration_cost,
    join_selectivity,
)
from repro.engine.stats import TreeStats
from repro.obs.metrics import process_registry
from repro.tpwj.match import MatchConfig
from repro.tpwj.parser import format_pattern
from repro.tpwj.pattern import Pattern, PatternNode

__all__ = ["Plan", "PlanStep", "build_plan", "fixed_plan", "pattern_fingerprint"]

#: Below this estimated total candidate volume the semi-join prepass
#: costs more than the enumeration it could save.
SEMIJOIN_THRESHOLD = 32.0

#: How much of the enumeration a probability-bounded join is expected
#: to skip: branch-and-bound cuts assignments whose upper bound cannot
#: beat the admission threshold, so the expected visited fraction of
#: the backtracking tree is modelled as this constant.
BOUNDED_COST_DISCOUNT = 0.5
#: Under a bounded join the semi-join prepass must clear a higher bar:
#: its full linear pass over the candidate sets is paid up front, while
#: much of the enumeration it would have saved is pruned by the
#: probability bound anyway.
BOUNDED_SEMIJOIN_FACTOR = 2.0


def pattern_fingerprint(pattern: Pattern) -> str:
    """A deterministic key identifying a pattern up to text syntax.

    ``format_pattern`` round-trips through the parser, so two patterns
    with the same fingerprint are structurally identical (same labels,
    axes, value tests, variables, negation, anchoring).
    """
    return format_pattern(pattern)


@dataclass(frozen=True)
class PlanStep:
    """One pattern node in the visit order, with its pricing."""

    node: PatternNode
    scan: str  # "label-index" | "full-scan"
    estimated_candidates: float
    estimated_options: float  # after axis + join selectivity

    def describe(self) -> str:
        label = self.node.label if self.node.label is not None else "*"
        bits = [label]
        if self.node.variable is not None:
            bits.append(f"${self.node.variable}")
        if self.node.value is not None:
            bits.append(f'="{self.node.value}"')
        axis = "//" if self.node.descendant and self.node.parent is not None else ""
        return (
            f"{axis}{' '.join(bits)}  [{self.scan}]  "
            f"est. candidates={self.estimated_candidates:.1f}  "
            f"est. options={self.estimated_options:.2f}"
        )


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
    estimated_cost: float
    baseline_cost: float  # cost of the naive pre-order visit order
    stats_version: int
    fingerprint: str
    reasons: tuple[str, ...] = field(default_factory=tuple)

    @property
    def order(self) -> list[PatternNode]:
        return [step.node for step in self.steps]

    def explain(self) -> str:
        """Multi-line human-readable rendering of the plan."""
        lines = [
            f"plan for {self.fingerprint}",
            f"  stats version: {self.stats_version}",
            f"  estimated cost: {self.estimated_cost:.2f}"
            f"  (naive pre-order: {self.baseline_cost:.2f})",
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
        return (
            f"Plan({self.fingerprint!r}, {len(self.steps)} steps, "
            f"cost={self.estimated_cost:.2f})"
        )


def build_plan(
    pattern: Pattern,
    stats: TreeStats,
    stats_version: int = 0,
    *,
    bounded: bool = False,
) -> Plan:
    """Choose a visit order and operator set for *pattern* given *stats*.

    *bounded* prices the plan for probability-bounded enumeration
    (top-k / ``min_probability``): the branch-and-bound prune inside
    the join is expected to skip a large share of the backtracking
    tree, so enumeration cost is discounted and the semi-join prepass —
    whose up-front pass competes with savings the prune captures anyway
    — must clear a higher candidate-volume bar.  Bounded plans carry a
    distinct fingerprint so the plan cache never serves one shape for
    the other.
    """
    process_registry.incr("engine.plans_built")
    join_vars = set(pattern.join_variables())
    reasons: list[str] = []

    # ------------------------------------------------------------------
    # Visit order: greedy over the frontier (root, then children of
    # already-placed nodes), cheapest expected option count first.
    # ------------------------------------------------------------------
    order: list[PatternNode] = [pattern.root]
    frontier = [c for c in pattern.root.children if not c.negated]
    bound_vars = {pattern.root.variable} if pattern.root.variable in join_vars else set()

    def expected_options(node: PatternNode) -> float:
        options = estimate_candidates(node, stats, join_vars)
        options *= axis_selectivity(node, stats)
        if node.variable in join_vars and node.variable in bound_vars:
            options *= join_selectivity(node, stats)
        return options

    while frontier:
        frontier.sort(key=expected_options)
        chosen = frontier.pop(0)
        order.append(chosen)
        if chosen.variable in join_vars:
            bound_vars.add(chosen.variable)
        frontier.extend(c for c in chosen.children if not c.negated)

    estimated_cost = estimate_enumeration_cost(
        pattern, order, stats, pattern.anchored
    )
    baseline_order = pattern.positive_nodes()
    baseline_cost = estimate_enumeration_cost(
        pattern, baseline_order, stats, pattern.anchored
    )
    if order != baseline_order:
        reasons.append(
            f"reordered visit sequence: est. cost {estimated_cost:.2f} "
            f"vs pre-order {baseline_cost:.2f}"
        )

    # ------------------------------------------------------------------
    # Operator choices.
    # ------------------------------------------------------------------
    labelled = [n for n in order if n.label is not None]
    use_label_index = bool(labelled)
    if use_label_index:
        reasons.append(
            f"label-index scan: {len(labelled)}/{len(order)} pattern nodes "
            "carry a label test"
        )
    else:
        reasons.append("full scan: every pattern node is a wildcard")

    total_candidates = sum(
        estimate_candidates(node, stats, join_vars) for node in order
    )
    semijoin_threshold = SEMIJOIN_THRESHOLD * (
        BOUNDED_SEMIJOIN_FACTOR if bounded else 1.0
    )
    use_semijoin_pruning = (
        len(order) > 1 and total_candidates >= semijoin_threshold
    )
    if use_semijoin_pruning:
        reasons.append(
            f"semi-join prune: est. candidate volume {total_candidates:.0f} "
            f">= threshold {semijoin_threshold:.0f}"
        )
    elif len(order) <= 1:
        reasons.append("no semi-join prune: single pattern node")
    else:
        reasons.append(
            f"no semi-join prune: est. candidate volume {total_candidates:.0f} "
            f"below threshold {semijoin_threshold:.0f}"
        )
    if bounded:
        estimated_cost *= BOUNDED_COST_DISCOUNT
        baseline_cost *= BOUNDED_COST_DISCOUNT
        reasons.append(
            "bounded enumeration: probability branch-and-bound prunes the "
            f"join (cost x{BOUNDED_COST_DISCOUNT}, semi-join threshold "
            f"x{BOUNDED_SEMIJOIN_FACTOR:.0f})"
        )

    early_join_check = bool(join_vars)
    if join_vars:
        names = ", ".join(f"${v}" for v in sorted(join_vars))
        reasons.append(f"early join check: join variables {names}")
    else:
        reasons.append("no join variables: join check elided")

    steps = []
    seen_vars: set[str] = set()
    for node in order:
        candidates = estimate_candidates(node, stats, join_vars)
        process_registry.incr("engine.estimated_candidates", candidates)
        options = candidates * axis_selectivity(node, stats)
        if node.variable in join_vars:
            if node.variable in seen_vars:
                options *= join_selectivity(node, stats)
            seen_vars.add(node.variable)
        scan = (
            "label-index"
            if use_label_index and node.label is not None
            else "full-scan"
        )
        steps.append(
            PlanStep(
                node=node,
                scan=scan,
                estimated_candidates=candidates,
                estimated_options=options,
            )
        )

    return Plan(
        pattern=pattern,
        steps=tuple(steps),
        use_label_index=use_label_index,
        use_semijoin_pruning=use_semijoin_pruning,
        early_join_check=early_join_check,
        estimated_cost=estimated_cost,
        baseline_cost=baseline_cost,
        stats_version=stats_version,
        fingerprint=pattern_fingerprint(pattern)
        + (" [bounded]" if bounded else ""),
        reasons=tuple(reasons),
    )


def fixed_plan(pattern: Pattern, config: MatchConfig) -> Plan:
    """The plan a :class:`~repro.tpwj.match.MatchConfig` spells out.

    Declaration pre-order visit (so matches come out in document order,
    the order ``max_matches`` truncation — hence WAL replay — depends
    on) and the operators named by *config*'s three strategy toggles.
    Nothing is estimated or formatted: Monte-Carlo builds one of these
    per sampled world, every update one per transaction.
    """
    indexed = config.use_label_index
    return Plan(
        pattern=pattern,
        steps=tuple(
            PlanStep(
                node,
                "label-index" if indexed and node.label is not None else "full-scan",
                0.0,
                0.0,
            )
            for node in pattern.positive_nodes()
        ),
        use_label_index=indexed,
        use_semijoin_pruning=config.use_semijoin_pruning,
        early_join_check=config.early_join_check,
        estimated_cost=0.0,
        baseline_cost=0.0,
        stats_version=0,
        fingerprint="[fixed pre-order]",
    )
