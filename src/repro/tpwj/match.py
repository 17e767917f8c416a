"""TPWJ matching: find all embeddings of a pattern in a data tree.

A *match* is a homomorphism from pattern nodes to data nodes that

* respects labels (wildcard ``*`` matches any label),
* respects value tests,
* respects edges (child edges map to parent/child pairs, descendant
  edges to proper ancestor/descendant pairs),
* satisfies the value joins (all nodes sharing a join variable map to
  leaves carrying equal values).

This module owns the definition's vocabulary — :class:`Match`,
:class:`MatchConfig`, the :func:`find_matches` entry point — and
:func:`find_embeddings`, the small direct search used for negated
subpatterns.  Enumeration itself lives in one place, the operators of
:mod:`repro.engine.executor`; :func:`find_matches` only decides which
:class:`~repro.engine.planner.Plan` they run.  The three optimizations
the plan selects — each individually toggleable through
:class:`MatchConfig` for the E9 ablation:

1. **label-index candidate pre-filtering**: candidates are drawn from a
   label -> nodes index instead of scanning the document per pattern
   node;
2. **bottom-up semi-join pruning**: a candidate survives only if each
   pattern child has at least one surviving candidate in the right
   axis relation, computed leaf-up before enumeration;
3. **early join checking**: join-variable bindings are checked as they
   are assigned instead of after a full mapping is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QueryError
from repro.tpwj.pattern import Pattern, PatternNode
from repro.trees.node import Node

__all__ = ["MatchConfig", "Match", "find_matches", "find_embeddings"]


def find_embeddings(
    pattern_node: PatternNode, anchor: Node
) -> list[dict[PatternNode, Node]]:
    """All embeddings of the subtree at *pattern_node* below *anchor*.

    *pattern_node* maps under *anchor* through its declared axis (child
    or descendant edge); its subtree embeds homomorphically below that.
    Used for negated subpatterns: the plain-tree matcher needs "does an
    embedding exist?", the fuzzy evaluator needs every embedding's image
    to build the violation conditions.  Negated subpatterns are small,
    so this is a direct recursive search without index structures.
    """

    def local_ok(p: PatternNode, d: Node) -> bool:
        if p.label is not None and p.label != d.label:
            return False
        if p.value is not None and d.value != p.value:
            return False
        if p.children and d.is_leaf:
            return False
        return True

    def axis_candidates(p: PatternNode, base: Node) -> list[Node]:
        if p.descendant:
            return [n for n in base.iter() if n is not base]
        return list(base.children)

    def embed(p: PatternNode, d: Node) -> list[dict[PatternNode, Node]]:
        mappings: list[dict[PatternNode, Node]] = [{p: d}]
        for pattern_child in p.children:
            extensions: list[dict[PatternNode, Node]] = []
            for candidate in axis_candidates(pattern_child, d):
                if local_ok(pattern_child, candidate):
                    extensions.extend(embed(pattern_child, candidate))
            if not extensions:
                return []
            mappings = [
                {**mapping, **extension}
                for mapping in mappings
                for extension in extensions
            ]
        return mappings

    results: list[dict[PatternNode, Node]] = []
    for candidate in axis_candidates(pattern_node, anchor):
        if local_ok(pattern_node, candidate):
            results.extend(embed(pattern_node, candidate))
    return results


@dataclass(frozen=True, slots=True)
class MatchConfig:
    """Matcher optimization toggles (all on by default).

    ``honor_negation`` controls whether negated subpatterns are checked
    structurally (the plain-tree semantics).  The fuzzy evaluator turns
    it off and accounts for negated subpatterns through event
    conditions instead (their presence is world-dependent).
    ``max_matches`` caps the enumeration: ``None`` (no cap) or a
    non-negative ``int`` — ``0`` yields no match.
    """

    use_label_index: bool = True
    use_semijoin_pruning: bool = True
    early_join_check: bool = True
    max_matches: int | None = None
    honor_negation: bool = True

    def __post_init__(self) -> None:
        # Checked here, not at the cap: configs arrive from WAL payloads
        # and wire options, and a bad one must be a typed error.
        cap = self.max_matches
        if cap is not None and not (isinstance(cap, int) and cap >= 0):
            raise QueryError(
                f"max_matches must be None or a non-negative int, got {cap!r}"
            )


#: Default configuration shared by all callers that do not customise.
DEFAULT_CONFIG = MatchConfig()


class Match:
    """One embedding of a pattern into a data tree.  Under a plan cached
    for another pattern object, ``_keys`` maps *pattern*'s nodes onto the
    mapping's (:func:`~repro.engine.executor.iter_rekeyed`)."""

    __slots__ = ("pattern", "_mapping", "_keys")

    def __init__(self, pattern: Pattern, mapping: dict[PatternNode, Node]) -> None:
        self.pattern = pattern
        self._mapping = mapping
        self._keys: dict[PatternNode, PatternNode] | None = None  # shared per query

    @property
    def mapping(self) -> dict[PatternNode, Node]:
        mapping, keys = self._mapping, self._keys
        return dict(mapping) if keys is None else {n: mapping[k] for n, k in keys.items()}

    def __getitem__(self, pattern_node: PatternNode) -> Node:
        keys = self._keys
        return self._mapping[pattern_node if keys is None else keys[pattern_node]]

    def nodes(self) -> list[Node]:
        """The image data nodes (with duplicates removed, identity-based)."""
        return list({id(node): node for node in self.mapping.values()}.values())

    def iter_images(self):
        """The image data nodes, raw (possibly with duplicates).

        The zero-copy counterpart of :meth:`nodes` for consumers whose
        aggregation is idempotent anyway (the probability pipeline's
        closed-condition unions).
        """
        return self._mapping.values()

    def node_for(self, variable: str) -> Node:
        """The data node mapped by the pattern node carrying *variable*."""
        return self[self.pattern.node_for_variable(variable)]

    def binding(self, variable: str) -> str | None:
        """The value bound by *variable* (None when the node has no value)."""
        nodes = self.pattern.variables().get(variable)
        if not nodes:
            raise QueryError(f"no pattern node carries variable ${variable}")
        return self[nodes[0]].value

    def bindings(self) -> dict[str, str | None]:
        return {var: self.binding(var) for var in self.pattern.variables()}

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{p.label or '*'}->{d.label}" for p, d in self.mapping.items()
        )
        return f"Match({pairs})"


def find_matches(
    pattern: Pattern,
    root: Node,
    config: MatchConfig = DEFAULT_CONFIG,
    *,
    plan=None,
) -> list[Match]:
    """All matches of *pattern* in the tree rooted at *root*.

    Every call runs the engine's operators
    (:func:`repro.engine.executor.iter_plan`); *plan* says under which
    plan.  With the default ``plan=None`` it is the fixed plan *config*
    spells out (:func:`~repro.engine.planner.fixed_plan`), run on a
    throw-away document walk: the three strategy toggles pick the
    operators and the result order is deterministic (pre-order of
    candidate data nodes, pattern children in declaration order).
    Updates run the same plan on the walk their writer keeps current
    (:func:`~repro.core.update.apply_update`'s *walk*), with the same
    matches in the same order.  ``plan="auto"`` plans by cost: statistics
    are collected, a plan is built and executed; *config* then only
    supplies the runtime semantics (``max_matches``,
    ``honor_negation``).  Passing a prebuilt
    :class:`~repro.engine.planner.Plan` executes it directly (the
    warehouse does this through its plan cache); match order then
    follows the plan's visit order.
    """
    # Imported here: the engine builds on this module.
    from repro.engine.executor import iter_plan, iter_rekeyed
    from repro.engine.planner import Plan, build_plan, fixed_plan, pattern_fingerprint

    if plan is None:
        return list(iter_plan(fixed_plan(pattern, config), root, config))
    if plan == "auto":
        from repro.engine.stats import collect_stats

        plan = build_plan(pattern, collect_stats(root))
    elif not isinstance(plan, Plan):
        raise QueryError(f"plan must be None, 'auto' or a Plan, got {plan!r}")
    if plan.pattern is not pattern and plan.fingerprint != pattern_fingerprint(
        pattern
    ):
        raise QueryError(
            f"plan was built for {plan.fingerprint!r}, not for {pattern!s}"
        )
    return list(iter_rekeyed(plan, pattern, iter_plan(plan, root, config)))
