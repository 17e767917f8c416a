"""TPWJ query evaluation directly on fuzzy trees (paper, slide 13).

Definition (slide 13): evaluate the query on the *underlying* data tree;
the probability of an answer is the probability of the conjunction of
the conditions of the nodes of the mapping.  Because the answer is the
minimal subtree containing the mapped nodes, the relevant conjunction
ranges over the mapped nodes *and all their ancestors* — an answer
exists in a world only when its whole subtree does.

Several matches may induce the same answer tree; the answer's
probability is then the probability of the *disjunction* of the match
conditions, computed exactly by Shannon expansion
(:func:`repro.events.dnf.dnf_probability`).  This is precisely what
makes the fuzzy evaluation commute with the possible-worlds semantics
(the theorem of slide 13, validated by benchmark E2 and the property
tests).

The probability fast path (E12): when matching runs through a
:class:`~repro.engine.QueryEngine`, per-match conditions come from the
engine's precomputed ancestor-condition index (a small union of
interned frozensets instead of an O(depth) ancestor walk per mapped
node) and Shannon expansions share the engine's
:class:`~repro.events.dnf.ShannonCache` memo.  Streamed rows compute
their probability lazily on first access; whether a match is *possible*
(nonzero probability) is decided by the cheap per-literal test of
:func:`~repro.events.dnf` instead of a full expansion.
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from itertools import islice
from time import perf_counter

from repro.events.condition import Condition
from repro.events.dnf import Dnf, complement_as_disjoint_conditions, dnf_probability
from repro.events.table import EventTable
from repro.core.fuzzy_tree import FuzzyNode, FuzzyTree
from repro.errors import QueryCancelledError
from repro.obs.metrics import process_registry
from repro.tpwj.match import (
    DEFAULT_CONFIG,
    Match,
    MatchConfig,
    find_embeddings,
    find_matches,
)
from repro.tpwj.pattern import Pattern
from repro.trees.algorithms import kept_canonical, kept_nodes, kept_tree
from repro.trees.node import Node

__all__ = [
    "FuzzyAnswer",
    "QueryRow",
    "query_fuzzy_tree",
    "iter_query_rows",
    "iter_bounded_rows",
    "topk_rows",
    "group_rows",
    "match_condition",
    "match_conditions",
]


class _Answer:
    """Answers and rows: an answer tree's kept nodes, captured under the pin
    (a later commit may move the live links); tree and key filled on read."""

    __slots__ = ("_kept", "_tree", "_key")

    @property
    def tree(self) -> Node:
        if self._tree is None:
            self._tree = kept_tree(self._kept)
        return self._tree

    @property
    def canonical(self) -> str:
        if self._key is None:
            self._key = kept_canonical(self._kept)
        return self._key


class FuzzyAnswer(_Answer):
    """One answer of a query over a fuzzy tree.

    Attributes
    ----------
    tree:
        The answer tree (an ordinary data tree — conditions are not part
        of answers), built on first read.
    canonical:
        ``tree.canonical()``, the key its matches were grouped by.
    dnf:
        The disjunction of the per-match existence conditions that
        produce this answer.
    probability:
        Exact probability that this answer belongs to the query result.
    """

    __slots__ = ("dnf", "probability")

    def __init__(self, kept, key: str, dnf: Dnf, probability: float) -> None:
        self._kept, self._tree, self._key = kept, None, key
        self.dnf = dnf
        self.probability = probability

    def __repr__(self) -> str:
        return f"FuzzyAnswer(p={self.probability:.6g}, tree={self.canonical})"


class _AncestorWalk:
    """Stand-in for the engine's
    :class:`~repro.engine.conditions.AncestorConditionIndex` on a tree
    no engine has walked: the same ``closed_condition`` contract,
    computed by walking the ancestor chain on every lookup."""

    @staticmethod
    def closed_condition(node: FuzzyNode) -> Condition:
        literals: frozenset = frozenset()
        for walk in node.ancestors(include_self=True):
            literals |= walk.condition.literals
        return Condition(literals, allow_inconsistent=True)


def match_condition(match: Match, *, index=_AncestorWalk) -> Condition | None:
    """Existence condition of a match: the conjunction over the mapped
    nodes *and their ancestors* of the node conditions.

    Returns None when the conjunction is inconsistent (the match can
    fire in no world).  *index* supplies each node's closed condition:
    the engine's :class:`~repro.engine.conditions.AncestorConditionIndex`
    (precomputed, so the conjunction is a union of a handful of
    frozensets) or, by default, the ancestor-walking stand-in.
    """
    return _closed_union(index, match.iter_images())


def _closed_union(index, nodes) -> Condition | None:
    """Union the closed conditions of *nodes*; None when inconsistent.

    *nodes* may repeat (raw match images): closures are deduplicated by
    identity/equality before any set union, and the single-closure case
    — the typical one, since mapped nodes share ancestor chains whose
    closures are shared objects — returns the interned closure as-is.
    """
    lookup = index.closed_condition
    first = None
    extras = None
    for node in nodes:
        closed = lookup(node)
        if first is None:
            first = closed
        elif closed is not first:
            if extras is None:
                extras = [closed]
            elif closed not in extras:
                extras.append(closed)
    if extras is not None:
        literals = first.literals
        for closed in extras:
            literals |= closed.literals
        first = Condition(literals, allow_inconsistent=True)
    return first if first.is_consistent else None


def match_conditions(match: Match, *, index=_AncestorWalk) -> list[Condition]:
    """Disjoint conjunctive conditions under which *match* holds.

    For a pattern without negation this is the singleton
    ``[match_condition(match)]`` (or ``[]`` when inconsistent).  With
    negated subpatterns (slide-19 extension) the match holds when its
    positive image exists *and no* embedding of any negated subpattern
    exists; the complement of the embeddings' conditions is rewritten
    into disjoint conjunctions, each conjoined with the positive
    condition.
    """
    return _conditions(match, index, match.pattern.negated_constraints())


def _conditions(match: Match, index, constraints) -> list[Condition]:
    """:func:`match_conditions` with the pattern's negated subpattern
    roots (*constraints*) computed once by the caller."""
    gamma = _closed_union(index, match.iter_images())
    if gamma is None:
        return []
    if not constraints:
        return [gamma]

    violations: list[Condition] = []
    for constraint in constraints:
        parent_image = match[constraint.parent]
        for embedding in find_embeddings(constraint, parent_image):
            delta = _closed_union(index, embedding.values())
            if delta is not None:
                violations.append(delta)

    pieces = complement_as_disjoint_conditions(violations)
    results: list[Condition] = []
    for piece in pieces:
        combined = Condition(
            gamma.literals | piece.literals, allow_inconsistent=True
        )
        if combined.is_consistent:
            results.append(Condition(combined.literals))
    return results


def _possibly_nonzero(terms, events) -> bool:
    """True iff the disjunction of *terms* has nonzero probability.

    ``P(∨ terms) = 0`` exactly when every term contains a literal of
    probability zero (a positive literal over a 0-probability event or
    a negative one over a 1-probability event) — a per-literal scan, no
    Shannon expansion.
    """
    probability = events.probability
    for term in terms:
        for literal in term.literals:
            p = probability(literal.event)
            if (p == 0.0) if literal.positive else (p == 1.0):
                break
        else:
            return True
    return False


class QueryRow(_Answer):
    """One *match* of a query over a fuzzy tree, streamed lazily.

    Where :class:`FuzzyAnswer` aggregates every match inducing the same
    answer tree (exact disjunction semantics), a row is the unit the
    streaming protocol can afford to emit without seeing the rest of
    the enumeration: the match itself, its answer tree and ``canonical``
    key (both filled on read), the disjoint conditions under which the
    match holds, and the exact probability of *this match* firing.
    Rows arrive in the engine's deterministic match order, so a limited stream is a prefix of the unlimited one.

    The probability is computed on **first access** (every emitted row
    is already known to be possible): consumers that only group, count
    or render trees never pay the Shannon expansion, and those that do
    read it hit the engine's shared memo.  The row captures its events'
    probabilities at emission time, so the lazy value equals what eager
    computation would have produced even when the live table changes
    after the stream's pin is released (a later commit's simplify can
    GC an event this row references).
    """

    __slots__ = (
        "match",
        "dnf",
        "_events",
        "_cache",
        "_generation",
        "_captured",
        "_probability",
    )

    def __init__(
        self,
        match: Match,
        kept,
        dnf: Dnf,
        events,
        *,
        cache=None,
        probability: float | None = None,
    ) -> None:
        self.match = match
        self._kept, self._tree, self._key = kept, None, None
        self.dnf = dnf
        self._events = events
        self._cache = cache
        self._generation = events.generation
        # Emission-time snapshot of the mentioned events' probabilities
        # (a per-literal read, no expansion) — the fallback pricing
        # basis if the live table's assignment moves on before the
        # probability is first read.
        self._captured = (
            None
            if probability is not None
            else {event: events.probability(event) for event in dnf.events()}
        )
        self._probability = probability

    @property
    def probability(self) -> float:
        """Exact probability that this match fires (lazily computed)."""
        p = self._probability
        if p is None:
            events = self._events
            if events.generation == self._generation:
                p = dnf_probability(self.dnf, events, cache=self._cache)
            else:
                # An event was removed or redeclared since this row was
                # streamed; price against the captured probabilities
                # (no shared cache — its keys belong to live tables).
                p = dnf_probability(self.dnf, EventTable(self._captured))
            self._probability = p
        return p

    def bindings(self) -> dict[str, str | None]:
        """Variable name -> bound text value for this match."""
        return self.match.bindings()

    def __repr__(self) -> str:
        return f"QueryRow(p={self.probability:.6g}, tree={self.canonical})"


def _consistent_matches(
    fuzzy, pattern, config, engine, *, plan=None, prune=None, abort=None
):
    """Yield ``(match, disjoint conditions)`` for every consistent match.

    The one loop behind every evaluation in this module (and
    :mod:`repro.core.aggregates`): slide 13's definition, run once.

    * Negated subpatterns are handled through conditions, not
      structure (their presence varies across worlds), so matching runs
      with ``honor_negation=False`` for them.
    * Matches come from *engine*'s streaming protocol when given — told
      to evaluate *fuzzy*'s own root rather than whatever its provider
      currently points at: a concurrent commit may swap the live
      document (copy-on-write) between the caller pinning this
      generation and the first match being pulled, and evaluating the
      new root against the pinned tree would tear the read.  With
      *prune* the engine runs its branch-and-bound join: partial
      assignments are priced through a
      :class:`~repro.engine.executor.ProbabilityBound` over the
      ancestor-condition index and ``prune(upper)`` decides, from the
      upper bound alone, whether a branch can still contribute.
    * Without an engine (the E9 ablation baseline) ``find_matches``
      runs the same operators on a throw-away walk — under the fixed
      pre-order plan of *config* unless *plan* says otherwise — and
      *prune* is ignored: same matches, no pruning.

    *abort* is the serving layers' cancellation hook, polled once per
    enumerated match.  Matches whose conjunction is inconsistent (they
    fire in no world) are counted and skipped.
    """
    if pattern.has_negation():
        config = replace(config, honor_negation=False)
    if engine is None:
        index = _AncestorWalk
        matches = find_matches(pattern, fuzzy.root, config, plan=plan)
    else:
        index = engine.condition_index(fuzzy.root)
        bound = None
        if prune is not None:
            from repro.engine.executor import ProbabilityBound

            bound = ProbabilityBound(index.closed_condition, fuzzy.events.probability)
        matches = engine.iter_matches(
            pattern, config, root=fuzzy.root, bound=bound, prune=prune
        )
    track = process_registry.enabled
    constraints = pattern.negated_constraints()
    for match in matches:
        if abort is not None and abort():
            raise QueryCancelledError("query cancelled by its abort hook")
        if track:
            process_registry.incr("core.query.matches")
        conditions = _conditions(match, index, constraints)
        if conditions:
            yield match, conditions
        elif track:
            process_registry.incr("core.query.inconsistent_matches")


def _rows(fuzzy, pattern, config, engine, *, floor=None, prune=None, abort=None):
    """One :class:`QueryRow` per consistent, *possible* match.

    With *floor* (a probability) rows are priced eagerly and those
    below it — or at zero — are dropped; without it pricing stays lazy
    and only the per-literal possibility test runs.
    """
    events = fuzzy.events
    cache = engine.shannon if engine is not None else None
    for match, conditions in _consistent_matches(
        fuzzy, pattern, config, engine, prune=prune, abort=abort
    ):
        if not _possibly_nonzero(conditions, events):
            continue
        dnf = Dnf(conditions)
        p = None
        if floor is not None:
            p = dnf_probability(dnf, events, cache=cache)
            if p == 0.0 or p < floor:
                continue
        kept = kept_nodes(fuzzy.root, match.iter_images())
        yield QueryRow(match, kept, dnf, events, cache=cache, probability=p)


def _capped(rows, limit: int | None):
    return rows if limit is None else islice(rows, max(limit, 0))


def iter_query_rows(
    fuzzy: FuzzyTree,
    pattern: Pattern,
    config: MatchConfig = DEFAULT_CONFIG,
    *,
    engine=None,
    limit: int | None = None,
):
    """Lazily evaluate a TPWJ query, yielding one :class:`QueryRow` per
    consistent, possible match.

    The streaming counterpart of :func:`query_fuzzy_tree`: matching is
    pulled one match at a time through *engine*'s streaming protocol
    when given (materialized by ``find_matches``' fixed pre-order plan
    otherwise), each match's condition is
    computed immediately — through the engine's ancestor-condition
    index when available — and iteration stops after *limit* emitted
    rows, aborting the remaining backtracking.  Matches that can fire
    in no world (inconsistent conditions or zero probability) are
    skipped and do not count against *limit*; row probabilities are
    computed lazily on first access.
    """
    return _capped(_rows(fuzzy, pattern, config, engine), limit)


def iter_bounded_rows(
    fuzzy: FuzzyTree,
    pattern: Pattern,
    config: MatchConfig = DEFAULT_CONFIG,
    *,
    engine=None,
    min_probability: float = 0.0,
    limit: int | None = None,
):
    """Document-order rows with ``probability >= min_probability``.

    Like :func:`iter_query_rows` but the threshold is pushed *into*
    the join: engine-backed, a partial assignment whose probability
    upper bound is already below *min_probability* is pruned without
    ever being completed.  Rows are priced eagerly (the threshold needs
    the exact value); *limit* counts qualifying rows only.
    """

    def prune(upper: float) -> bool:
        return upper < min_probability

    rows = _rows(fuzzy, pattern, config, engine, floor=min_probability, prune=prune)
    return _capped(rows, limit)


def topk_rows(
    fuzzy: FuzzyTree,
    pattern: Pattern,
    config: MatchConfig = DEFAULT_CONFIG,
    *,
    engine=None,
    k: int | None = None,
    min_probability: float = 0.0,
    abort=None,
) -> list[QueryRow]:
    """The *k* most probable rows, in decreasing-probability order.

    Ties are broken by the deterministic enumeration order, so the
    result equals the first *k* entries of the stable sort of the full
    enumeration by decreasing probability (the property the tests pin).

    Engine-backed, this runs as branch-and-bound inside the
    backtracking join: each partial assignment's closed conditions give
    an O(1) upper bound on any completion's probability, and a branch
    is cut when that bound cannot beat the current k-th best in the
    admission heap (or falls below *min_probability*).  Cutting at
    ``upper == kth-best`` is safe: a completion could at best *tie*,
    and later enumeration order loses ties.

    Rows are priced eagerly (their exact probability is the sort key),
    through the engine's shared Shannon memo when available.  *abort*
    is the serving layers' cancellation hook, polled once per
    enumerated match.
    """
    if k is not None and k <= 0:
        return []
    heap: list = []  # (probability, -emission_index, row): root = evictee

    def prune(upper: float) -> bool:
        if upper < min_probability:
            return True
        return k is not None and len(heap) == k and upper <= heap[0][0]

    rows = _rows(
        fuzzy, pattern, config, engine, floor=min_probability, prune=prune, abort=abort
    )
    for emitted, row in enumerate(rows):
        entry = (row.probability, -emitted, row)
        if k is None:
            heap.append(entry)
        elif len(heap) < k:
            heapq.heappush(heap, entry)
        else:
            # On a probability tie the fresh entry's later emission
            # index makes it the heap minimum, so pushpop discards it —
            # exactly the stable-sort tie rule.
            heapq.heappushpop(heap, entry)
    heap.sort(key=lambda entry: (-entry[0], -entry[1]))
    return [row for _, _, row in heap]


def group_by_key(entries) -> list[tuple[str, object, list[Condition]]]:
    """The one keyed grouping: merge ``(canonical key, source, conditions)``
    entries inducing the same answer tree, concatenating their conditions.
    Groups keep first-seen order and their first entry's source (kept
    nodes, or a row): ``(key, source, conditions)``."""
    grouped: dict[str, tuple[str, object, list[Condition]]] = {}
    for key, source, conditions in entries:
        entry = grouped.get(key)
        if entry is not None:
            entry[2].extend(conditions)
        else:
            grouped[key] = (key, source, list(conditions))
    return list(grouped.values())


def _rank_answers(groups, events, cache) -> list[FuzzyAnswer]:
    """Price each group's disjunction; drop impossible ones; rank by
    decreasing probability, ties by canonical form."""
    ranked: list[tuple[float, str, FuzzyAnswer]] = []
    for key, kept, conditions in groups:
        dnf = Dnf(conditions)
        probability = dnf_probability(dnf, events, cache=cache)
        if probability != 0.0:
            ranked.append((probability, key, FuzzyAnswer(kept, key, dnf, probability)))
    ranked.sort(key=lambda entry: (-entry[0], entry[1]))
    return [answer for _, _, answer in ranked]


def group_rows(rows, events, *, cache=None) -> list[FuzzyAnswer]:
    """Fold streamed rows into ranked :class:`FuzzyAnswer` aggregates.

    Rows inducing the same answer tree are merged (their conditions
    disjoined) exactly as :func:`query_fuzzy_tree` merges matches, then
    ranked by decreasing probability.  On an unlimited stream this
    reproduces :func:`query_fuzzy_tree`'s result; on a limited one it
    aggregates just the streamed prefix.  *cache* is a shared
    :class:`~repro.events.dnf.ShannonCache` for the per-group
    expansions (rows carry one from their engine already; this applies
    to the group-level disjunctions).
    """
    groups = group_by_key((row.canonical, row._kept, row.dnf.terms) for row in rows)
    return _rank_answers(groups, events, cache)


def query_fuzzy_tree(
    fuzzy: FuzzyTree,
    pattern: Pattern,
    config: MatchConfig = DEFAULT_CONFIG,
    *,
    plan=None,
    engine=None,
) -> list[FuzzyAnswer]:
    """Evaluate a TPWJ query on a fuzzy tree without enumerating worlds.

    Returns the answers sorted by decreasing probability (ties broken
    by canonical form), mirroring the normalized possible-worlds
    result.

    Matching can be routed through the cost-based engine: *engine* (a
    :class:`~repro.engine.QueryEngine` bound to this document — the
    warehouse passes its own, reusing cached plans and the document
    walk) or *plan* (``"auto"`` / a prebuilt plan, forwarded to
    :func:`~repro.tpwj.match.find_matches`).  The grouped-and-sorted
    answers are identical on every path; the engine path additionally
    reuses the ancestor-condition index and the shared Shannon memo.
    """
    # Phase boundaries for the warehouse's instrument panel: one
    # match_enumeration emit for the whole enumerate-and-group loop,
    # one probability_evaluation emit for the pricing loop.  Off, this
    # costs two attribute reads per query.
    obs = engine.observability if engine is not None else None
    tracing = obs is not None and obs.tracer.enabled
    t_phase = perf_counter() if tracing else 0.0
    root = fuzzy.root
    groups = group_by_key(
        (kept_canonical(kept), kept, conditions)
        for match, conditions in _consistent_matches(
            fuzzy, pattern, config, engine, plan=plan
        )
        for kept in (kept_nodes(root, match.iter_images()),)
    )
    if tracing:
        now = perf_counter()
        obs.tracer.emit("match_enumeration", now - t_phase, groups=len(groups))
        t_phase = now
    elif obs is not None:
        t_phase = perf_counter()
    answers = _rank_answers(
        groups, fuzzy.events, engine.shannon if engine is not None else None
    )
    if obs is not None:
        priced = perf_counter() - t_phase
        if tracing:
            obs.tracer.emit("probability_evaluation", priced)
        if obs.metrics.enabled:
            obs.metrics.observe("query.probability_seconds", priced)
    return answers
