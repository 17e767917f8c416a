"""Physical operators executing a :class:`~repro.engine.planner.Plan`.

The one place matches are enumerated: :func:`iter_plan` runs under every
caller — planned queries, update-target location and WAL replay (the
fixed pre-order plan, on the walk their writer keeps current), and
(through ``find_matches(plan=None)``) the possible-worlds oracle and
Monte-Carlo sampling.  An execution has two halves:

* :func:`_prepare` — the per-pattern-node candidate lists: the label
  index (or full) scan, the anchored filter, then the bottom-up
  structural semi-join (a candidate survives only when every required
  pattern child still has a candidate in the right axis relation).  A
  long-lived walk (:class:`_Intervals`) keeps them per planned plan,
  with the join's indexes, across the commits that leave them be;
* :class:`BacktrackJoin` — enumerate homomorphisms over the plan's
  visit order, checking join variables eagerly or at the end as the
  plan decided.

**Every candidate list is in document (pre-order) order.**  The label
index buckets and the node list are appended during the walk's
pre-order pass (and patched by document-order splices), and every
later step — the anchored filter, the semi-join, the join's options —
filters without reordering.  The
proper descendants of a node ``a`` within a candidate list are
therefore one contiguous slice, the candidates whose pre-order number
lies strictly between ``enter[a]`` and ``exit[a]``: a descendant edge
is two ``bisect`` calls over the candidates' pre-order numbers (the
structural-join primitive of Al-Khalifa et al., ICDE 2002), not a test
of every (ancestor, candidate) pair.  A child edge joins through a
parent index.  Anything that reorders a candidate list breaks both.

Whatever the plan, the match *set* is the definition's —
``tests/test_engine_equivalence.py`` compares every plan shape against
a definitional reference that shares no code with the operators — but
the *order* of matches follows the plan's visit order, so callers
needing a canonical order must sort (the fuzzy query path already
does) or run the fixed pre-order plan.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from itertools import islice
from operator import lt
from time import sleep as _sleep

from repro.engine.planner import _FIXED_FINGERPRINT, Plan
from repro.obs.metrics import process_registry
from repro.tpwj.match import DEFAULT_CONFIG, Match, MatchConfig, find_embeddings
from repro.tpwj.pattern import PatternNode
from repro.trees.node import Node

__all__ = [
    "iter_plan",
    "iter_rekeyed",
    "BacktrackJoin",
    "ProbabilityBound",
]


def iter_rekeyed(plan: Plan, pattern, matches) -> Iterator[Match]:
    """Re-key *matches* from the plan's pattern nodes onto *pattern*'s.

    A cached plan may carry a different — structurally identical —
    pattern object than the caller's; after this, ``match[caller_node]``
    works, translated on read through one node table shared by the whole
    query.  Pass-through when the plan was built for *pattern* itself.
    The caller must have established structural identity (equal
    fingerprints); positive nodes then correspond position by position.
    """
    if plan.pattern is pattern:
        yield from matches
        return
    keys = dict(zip(pattern.positive_nodes(), plan.pattern.positive_nodes()))
    for match in matches:
        match.pattern, match._keys = pattern, keys
        yield match


#: A fresh walk's clock step: every open and every close of a node
#: advances it by this much, so a gap of free numbers follows each one.
_GAP = 1 << 16
#: An attached subtree takes this fraction (1/_SHARE) of the free gap
#: it lands in, leaving the rest for later siblings.
_SHARE = 16
#: Prepared executions a walk keeps, oldest dropped first (= plan cache).
_PREPARED = 128


class _Intervals:
    """Gap-numbered pre-order intervals: descendant edges as range lookups.

    ``enter[id(n)]`` numbers *n*'s open and ``exit[id(n)]`` its close;
    *n*'s proper descendants are exactly the nodes whose ``enter`` lies
    strictly between the two.  A fresh walk spaces consecutive numbers
    :data:`_GAP` apart, so ``exit[parent]`` lies strictly above its last
    child's ``exit`` and a free gap follows every number: the gap-numbered
    intervals of Li & Moon (VLDB 2001), which keep the ranges valid
    under inserts without renumbering.

    The constructor makes the **single** document pass of an execution:
    it numbers the tree *and* collects the node list and the label index
    the scan operators draw from.  The walk keeps its own stack — it
    runs under every matcher caller, so document depth must not be
    bounded by the interpreter's recursion limit.

    A writer keeps the walk of the document it mutates current with
    :meth:`attach` and :meth:`detach`, called at each mutation: a
    detached subtree's contiguous slice leaves the node list and every
    label bucket, an attached one is numbered into the free gap after
    its previous sibling and spliced in, so every list stays in
    document order.  When a gap is too small for the subtree the walk
    turns :attr:`stale` and ignores further patches; its owner rebuilds.

    It also keeps each planned plan's execution state (:meth:`prepared`):
    a patch drops those whose labels meet the subtree's or its parent's
    (leaf status may flip), and wildcard ones; no survivor is renumbered.

    *yield_every*, when set, cooperatively yields the GIL every that
    many visited nodes (``time.sleep(0)``): the serving layer builds
    walks on reader threads, and an uninterruptible O(n) pass would
    otherwise hold the GIL for milliseconds at a time — exactly the
    burst that lands in a concurrent writer's p99 commit latency.  The
    cost is one no-op syscall per chunk; leave it None for
    single-threaded callers.
    """

    __slots__ = ("enter", "exit", "all_nodes", "label_index", "stale", "_prepared")

    def __init__(self, root: Node, observer=None, yield_every: int | None = None) -> None:
        self.enter: dict[int, int] = {}
        self.exit: dict[int, int] = {}
        self.all_nodes: list[Node] = []
        self.label_index: dict[str, list[Node]] = {}
        self.stale = False
        #: (plan fingerprint, semi-join on) -> the plan's _Prepared state.
        self._prepared: dict[tuple[str, bool], _Prepared] = {}
        self._number(root, 0, _GAP, self.all_nodes, self.label_index, observer, yield_every)

    def _number(
        self,
        root: Node,
        clock: int,
        step: int,
        nodes: list[Node],
        index: dict[str, list[Node]],
        observer=None,
        yield_every: int | None = None,
    ) -> None:
        """Number *root*'s subtree in pre-order from *clock*, one open or
        close every *step*, appending its nodes to *nodes* and to
        *index*'s label buckets (both in document order)."""
        enter, exit_ = self.enter, self.exit
        # *observer* piggybacks on the single pass: the engine passes
        # its ancestor-condition index's ``observe`` so per-node closed
        # conditions are gathered in the same walk (pre-order — a
        # node's parent is always observed first).
        #
        # An internal node is re-pushed under a None marker below its
        # children, so it is closed once its whole subtree has been
        # numbered; leaves close on the spot.
        stack: list[Node | None] = [root]
        while stack:
            node = stack.pop()
            if node is None:
                exit_[id(stack.pop())] = clock
                clock += step
                continue
            enter[id(node)] = clock
            clock += step
            nodes.append(node)
            if yield_every is not None and len(nodes) % yield_every == 0:
                _sleep(0)  # let a waiting writer slip in
            if observer is not None:
                observer(node)
            bucket = index.get(node.label)
            if bucket is None:
                index[node.label] = [node]
            else:
                bucket.append(node)
            children = node.children
            if children:
                stack.append(node)
                stack.append(None)
                stack.extend(reversed(children))
            else:
                exit_[id(node)] = clock
                clock += step

    def positions(self, nodes: list[Node]) -> list[int]:
        """The pre-order numbers of the document-ordered *nodes*: sorted,
        hence the key :meth:`descendant_range` bisects."""
        enter = self.enter
        return [enter[id(n)] for n in nodes]

    def descendant_range(self, ancestor: Node, positions: list[int]) -> tuple[int, int]:
        """``(lo, hi)``: the slice of a document-ordered list, numbered
        *positions*, that holds exactly *ancestor*'s proper descendants."""
        lo = bisect_right(positions, self.enter[id(ancestor)])
        return lo, bisect_left(positions, self.exit[id(ancestor)], lo)

    def attach(self, subtree: Node) -> None:
        """Number *subtree*, just attached under a node of this walk,
        into the free gap after its previous sibling and splice it in."""
        if self.stale:
            return
        enter, exit_ = self.enter, self.exit
        parent = subtree.parent
        siblings = parent.children
        at = len(siblings) - 1
        while siblings[at] is not subtree:
            at -= 1
        lo = exit_[id(siblings[at - 1])] if at else enter[id(parent)]
        hi = enter[id(siblings[at + 1])] if at + 1 < len(siblings) else exit_[id(parent)]
        step = (hi - lo) // (_SHARE * 2 * subtree.size())
        if step == 0:
            self.stale = True  # the gap ran out: the owner rebuilds
            return
        opened: list[Node] = []
        groups: dict[str, list[Node]] = {}
        self._number(subtree, lo + step, step, opened, groups)
        self._splice(self.all_nodes, opened)
        index = self.label_index
        for label, group in groups.items():
            bucket = index.get(label)
            if bucket is None:
                index[label] = group
            else:
                self._splice(bucket, group)
        self._touch({*groups, parent.label})

    def detach(self, subtree: Node, parent: Node) -> None:
        """Drop *subtree*, just detached from *parent*, a node of this
        walk: its contiguous slice of the node list and of each label
        bucket."""
        if self.stale:
            return
        enter, exit_ = self.enter, self.exit
        first, last = enter[id(subtree)], exit_[id(subtree)]
        key = self._key
        nodes = self.all_nodes
        lo = bisect_left(nodes, first, key=key)
        hi = bisect_left(nodes, last, lo, key=key)
        removed = nodes[lo:hi]
        del nodes[lo:hi]
        index = self.label_index
        labels = {node.label for node in removed}
        for label in labels:
            bucket = index[label]
            lo = bisect_left(bucket, first, key=key)
            del bucket[lo : bisect_left(bucket, last, lo, key=key)]
            if not bucket:
                del index[label]
        for node in removed:
            del enter[id(node)], exit_[id(node)]
        labels.add(parent.label)
        self._touch(labels)

    def prepared(self, plan: Plan, root: Node) -> _Prepared:
        """*plan*'s prepared execution on this walk of *root*: kept from an
        earlier one (re-keyed once onto a re-plan's pattern), or prepared
        now and kept.  Readers of a frozen walk race here harmlessly: each
        entry is built locally and published at once (the last one stays)."""
        prepared = self._prepared
        key = (plan.fingerprint, plan.use_semijoin_pruning)
        entry = prepared.get(key)
        if entry is None:
            entry = prepared[key] = _prepare(plan, root, self)
            for old in list(prepared)[: len(prepared) - _PREPARED]:
                prepared.pop(old, None)
        elif entry.pattern is not plan.pattern:
            entry = prepared[key] = entry.rekeyed(plan.pattern)
        return entry

    def _touch(self, labels: set[str]) -> None:
        """Drop the entries a patch touching *labels* may have changed."""
        prepared = self._prepared
        for key in list(prepared):
            entry = prepared.get(key)
            if entry is not None and (
                entry.labels is None or not entry.labels.isdisjoint(labels)
            ):
                prepared.pop(key, None)

    def _key(self, node: Node) -> int:
        return self.enter[id(node)]

    def _splice(self, nodes: list[Node], run: list[Node]) -> None:
        """Insert the document-ordered *run*, numbered into one free
        gap, into the document-ordered *nodes*."""
        at = bisect_left(nodes, self.enter[id(run[0])], key=self._key)
        nodes[at:at] = run


class _WriterWalk:
    """A writer's handle on the walk of the document it mutates.

    The mutation locates its targets on :meth:`for_plan` and reports
    every subtree it attaches or detaches, at the moment it does, to
    :meth:`attach` / :meth:`detach`, which patch :attr:`current` in
    place.  The walk is built on first need by *build* (by default a
    fresh walk of *root*) and rebuilt once it turns stale; until then
    there is nothing to patch — the build reads the tree as it is.
    """

    __slots__ = ("current", "_build")

    def __init__(self, root: Node, current: _Intervals | None = None, build=None) -> None:
        #: The walk kept current so far, or None before the first build.
        self.current = current
        self._build = build if build is not None else lambda: _Intervals(root)

    def for_plan(self, plan: Plan) -> _Intervals | None:
        """The walk *plan* executes on: None for a root probe, which
        needs none (see :func:`iter_plan`)."""
        if _probes_root(plan):
            return None
        walk = self.current
        if walk is None or walk.stale:
            walk = self.current = self._build()
        return walk

    def attach(self, subtree: Node) -> None:
        if self.current is not None:
            self.current.attach(subtree)

    def detach(self, subtree: Node, parent: Node) -> None:
        if self.current is not None:
            self.current.detach(subtree, parent)


def _local_filter(
    pattern_node: PatternNode, nodes: list[Node], join_vars: dict
) -> list[Node]:
    """The matcher's local test, shared by the root probe and both scan
    operators: the members of *nodes* (order kept) that *pattern_node*
    may map to.  The pattern side of the test is computed once, so the
    per-node loop reads node fields only."""
    label, value = pattern_node.label, pattern_node.value
    inner = any(not c.negated for c in pattern_node.children)
    valued = pattern_node.variable is not None and pattern_node.variable in join_vars
    return [
        n
        for n in nodes
        if (label is None or n.label == label)
        and (value is None or n.value == value)
        and not (inner and n.is_leaf)
        and not (valued and n.value is None)
    ]


class _Prepared:
    """One plan's execution state on one walk, a function of the pattern
    and the document alone: the final candidate lists (None when one
    emptied), the ``engine.actual_candidates`` / ``match.semijoin_pruned``
    totals every execution adds (None: not counted), and the join's
    indexes, each built on first use and published whole."""

    __slots__ = (
        "pattern", "labels", "join_groups", "candidates", "actual", "pruned",
        "positions", "by_parent",
    )

    def __init__(self, pattern, labels: frozenset[str] | None, join_groups: dict) -> None:
        self.pattern = pattern
        self.labels = labels  # the positive nodes'; None: a wildcard
        self.join_groups = join_groups
        self.candidates: dict[PatternNode, list[Node]] | None = None
        self.actual: int | None = None
        self.pruned: int | None = None
        #: Per descendant-edge node, its candidates' pre-order numbers;
        #: per child-edge node, its candidates grouped by ``id(parent)``.
        self.positions: dict[PatternNode, list[int]] = {}
        self.by_parent: dict[PatternNode, dict[int, list[Node]]] = {}

    def rekeyed(self, pattern) -> _Prepared:
        """This state keyed by *pattern*'s nodes: a structurally
        identical pattern, whose positive nodes correspond by position."""
        keys = dict(zip(self.pattern.positive_nodes(), pattern.positive_nodes()))
        entry = _Prepared(pattern, self.labels, pattern.join_variables())
        entry.actual, entry.pruned = self.actual, self.pruned
        if self.candidates is not None:
            entry.candidates = {keys[p]: c for p, c in self.candidates.items()}
        entry.positions = {keys[p]: v for p, v in list(self.positions.items())}
        entry.by_parent = {keys[p]: v for p, v in list(self.by_parent.items())}
        return entry


def _prepare(plan: Plan, root: Node, intervals: _Intervals | None) -> _Prepared:
    """*plan*'s candidate lists on the walk *intervals* of *root*: the
    scan, the anchored filter, then the bottom-up semi-join when the
    plan asks for it.  Without a walk, the root probe of
    :func:`iter_plan`."""
    pattern = plan.pattern
    join_vars = pattern.join_variables()
    positive = pattern.positive_nodes()
    labels = {pattern_node.label for pattern_node in positive}
    entry = _Prepared(pattern, None if None in labels else frozenset(labels), join_vars)
    if intervals is None:
        probed = _local_filter(pattern.root, [root], join_vars)
        if probed:
            entry.actual, entry.candidates = 1, {pattern.root: probed}
        return entry
    index, everything = intervals.label_index, intervals.all_nodes
    candidates: dict[PatternNode, list[Node]] = {}
    entry.actual = 0
    for pattern_node in positive:
        if plan.use_label_index and pattern_node.label is not None:
            base = index.get(pattern_node.label, [])
        else:
            base = everything
        kept = candidates[pattern_node] = _local_filter(pattern_node, base, join_vars)
        entry.actual += len(kept)
        if not kept:
            return entry

    if pattern.anchored:
        candidates[pattern.root] = [n for n in candidates[pattern.root] if n is root]
        if not candidates[pattern.root]:
            return entry

    if plan.use_semijoin_pruning:
        # Children come later in pre-order, so their lists are final when
        # their parent is pruned: a descendant edge's positions are kept.
        positions = entry.positions
        for pattern_node in reversed(positive):
            tests = []
            for child in pattern_node.children:
                if child.negated:
                    continue
                if child.descendant:  # lo < hi: a descendant in range
                    numbers = positions[child] = intervals.positions(candidates[child])
                    tests.append(lambda n, p=numbers: lt(*intervals.descendant_range(n, p)))
                else:
                    parent_ids = {id(c.parent) for c in candidates[child]}
                    tests.append(lambda n, ids=parent_ids: id(n) in ids)
            if not tests:
                continue
            listed = candidates[pattern_node]
            survivors = [n for n in listed if all(test(n) for test in tests)]
            entry.pruned = (entry.pruned or 0) + len(listed) - len(survivors)
            if not survivors:
                return entry
            candidates[pattern_node] = survivors
    entry.candidates = candidates
    return entry


class ProbabilityBound:
    """Incremental upper bound on a partial match's probability.

    A match fires only in worlds satisfying the conjunction of its
    mapped nodes' *closed* conditions (node + ancestors — the
    ancestor-condition index gives each closure in O(1)).  Over the
    distinct literals bound so far, the product of per-literal
    probabilities is that conjunction's exact probability when it is
    consistent, and a (positive) overestimate when it is not — either
    way an **upper bound** on anything the partial assignment can grow
    into, because extending the assignment only conjoins more literals
    and conjunction never raises probability.  (Negated subpatterns
    only lower the true probability further, so the bound stays valid
    for them too.)

    :meth:`bind`/:meth:`unbind` mirror the backtracking join's
    assign/retract: each bind multiplies in the probabilities of the
    closure's *new* literals and pushes an undo record; unbind restores
    the previous product exactly (a stack restore, not a division — a
    zero-probability literal would otherwise poison the product
    forever).
    """

    __slots__ = ("_lookup", "_probability", "_seen", "_stack", "_product")

    def __init__(self, closed_condition, event_probability) -> None:
        #: node -> interned closed Condition (the index's lookup).
        self._lookup = closed_condition
        #: event name -> probability (the event table's lookup).
        self._probability = event_probability
        self._seen: set = set()
        self._stack: list = []
        self._product = 1.0

    def bind(self, node) -> float:
        """Fold *node*'s closed condition in; returns the new bound."""
        seen = self._seen
        product = self._product
        added: list = []
        probability = self._probability
        for literal in self._lookup(node).literals:
            if literal in seen:
                continue
            seen.add(literal)
            added.append(literal)
            p = probability(literal.event)
            product *= p if literal.positive else 1.0 - p
        self._stack.append((self._product, added))
        self._product = product
        return product

    def unbind(self) -> None:
        """Undo the most recent :meth:`bind` exactly."""
        product, added = self._stack.pop()
        seen = self._seen
        for literal in added:
            seen.discard(literal)
        self._product = product


class BacktrackJoin:
    """Backtracking enumeration over the plan's visit order.

    :meth:`iter_matches` is the streaming protocol: matches are yielded
    as the backtracking discovers them, so a consumer that stops early
    (``ResultSet.limit``, a handle's ``max_matches``) aborts the rest of
    the search instead of paying for a full enumeration.

    Probability-bounded enumeration (top-k / ``min_probability``): pass
    *bound* (a :class:`ProbabilityBound`) and *prune* (a callable on
    the bound's value) to :meth:`iter_matches` and every partial
    assignment whose upper bound the consumer rejects is cut — the
    whole subtree of the backtracking search below it is never visited.
    """

    def __init__(
        self, plan: Plan, intervals: _Intervals | None, prepared: _Prepared, runtime: MatchConfig
    ) -> None:
        self._plan, self._intervals, self._runtime = plan, intervals, runtime
        self._prepared = prepared
        self._candidates = prepared.candidates
        self._join_groups = prepared.join_groups

    def iter_matches(self, *, bound=None, prune=None) -> Iterator[Match]:
        """Lazily yield matches in the plan's deterministic visit order.

        With *bound* and *prune* set, every candidate assignment first
        folds its node's closed condition into the bound; if
        ``prune(upper)`` rejects the resulting upper bound, the branch
        is abandoned before any deeper enumeration (and the bound is
        restored).  *prune* may close over mutable consumer state — a
        threshold-admission heap's k-th best rises as rows are
        admitted, so later branches face a tighter test.
        """
        mapping: dict[PatternNode, Node] = {}
        bindings: dict[str, str] = {}
        order = self._plan.order
        runtime = self._runtime
        early = self._plan.early_join_check
        pruning = bound is not None and prune is not None
        # One flag read per execution, not one per partial assignment.
        track = process_registry.enabled

        # An explicit stack: a recursive closure is a cycle only the collector
        # frees.  Depth d assigns order[d] from levels[d]; fresh[d] is the
        # join variable it bound first, or None.
        levels = [iter(self._options(order[0], mapping))]
        fresh: list[str | None] = []
        while levels:
            depth = len(levels) - 1
            pattern_node = order[depth]
            if len(fresh) > depth:  # retract, then try the next candidate
                del mapping[pattern_node]
                if pruning:
                    bound.unbind()
                if (variable := fresh.pop()) is not None:
                    del bindings[variable]
            data_node = next(levels[-1], None)
            if data_node is None:
                levels.pop()
                continue
            if track:
                process_registry.incr("match.assignments")
            if runtime.honor_negation and any(
                child.negated and find_embeddings(child, data_node)
                for child in pattern_node.children
            ):
                if track:
                    process_registry.incr("match.negation_pruned")
                continue
            if pruning and prune(bound.bind(data_node)):
                bound.unbind()
                if track:
                    process_registry.incr("match.bound_pruned")
                continue
            first = None
            variable = pattern_node.variable
            if early and variable is not None and variable in self._join_groups:
                existing = bindings.get(variable)
                if existing is None:
                    bindings[variable] = data_node.value
                    first = variable
                elif existing != data_node.value:
                    if pruning:
                        bound.unbind()
                    continue
            mapping[pattern_node] = data_node
            fresh.append(first)
            if depth + 1 < len(order):
                levels.append(iter(self._options(order[depth + 1], mapping)))
            elif early or self._joins_ok(mapping):
                if track:
                    process_registry.incr("match.found")
                yield Match(self._plan.pattern, dict(mapping))

    def _options(
        self, pattern_node: PatternNode, mapping: dict[PatternNode, Node]
    ) -> list[Node]:
        candidates = self._candidates[pattern_node]
        parent = pattern_node.parent
        if parent is None:
            return candidates
        anchor = mapping[parent]
        prepared = self._prepared
        if pattern_node.descendant:
            positions = prepared.positions.get(pattern_node)
            if positions is None:
                positions = self._intervals.positions(candidates)
                prepared.positions[pattern_node] = positions
            lo, hi = self._intervals.descendant_range(anchor, positions)
            return candidates[lo:hi]
        by_parent = prepared.by_parent.get(pattern_node)
        if by_parent is None:
            by_parent = {}  # built whole, then published: readers share it
            for c in candidates:
                by_parent.setdefault(id(c.parent), []).append(c)
            prepared.by_parent[pattern_node] = by_parent
        return by_parent.get(id(anchor), [])

    def _joins_ok(self, mapping: dict[PatternNode, Node]) -> bool:
        for nodes in self._join_groups.values():
            values = {mapping[p].value for p in nodes}
            if len(values) != 1 or None in values:
                return False
        return True


def _probes_root(plan: Plan) -> bool:
    """Whether *plan* is answered by probing the root alone: an anchored
    single-node pattern (one step — plans visit every positive node)."""
    return plan.pattern.anchored and len(plan.steps) == 1


def iter_plan(
    plan: Plan,
    root: Node,
    runtime: MatchConfig = DEFAULT_CONFIG,
    *,
    intervals: _Intervals | None = None,
    bound: ProbabilityBound | None = None,
    prune=None,
) -> Iterator[Match]:
    """Run *plan* against the tree at *root*, streaming matches lazily.

    This is the engine's streaming protocol: the preparation runs when
    iteration starts, then the backtracking join yields matches one at
    a time, so a consumer that stops pulling aborts the enumeration.

    *runtime* supplies the semantic knobs (``max_matches`` — applied
    here as a hard cap — and ``honor_negation``); the strategy toggles
    come from the plan.  *intervals* lets a long-lived caller
    (:class:`~repro.engine.QueryEngine`) reuse the document walk across
    executions and keep a planned plan's preparation; it must have been
    built for *root* in its current state.  Without it a throw-away walk
    is made — except for an anchored single-node pattern, which needs none.
    *bound*/*prune* switch on probability-bounded enumeration — see
    :meth:`BacktrackJoin.iter_matches`.
    """
    process_registry.incr("engine.plans_executed")
    if intervals is not None and plan.fingerprint != _FIXED_FINGERPRINT:
        prepared = intervals.prepared(plan, root)
    else:
        # An anchored single-node pattern can only map to the document
        # root — the shape of root-targeted updates, hence of most WAL
        # records: a constant-time probe, no walk.  The join never
        # consults the walk for a parentless pattern node.
        if intervals is None and not _probes_root(plan):
            intervals = _Intervals(root)
        prepared = _prepare(plan, root, intervals)
    if prepared.actual is not None:
        process_registry.incr("engine.actual_candidates", prepared.actual)
    if prepared.pruned is not None:
        process_registry.incr("match.semijoin_pruned", prepared.pruned)
    if prepared.candidates is None:
        return

    matches = BacktrackJoin(plan, intervals, prepared, runtime).iter_matches(
        bound=bound, prune=prune
    )
    if runtime.max_matches is not None:
        matches = islice(matches, runtime.max_matches)
    yield from matches
