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
  long-lived walk (:class:`_Intervals`) keeps, per pattern, the lists
  together with the plan chosen from their exact sizes
  (:func:`_planned`) and the join's indexes, across the commits that
  leave them be;
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
from time import perf_counter, sleep as _sleep

from repro.engine.planner import Plan, pattern_fingerprint, plan_prepared, semijoin_pays
from repro.obs.metrics import process_registry
from repro.tpwj.match import DEFAULT_CONFIG, Match, MatchConfig, find_embeddings
from repro.tpwj.pattern import PatternNode
from repro.trees.node import Node

__all__ = [
    "iter_plan",
    "iter_rekeyed",
    "BacktrackJoin",
]


def iter_rekeyed(plan: Plan, pattern, matches) -> Iterator[Match]:
    """Re-key *matches* from the plan's pattern nodes onto *pattern*'s.

    A kept plan may carry a different — structurally identical —
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
#: Planned entries a walk keeps, the least recently used dropped first.
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

    It also keeps, per pattern, the plan and its preparation
    (:meth:`prepared`): a patch drops those whose labels meet the
    subtree's or its parent's (leaf status may flip), and wildcard ones;
    no survivor is renumbered.

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
        #: Pattern fingerprint -> its planned _Prepared entry, least
        #: recently used first.
        self._prepared: dict[str, _Prepared] = {}
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

    def prepared(self, pattern, root: Node, observe=None) -> _Prepared:
        """*pattern*'s planned entry on this walk of *root* (its plan is
        ``.plan``): kept from an earlier query of the same fingerprint and
        refreshed as the most recently used, or planned now — *observe*,
        if given, gets the seconds it took — and kept, dropping the least
        recently used beyond :data:`_PREPARED`.  Readers of a frozen walk
        race here harmlessly: each entry is built locally and published
        whole (the last one stays)."""
        prepared = self._prepared
        key = pattern_fingerprint(pattern)
        entry = prepared.pop(key, None)
        if entry is not None:
            prepared[key] = entry
            process_registry.incr("engine.plan_cache_hits")
            return entry
        process_registry.incr("engine.plan_cache_misses")
        t0 = perf_counter() if observe is not None else 0.0
        entry = prepared[key] = _planned(pattern, root, self)
        if observe is not None:
            observe(perf_counter() - t0)
        for old in list(prepared)[: max(0, len(prepared) - _PREPARED)]:
            if prepared.pop(old, None) is not None:
                process_registry.incr("engine.plan_cache_evictions")
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
    """A writer's handle on the walk of the document it mutates, and the
    one recorder of what the mutation changed.

    The mutation locates its targets on :meth:`for_plan` and reports
    every subtree it attaches or detaches, at the moment it does, to
    :meth:`attach` / :meth:`detach`, which patch :attr:`current` in
    place and append to :attr:`changes`.  The walk is built on first
    need by *build* (by default a fresh walk of *root*) and rebuilt once
    it turns stale; until then there is nothing to patch — the build
    reads the tree as it is.
    """

    __slots__ = ("current", "changes", "_build")

    def __init__(self, root: Node, current: _Intervals | None = None, build=None) -> None:
        #: The walk kept current so far, or None before the first build.
        self.current = current
        #: Ordered ("add"/"remove", subtree root) records.  Holding the
        #: detached roots keeps their node identities alive until the
        #: commit hook has patched them out of the per-node indexes.
        self.changes: list[tuple[str, Node]] = []
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
        self.changes.append(("add", subtree))
        if self.current is not None:
            self.current.attach(subtree)

    def detach(self, subtree: Node, parent: Node) -> None:
        self.changes.append(("remove", subtree))
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
    """One pattern's execution state on one walk, a function of the
    pattern and the document alone: the final candidate lists (None when
    one emptied), the ``engine.actual_candidates`` /
    ``match.semijoin_pruned`` totals every execution adds (None: not
    counted), the join's indexes, each built on first use and published
    whole, and — for an entry a walk keeps — the plan chosen from these
    lists (:func:`_planned`)."""

    __slots__ = (
        "pattern", "labels", "join_groups", "candidates", "actual", "pruned",
        "positions", "by_parent", "plan",
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
        self.plan: Plan | None = None

    def positions_of(self, pattern_node: PatternNode, intervals: _Intervals) -> list[int]:
        """The pre-order numbers of *pattern_node*'s final candidates."""
        positions = self.positions.get(pattern_node)
        if positions is None:
            positions = intervals.positions(self.candidates[pattern_node])
            self.positions[pattern_node] = positions
        return positions


def _scan(pattern, root: Node, intervals: _Intervals | None, use_label_index: bool):
    """*pattern*'s candidate lists on the walk *intervals* of *root*: the
    label index (or full) scan and local filter, then the anchored
    filter; without a walk, the root probe of :func:`iter_plan`.
    Returns the entry (its ``candidates`` None when a list emptied) and
    the lists scanned so far, by pattern node."""
    join_vars = pattern.join_variables()
    positive = pattern.positive_nodes()
    labels = {pattern_node.label for pattern_node in positive}
    entry = _Prepared(pattern, None if None in labels else frozenset(labels), join_vars)
    if intervals is None:
        probed = _local_filter(pattern.root, [root], join_vars)
        if probed:
            entry.actual, entry.candidates = 1, {pattern.root: probed}
        return entry, {pattern.root: probed}
    index, everything = intervals.label_index, intervals.all_nodes
    candidates: dict[PatternNode, list[Node]] = {}
    entry.actual = 0
    for pattern_node in positive:
        if use_label_index and pattern_node.label is not None:
            base = index.get(pattern_node.label, [])
        else:
            base = everything
        kept = candidates[pattern_node] = _local_filter(pattern_node, base, join_vars)
        entry.actual += len(kept)
        if not kept:
            return entry, candidates

    if pattern.anchored:
        candidates[pattern.root] = [n for n in candidates[pattern.root] if n is root]
        if not candidates[pattern.root]:
            return entry, candidates
    entry.candidates = candidates
    return entry, candidates


def _semijoin(entry: _Prepared, intervals: _Intervals) -> None:
    """Prune *entry*'s lists bottom-up: a candidate survives only when
    every required pattern child keeps a candidate in the right axis
    relation to it.  Sets ``candidates`` to None when a list empties."""
    candidates = entry.candidates
    # Children come later in pre-order, so their lists are final when
    # their parent is pruned: a descendant edge's positions are kept.
    for pattern_node in reversed(entry.pattern.positive_nodes()):
        tests = []
        for child in pattern_node.children:
            if child.negated:
                continue
            if child.descendant:  # lo < hi: a descendant in range
                numbers = entry.positions_of(child, intervals)
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
            entry.candidates = None
            return
        candidates[pattern_node] = survivors


def _prepare(plan: Plan, root: Node, intervals: _Intervals | None) -> _Prepared:
    """The candidate lists the toggles of *plan* ask for, on the walk
    *intervals* of *root* (None: the root probe)."""
    entry, _ = _scan(plan.pattern, root, intervals, plan.use_label_index)
    if entry.candidates is not None and plan.use_semijoin_pruning:
        _semijoin(entry, intervals)
    return entry


def _planned(pattern, root: Node, walk: _Intervals) -> _Prepared:
    """*pattern*'s entry for a walk to keep: its label-index scan and
    filters, the semi-join when the exact list sizes say it pays, then
    the plan chosen from the resulting lists
    (:func:`~repro.engine.planner.plan_prepared`)."""
    entry, scanned = _scan(pattern, root, walk, True)
    sizes = [len(nodes) for nodes in scanned.values()]
    semijoin = entry.candidates is not None and semijoin_pays(sizes)
    if semijoin:
        _semijoin(entry, walk)
    entry.plan = plan_prepared(pattern, entry, walk, sizes, semijoin)
    return entry


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
            positions = prepared.positions_of(pattern_node, self._intervals)
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
    prepared: _Prepared | None = None,
    bound=None,
    prune=None,
) -> Iterator[Match]:
    """Run *plan* against the tree at *root*, streaming matches lazily.

    This is the engine's streaming protocol: the preparation runs when
    iteration starts, then the backtracking join yields matches one at
    a time, so a consumer that stops pulling aborts the enumeration.

    *runtime* supplies the semantic knobs (``max_matches`` — applied
    here as a hard cap — and ``honor_negation``); the strategy toggles
    come from the plan.  *intervals* lets a long-lived caller reuse the
    document walk across executions; it must have been built for *root*
    in its current state.  Without it a throw-away walk is made —
    except for an anchored single-node pattern, which needs none.
    *prepared*, with *intervals*, is the walk's kept entry whose plan
    *plan* is (:meth:`_Intervals.prepared`): its lists and indexes are
    used as they are.  *bound*/*prune* switch on probability-bounded
    enumeration — see :meth:`BacktrackJoin.iter_matches`.
    """
    process_registry.incr("engine.plans_executed")
    if prepared is None:
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
