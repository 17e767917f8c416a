"""Ancestor-condition index: per-node *closed* conditions.

The probability pipeline of slide 13 needs, for every data node a match
maps, the conjunction of the node's condition with **all** its
ancestors' conditions (a node exists in a world only when its whole
ancestor chain does).  Computed naively that is an O(depth) Python walk
per mapped node per match — the dominant per-row cost once matching
itself is planned and streamed.

:class:`AncestorConditionIndex` precomputes the *closed* condition of
every fuzzy node — the interned :class:`~repro.events.condition.Condition`
over the frozenset union of its own and all ancestors' literals — so
:func:`~repro.core.query.match_condition` becomes a small union of
precomputed frozensets.  Closed conditions are built during the
engine's single document walk (the :class:`~repro.engine.executor._Intervals`
traversal calls :meth:`observe` per node) and **patched incrementally**
at every commit: the writer's walk handle
(:class:`~repro.engine.executor._WriterWalk`) records each subtree the
warehouse attaches or detaches, in order, and since updates never
mutate a *kept* node's condition in place (deletions detach the target
and attach fresh survivor copies), patching the touched subtrees keeps
the whole index exact without a re-walk.  Untracked mutations must drop
the index (``QueryEngine.invalidate`` does), exactly as they must drop
the walks and the plans they keep.

Entries are keyed by node identity.  Removal patches pop the detached
subtree's ids while the record still holds the nodes alive, so a later
id reuse can never be served a stale closure.  Sharing keeps the index
light: a node whose own condition is empty *shares* its parent's closed
condition object, so sparse condition densities store few distinct
conditions.

:class:`ProbabilityBound` folds those closures into an upper bound on
a partial match's probability, which the backtracking join of a top-k
or thresholded query prunes with.
"""

from __future__ import annotations

from repro.core.fuzzy_tree import FuzzyNode
from repro.events.condition import Condition

__all__ = ["AncestorConditionIndex", "ProbabilityBound"]


class AncestorConditionIndex:
    """Closed (self ∧ ancestors) conditions, per fuzzy node."""

    __slots__ = ("root_id", "_closed")

    def __init__(self, root_id: int) -> None:
        #: Identity of the root this index was built for.  Copy-on-write
        #: swaps (a writer detaching pinned readers) replace the whole
        #: tree; the owner compares this against its current root and
        #: rebuilds on mismatch.
        self.root_id = root_id
        self._closed: dict[int, Condition] = {}

    @classmethod
    def build(cls, root: FuzzyNode) -> "AncestorConditionIndex":
        """Build the index for a whole tree in one pre-order walk."""
        index = cls(id(root))
        observe = index.observe
        for node in root.iter():
            observe(node)
        return index

    # ------------------------------------------------------------------
    # Construction / maintenance
    # ------------------------------------------------------------------

    def observe(self, node: FuzzyNode) -> None:
        """Record *node*'s closed condition (its parent's must be known
        or computable — pre-order walks guarantee it)."""
        self._closed[id(node)] = self._closed_for(node)

    def add_subtree(self, root: FuzzyNode) -> None:
        """Patch in an attached subtree (closures derived from its
        current parent chain)."""
        for node in root.iter():
            self._closed[id(node)] = self._closed_for(node)

    def remove_subtree(self, root: FuzzyNode) -> None:
        """Patch out a detached subtree (by the node identities it still
        holds)."""
        closed = self._closed
        for node in root.iter():
            closed.pop(id(node), None)

    def apply_changes(self, changes) -> None:
        """Apply a commit's ordered (kind, subtree-root) patch list."""
        for kind, node in changes:
            if kind == "add":
                self.add_subtree(node)
            else:
                self.remove_subtree(node)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def closed_condition(self, node: FuzzyNode) -> Condition:
        """The interned conjunction of *node*'s and its ancestors' literals.

        May be inconsistent (``allow_inconsistent`` construction): a
        node whose closure is inconsistent exists in no world, and the
        caller decides what that means for its match.  Unknown nodes
        fall back to an upward walk that stops at the nearest indexed
        ancestor and caches the chain on the way back down.
        """
        closed = self._closed.get(id(node))
        if closed is None:
            closed = self._closed_for(node)
            self._closed[id(node)] = closed
        return closed

    def _closed_for(self, node: FuzzyNode) -> Condition:
        parent = node.parent
        if parent is None:
            return node.condition
        base = self._closed.get(id(parent))
        if base is None:
            # Walk up to the nearest indexed ancestor (iteratively — no
            # recursion budget on deep trees), caching the chain on the
            # way back down.
            chain: list[FuzzyNode] = []
            walk: FuzzyNode | None = parent
            base = None
            while walk is not None:
                cached = self._closed.get(id(walk))
                if cached is not None:
                    base = cached
                    break
                chain.append(walk)
                walk = walk.parent  # type: ignore[assignment]
            for member in reversed(chain):
                base = _extend(base, member.condition)
                self._closed[id(member)] = base
        return _extend(base, node.condition)

    def __len__(self) -> int:
        return len(self._closed)

    def __repr__(self) -> str:
        return f"AncestorConditionIndex({len(self._closed)} nodes)"


def _extend(base: Condition | None, condition: Condition) -> Condition:
    """``base ∧ condition`` with object sharing for the trivial cases."""
    if base is None or base.is_true:
        return condition
    if condition.is_true:
        return base  # shared object: sparse conditions stay O(1)
    return Condition(base.literals | condition.literals, allow_inconsistent=True)


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
