"""Per-document statistics feeding the cost-based planner.

The planner needs cheap, already-aggregated facts about the document to
price candidate sets and axis steps without touching the tree again:
how many nodes carry each label, how many of those are valued leaves,
how many distinct values each label carries, and the shape of the tree
(depth and fan-out distributions).  :func:`collect_stats` gathers all
of it in **one pre-order pass**.

Documents mutate (updates attach and detach subtrees), so statistics
carry a *version*.  :class:`DocumentStats` wraps a root provider with
lazy recomputation: writers call :meth:`DocumentStats.invalidate` after
each mutation, which bumps the version and drops the snapshot; the next
reader recomputes.  The version also keys the plan cache
(:mod:`repro.engine.cache`), so a stale plan can never be served for a
changed document.

Incremental maintenance: a full recollection walks the whole document,
which the warehouse's commit path cannot afford per update.  Mutators
instead record what they touched in a :class:`StatsDelta` (subtrees
attached, subtrees detached, child-count transitions) and hand it to
:meth:`DocumentStats.apply_delta`, which adjusts the counts in place.
An empty delta (the update changed nothing structurally) keeps the
version — and with it every cached plan — while a non-empty delta bumps
the version so stale plans age out, exactly as a full invalidation
would.  The only statistics that cannot always be maintained exactly
under removals are the maxima (depth, fan-out): when a removal might
have lowered one, the snapshot is dropped and the next reader pays one
full recollection.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.obs.metrics import process_registry
from repro.trees.node import Node

__all__ = ["TreeStats", "StatsDelta", "collect_stats", "DocumentStats"]


@dataclass(frozen=True)
class TreeStats:
    """A one-pass statistical summary of a data tree.

    All per-label maps are keyed by node label.  ``sum_depth`` doubles
    as the number of (proper ancestor, descendant) pairs in the tree —
    each node at depth *d* is a descendant of exactly *d* ancestors —
    which is what the descendant-axis selectivity estimate needs.
    """

    node_count: int
    leaf_count: int
    valued_count: int
    max_depth: int
    sum_depth: int
    max_fanout: int
    label_counts: dict[str, int] = field(default_factory=dict)
    valued_counts: dict[str, int] = field(default_factory=dict)
    internal_counts: dict[str, int] = field(default_factory=dict)
    distinct_values: dict[str, int] = field(default_factory=dict)
    distinct_values_total: int = 0

    @property
    def avg_depth(self) -> float:
        return self.sum_depth / self.node_count if self.node_count else 0.0

    @property
    def avg_fanout(self) -> float:
        internal = self.node_count - self.leaf_count
        return (self.node_count - 1) / internal if internal else 0.0

    @property
    def avg_descendants(self) -> float:
        """Expected number of proper descendants of a uniformly drawn node."""
        return self.sum_depth / self.node_count if self.node_count else 0.0

    def count_for_label(self, label: str | None) -> int:
        """Nodes carrying *label* (all nodes for the wildcard)."""
        if label is None:
            return self.node_count
        return self.label_counts.get(label, 0)

    def as_dict(self) -> dict:
        """Flat summary for CLI display and logs."""
        return {
            "nodes": self.node_count,
            "leaves": self.leaf_count,
            "valued_leaves": self.valued_count,
            "labels": len(self.label_counts),
            "distinct_values": self.distinct_values_total,
            "max_depth": self.max_depth,
            "avg_depth": round(self.avg_depth, 3),
            "max_fanout": self.max_fanout,
            "avg_fanout": round(self.avg_fanout, 3),
        }


class StatsDelta:
    """Structural changes of one commit, recorded at the mutation sites.

    Mutators call the ``record_*`` methods as they attach and detach
    subtrees; :meth:`DocumentStats.apply_delta` folds the result into
    the maintained counts.  A delta never inspects the whole document —
    every record walks only the subtree being moved.
    """

    __slots__ = (
        "node_count",
        "leaf_count",
        "valued_count",
        "sum_depth",
        "label_counts",
        "valued_counts",
        "internal_counts",
        "value_deltas",
        "added_max_depth",
        "removed_max_depth",
        "added_max_fanout",
        "removed_max_fanout",
        "recorded",
        "subtree_changes",
    )

    def __init__(self) -> None:
        self.node_count = 0
        self.leaf_count = 0
        self.valued_count = 0
        self.sum_depth = 0
        self.label_counts: dict[str, int] = {}
        self.valued_counts: dict[str, int] = {}
        self.internal_counts: dict[str, int] = {}
        self.value_deltas: dict[tuple[str, str], int] = {}
        self.added_max_depth = -1
        self.removed_max_depth = -1
        self.added_max_fanout = 0
        self.removed_max_fanout = 0
        self.recorded = False
        #: Ordered ("add"/"remove", subtree root) records.  Beyond the
        #: aggregated counts, consumers that maintain per-node state
        #: (the engine's ancestor-condition index) need the actual
        #: subtrees a commit touched; holding the detached roots here
        #: also keeps their node identities alive until the delta is
        #: consumed, so removal patches can never race an id reuse.
        self.subtree_changes: list[tuple[str, Node]] = []

    @property
    def is_empty(self) -> bool:
        """True when no mutation was recorded (document unchanged)."""
        return not self.recorded

    def record_subtree_added(self, root: Node, depth: int) -> None:
        """A subtree was attached with its root at absolute *depth*."""
        self.subtree_changes.append(("add", root))
        self._record(root, depth, 1)

    def record_subtree_removed(self, root: Node, depth: int) -> None:
        """A subtree rooted at absolute *depth* was detached."""
        self.subtree_changes.append(("remove", root))
        self._record(root, depth, -1)

    def record_child_count_change(self, label: str, before: int, after: int) -> None:
        """A kept node with *label* went from *before* to *after* children.

        Captures leaf/internal transitions of the anchor or parent node
        and fan-out movements that :meth:`DocumentStats.apply_delta`
        needs to decide whether the maintained maxima survive.
        """
        if before == after:
            return
        self.recorded = True
        if before == 0:
            self.leaf_count -= 1
            self.internal_counts[label] = self.internal_counts.get(label, 0) + 1
        elif after == 0:
            self.leaf_count += 1
            self.internal_counts[label] = self.internal_counts.get(label, 0) - 1
        if after > before:
            if after > self.added_max_fanout:
                self.added_max_fanout = after
        elif before > self.removed_max_fanout:
            self.removed_max_fanout = before

    def _record(self, root: Node, depth: int, sign: int) -> None:
        self.recorded = True
        stack: list[tuple[Node, int]] = [(root, depth)]
        while stack:
            node, d = stack.pop()
            self.node_count += sign
            self.sum_depth += sign * d
            label = node.label
            self.label_counts[label] = self.label_counts.get(label, 0) + sign
            children = node.children
            if children:
                self.internal_counts[label] = (
                    self.internal_counts.get(label, 0) + sign
                )
                fanout = len(children)
                if sign > 0:
                    if fanout > self.added_max_fanout:
                        self.added_max_fanout = fanout
                elif fanout > self.removed_max_fanout:
                    self.removed_max_fanout = fanout
                for child in children:
                    stack.append((child, d + 1))
            else:
                self.leaf_count += sign
                if sign > 0:
                    if d > self.added_max_depth:
                        self.added_max_depth = d
                elif d > self.removed_max_depth:
                    self.removed_max_depth = d
            if node.value is not None:
                self.valued_count += sign
                self.valued_counts[label] = self.valued_counts.get(label, 0) + sign
                key = (label, node.value)
                self.value_deltas[key] = self.value_deltas.get(key, 0) + sign

    def __repr__(self) -> str:
        if self.is_empty:
            return "StatsDelta(empty)"
        return (
            f"StatsDelta(nodes{self.node_count:+d}, "
            f"labels={len(self.label_counts)})"
        )


class _StatsAccumulator:
    """Mutable counterpart of :class:`TreeStats`, incrementally adjustable.

    Holds, beyond the frozen snapshot's fields, the per-label value
    occurrence counters that make ``distinct_values`` maintainable under
    removals (a distinct value disappears only when its last occurrence
    does).
    """

    __slots__ = (
        "node_count",
        "leaf_count",
        "valued_count",
        "max_depth",
        "sum_depth",
        "max_fanout",
        "label_counts",
        "valued_counts",
        "internal_counts",
        "value_counts",
        "total_value_counts",
    )

    def __init__(self) -> None:
        self.node_count = 0
        self.leaf_count = 0
        self.valued_count = 0
        self.max_depth = 0
        self.sum_depth = 0
        self.max_fanout = 0
        self.label_counts: dict[str, int] = {}
        self.valued_counts: dict[str, int] = {}
        self.internal_counts: dict[str, int] = {}
        self.value_counts: dict[str, dict[str, int]] = {}
        self.total_value_counts: dict[str, int] = {}

    def add_tree(self, root: Node, depth: int = 0) -> None:
        stack: list[tuple[Node, int]] = [(root, depth)]
        while stack:
            node, d = stack.pop()
            self.node_count += 1
            self.sum_depth += d
            if d > self.max_depth:
                self.max_depth = d
            label = node.label
            self.label_counts[label] = self.label_counts.get(label, 0) + 1
            children = node.children
            if children:
                self.internal_counts[label] = (
                    self.internal_counts.get(label, 0) + 1
                )
                if len(children) > self.max_fanout:
                    self.max_fanout = len(children)
                for child in children:
                    stack.append((child, d + 1))
            else:
                self.leaf_count += 1
            if node.value is not None:
                self.valued_count += 1
                self.valued_counts[label] = self.valued_counts.get(label, 0) + 1
                per_label = self.value_counts.setdefault(label, {})
                per_label[node.value] = per_label.get(node.value, 0) + 1
                self.total_value_counts[node.value] = (
                    self.total_value_counts.get(node.value, 0) + 1
                )

    def apply(self, delta: StatsDelta) -> bool:
        """Fold *delta* in; False when the result cannot be maintained exactly.

        A False return means the caller must fall back to a full
        recollection: either a removal may have lowered a maximum, or an
        invariant went negative (the delta does not describe this tree).
        """
        # Maxima first: a removal reaching the current maximum may have
        # taken its only witness.  An addition in the same delta cannot
        # vouch for it — the commit may have inserted deep material and
        # then deleted it again, so aggregated add/remove extents lose
        # the ordering needed to reason it out.  Recompute.
        new_max_depth = self.max_depth
        if 0 <= delta.removed_max_depth and delta.removed_max_depth >= self.max_depth:
            return False
        if delta.added_max_depth > new_max_depth:
            new_max_depth = delta.added_max_depth
        new_max_fanout = self.max_fanout
        if delta.removed_max_fanout > 0 and delta.removed_max_fanout >= self.max_fanout:
            return False
        if delta.added_max_fanout > new_max_fanout:
            new_max_fanout = delta.added_max_fanout

        node_count = self.node_count + delta.node_count
        leaf_count = self.leaf_count + delta.leaf_count
        valued_count = self.valued_count + delta.valued_count
        sum_depth = self.sum_depth + delta.sum_depth
        if min(node_count, leaf_count, valued_count, sum_depth) < 0 or node_count == 0:
            return False
        if not _merge_counts(self.label_counts, delta.label_counts):
            return False
        if not _merge_counts(self.valued_counts, delta.valued_counts):
            return False
        if not _merge_counts(self.internal_counts, delta.internal_counts):
            return False
        for (label, value), change in delta.value_deltas.items():
            per_label = self.value_counts.setdefault(label, {})
            count = per_label.get(value, 0) + change
            if count < 0:
                return False
            if count:
                per_label[value] = count
            else:
                per_label.pop(value, None)
                if not per_label:
                    del self.value_counts[label]
            total = self.total_value_counts.get(value, 0) + change
            if total < 0:
                return False
            if total:
                self.total_value_counts[value] = total
            else:
                self.total_value_counts.pop(value, None)

        self.node_count = node_count
        self.leaf_count = leaf_count
        self.valued_count = valued_count
        self.sum_depth = sum_depth
        self.max_depth = new_max_depth
        self.max_fanout = new_max_fanout
        return True

    def freeze(self) -> TreeStats:
        return TreeStats(
            node_count=self.node_count,
            leaf_count=self.leaf_count,
            valued_count=self.valued_count,
            max_depth=self.max_depth,
            sum_depth=self.sum_depth,
            max_fanout=self.max_fanout,
            label_counts=dict(self.label_counts),
            valued_counts=dict(self.valued_counts),
            internal_counts=dict(self.internal_counts),
            distinct_values={
                label: len(values) for label, values in self.value_counts.items()
            },
            distinct_values_total=len(self.total_value_counts),
        )


def _merge_counts(target: dict[str, int], deltas: dict[str, int]) -> bool:
    """Add *deltas* into *target* dropping zeros; False on a negative count."""
    for key, change in deltas.items():
        count = target.get(key, 0) + change
        if count < 0:
            return False
        if count:
            target[key] = count
        else:
            target.pop(key, None)
    return True


def collect_stats(root: Node) -> TreeStats:
    """Collect :class:`TreeStats` for the tree rooted at *root* in one pass."""
    process_registry.incr("engine.stats_collected")
    accumulator = _StatsAccumulator()
    accumulator.add_tree(root)
    return accumulator.freeze()


class DocumentStats:
    """Versioned, incrementally maintained statistics for a mutable document.

    Parameters
    ----------
    root_provider:
        Zero-argument callable returning the document's *current* root.
        A callable (rather than a node) because some stores replace the
        root object wholesale on load/rollback.
    """

    __slots__ = ("_root_provider", "_version", "_accumulator", "_snapshot")

    def __init__(self, root_provider: Callable[[], Node]) -> None:
        self._root_provider = root_provider
        self._version = 0
        self._accumulator: _StatsAccumulator | None = None
        self._snapshot: TreeStats | None = None

    @property
    def version(self) -> int:
        """Monotone counter; bumped by every document change."""
        return self._version

    def invalidate(self) -> None:
        """Mark the document as changed; the next read recomputes."""
        self._version += 1
        self._accumulator = None
        self._snapshot = None
        process_registry.incr("engine.stats_invalidated")

    def apply_delta(self, delta: StatsDelta | None) -> None:
        """Fold a commit's :class:`StatsDelta` into the maintained counts.

        ``None`` (the mutation was not tracked) degrades to a full
        :meth:`invalidate`.  An empty delta keeps the version — cached
        plans stay valid for a document that did not change.  Otherwise
        the version bumps (stale plans age out) and the counts are
        adjusted in place; when the delta cannot be maintained exactly
        (a removal may have lowered a maximum), the snapshot is dropped
        and the next reader recollects.
        """
        if delta is None:
            self.invalidate()
            return
        if delta.is_empty:
            process_registry.incr("engine.stats_delta_noop")
            return
        self._version += 1
        if self._accumulator is None:
            return  # nothing maintained yet; next read collects fresh
        if self._accumulator.apply(delta):
            self._snapshot = self._accumulator.freeze()
            process_registry.incr("engine.stats_delta_applied")
        else:
            self._accumulator = None
            self._snapshot = None
            process_registry.incr("engine.stats_delta_recollected")

    def current(self) -> TreeStats:
        """The statistics for the current document state (recomputing lazily)."""
        if self._snapshot is None:
            process_registry.incr("engine.stats_collected")
            accumulator = _StatsAccumulator()
            accumulator.add_tree(self._root_provider())
            self._accumulator = accumulator
            self._snapshot = accumulator.freeze()
        return self._snapshot

    def __repr__(self) -> str:
        state = "fresh" if self._snapshot is not None else "stale"
        return f"DocumentStats(version={self._version}, {state})"
