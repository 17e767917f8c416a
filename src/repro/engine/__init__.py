"""Query engine for TPWJ evaluation: one executor, two planners.

Every match in the system is enumerated by this subsystem's operators.
``find_matches(pattern, root)`` runs them under the *fixed* plan a
:class:`~repro.tpwj.match.MatchConfig` spells out (pre-order visit,
hand-set ablation toggles, a throw-away document walk), and updates run
that plan on the walk their writer keeps current; the rest of
this package chooses the strategy *per query* from the document itself,
the way a database optimizer does — except that its inputs are exact:

* :mod:`repro.engine.planner` — the choice of visit order and physical
  operators from the exact candidate lists a document walk prepared,
  producing an explainable :class:`Plan` (and
  :func:`~repro.engine.planner.fixed_plan`, the toggle-driven one);
* :mod:`repro.engine.executor` — the document walk, which keeps each
  query's plan together with its preparation, and the physical
  operators that run any plan and return ordinary
  :class:`~repro.tpwj.match.Match` objects;
* :mod:`repro.engine.conditions` — the ancestor-condition index the
  probability path reads, and the probability bound a top-k join
  prices partial matches with.

:class:`QueryEngine` ties them together for a long-lived document (the
warehouse holds one per open handle); the one-shot path is
``find_matches(pattern, root, plan="auto")``.

Thread safety (the serving layer's contract)
--------------------------------------------
A :class:`QueryEngine` may be shared by many reader threads and one
writer thread (the single-writer / multi-reader shape of the
warehouse).  Every mutable structure is protected:

* commit bookkeeping and walk/index installation happen under the
  engine's internal re-entrant lock;
* the :class:`~repro.events.dnf.ShannonCache` carries its own internal
  lock (it is hit from outside the engine lock);
* the document walk (interval numbering + label index + kept plans)
  and the ancestor-condition index are **per-root views**: immutable
  once built for a pinned (frozen) generation, apart from kept entries,
  each published whole, so match enumeration and condition lookups run
  lock-free after the initial, locked construction.  Only the *live*
  root's view is ever patched, under the lock: the writer patches its
  walk at every subtree a commit attaches or detaches
  (:meth:`QueryEngine.mutating`), and the commit hook patches its
  condition index from the same records (:meth:`QueryEngine.commit`).
  One walk thus serves a document generation across its commits.

Pinned generations are frozen by the warehouse's copy-on-write
contract, so their views can never go stale; the warehouse calls
:meth:`QueryEngine.forget_root` when the last pin on a generation is
released, and a small LRU bound caps the registry for other callers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from time import perf_counter

from repro.core.fuzzy_tree import FuzzyNode
from repro.engine.conditions import AncestorConditionIndex, ProbabilityBound
from repro.engine.executor import _Intervals, _WriterWalk, iter_plan, iter_rekeyed
from repro.engine.planner import Plan, PlanStep, build_plan, pattern_fingerprint
from repro.events.dnf import ShannonCache
from repro.tpwj.match import DEFAULT_CONFIG, Match, MatchConfig
from repro.tpwj.pattern import Pattern
from repro.trees.node import Node

__all__ = [
    "QueryEngine",
    "AncestorConditionIndex",
    "ProbabilityBound",
    "Plan",
    "PlanStep",
    "ShannonCache",
    "build_plan",
    "iter_plan",
    "iter_rekeyed",
    "pattern_fingerprint",
]


class _RootView:
    """Executor state bound to one root object (one document generation).

    Holds a strong reference to the root: the registry key is
    ``id(root)``, and the reference guarantees the id can never be
    recycled by an unrelated object while the view is registered (a
    recycled id served a stale walk or — worse — a stale closed
    condition).
    """

    __slots__ = ("root", "commits", "intervals", "conditions")

    def __init__(self, root: Node) -> None:
        self.root = root
        #: The engine's commit count when the walk was built — only
        #: meaningful for the *live* root (frozen roots never change).
        self.commits: int | None = None
        self.intervals: _Intervals | None = None
        self.conditions: AncestorConditionIndex | None = None


class QueryEngine:
    """Planner, document walks and condition indexes for one (mutable)
    document.

    Parameters
    ----------
    root_provider:
        Zero-argument callable returning the document's current root.
    max_root_views:
        Maximum number of per-root walk/index views kept at once (the
        live root plus recently used pinned generations).  Views for
        released generations are dropped eagerly by
        :meth:`forget_root`; the bound is a backstop for callers that
        never release.
    observability:
        Optional :class:`~repro.obs.Observability` panel: planning and
        view construction then emit phase spans (``plan_build``,
        ``view_build``, ``condition_index_patch``) into the active trace
        and latency histograms into the registry.  ``None`` (the
        default for standalone engines) attaches nothing and pays
        nothing.
    """

    def __init__(
        self,
        root_provider: Callable[[], Node],
        max_root_views: int = 8,
        observability=None,
    ) -> None:
        # Shared Shannon-expansion memo for every probability this
        # engine's queries compute.  Entries are keyed by the event
        # table's probability generation, so structural commits need
        # not flush it — overlapping answers keep sharing subproblems
        # across queries until a probability actually changes.
        self.shannon = ShannonCache()
        self._root_provider = root_provider
        # Serializes commit bookkeeping and per-root view installation.
        # Planning and match enumeration run outside the lock on the
        # walk they captured.
        self._lock = threading.RLock()
        # Per-root executor views, keyed by root identity (see
        # _RootView for why entries hold the root strongly).  Insertion
        # order doubles as LRU order.
        self._views: OrderedDict[int, _RootView] = OrderedDict()
        self._max_root_views = max(1, max_root_views)
        self._obs = observability
        # Bumped by every commit that changed the document and by every
        # invalidation: a live walk built at another count is not served.
        self._commits = 0

    @property
    def observability(self):
        """The attached :class:`~repro.obs.Observability` panel (or None)."""
        return self._obs

    # ------------------------------------------------------------------
    # Invalidation / incremental maintenance
    # ------------------------------------------------------------------

    @contextmanager
    def mutating(self):
        """Hold the engine lock across an in-place document mutation.

        The warehouse wraps every mutation of the live tree in this
        guard, so that :meth:`plan_for`, which walks the provider's
        *live* root under the engine lock, never reads a tree
        mid-mutation.  Lock ordering stays acyclic: writers take write
        lock → engine lock; readers take the engine lock alone (their
        snapshot pins are acquired before any engine work).

        The guard yields the writer's handle on the live root's walk
        (a :class:`~repro.engine.executor._WriterWalk`): the mutation
        locates its targets on it and reports every subtree it attaches
        or detaches as it happens, so the patched walk — with the
        entries it keeps — serves the next query.  Hand the handle to
        :meth:`commit` once the mutation is durable; a mutation that
        does not report (``simplify``) commits with ``None``.  Readers
        never see a walk mid-patch: the live root is pinned only under
        the warehouse's write lock, and a pinned generation is cloned
        before it is mutated.
        """
        with self._lock:
            live = self._root_provider()
            yield _WriterWalk(
                live, self._current_walk(live), lambda: self._intervals_for(live)
            )

    def invalidate(self) -> None:
        """Tell the engine the document changed behind its back.

        The per-root views — walks with their kept plans, condition
        indexes — and the Shannon memo are dropped: an untracked
        mutation may have rewritten conditions or event probabilities.
        """
        with self._lock:
            self._commits += 1
            self._views.clear()
            self.shannon.clear()

    def commit(self, writer: _WriterWalk | None) -> None:
        """Fold a committed mutation, recorded by *writer* (the handle
        :meth:`mutating` yielded), into the engine state.

        A mutation that changed nothing keeps everything.  Otherwise the
        commit count bumps and only the **live** root's view is touched:
        the walk the writer patched is kept — any other walk, or one
        whose free gaps ran out, is dropped — and its ancestor-condition
        index is *patched* from the writer's ordered subtree records
        rather than rebuilt (updates only attach/detach subtrees — kept
        nodes keep their conditions).  Views of pinned generations are
        frozen by the copy-on-write contract and stay valid as they are.
        The Shannon memo survives as-is: its entries are keyed by the
        event table's probability generation, which structural changes
        cannot change.  ``None`` degrades to a full :meth:`invalidate`.
        """
        if writer is None:
            self.invalidate()
            return
        if not writer.changes:
            return
        obs = self._obs
        tracing = obs is not None and obs.tracer.enabled
        with self._lock:
            self._commits += 1
            live = self._root_provider()
            view = self._views.get(id(live))
            if view is not None and view.root is live:
                walk = view.intervals
                if walk is not None and walk is writer.current and not walk.stale:
                    view.commits = self._commits
                else:
                    view.intervals = view.commits = None
                if view.conditions is not None:
                    t0 = perf_counter() if tracing else 0.0
                    view.conditions.apply_changes(writer.changes)
                    if tracing:
                        obs.tracer.emit("condition_index_patch", perf_counter() - t0)

    def forget_root(self, root: Node) -> None:
        """Drop the per-root view for *root* (a released pinned generation).

        Called by the warehouse when the last snapshot pin on a
        document generation is released; idempotent, and a no-op for
        the live root.
        """
        with self._lock:
            view = self._views.get(id(root))
            if (
                view is not None
                and view.root is root
                and root is not self._root_provider()
            ):
                del self._views[id(root)]

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan_for(self, pattern: Pattern) -> Plan:
        """The plan the live document's walk keeps for *pattern*, or
        plans and keeps now.

        Planned under the engine lock, so a concurrent writer never
        mutates the live tree under it.  Note: a kept plan's
        :attr:`Plan.pattern` may be a different — structurally identical
        — object than *pattern*; matches map the *plan's* pattern nodes.
        """
        with self._lock:
            live = self._root_provider()
            return self._prepared(pattern, live, self._intervals_for(live)).plan

    def _prepared(self, pattern: Pattern, root: Node, walk: _Intervals):
        """*pattern*'s kept entry on *walk* of *root*; a build is timed
        into the panel (``plan_build``) when one is attached."""
        return walk.prepared(
            pattern, root, None if self._obs is None else self._observe_plan_build
        )

    def _observe_plan_build(self, seconds: float) -> None:
        obs = self._obs
        if obs.tracer.enabled:
            obs.tracer.emit("plan_build", seconds)
        obs.metrics.observe("engine.plan_build_seconds", seconds)

    # ------------------------------------------------------------------
    # Per-root views
    # ------------------------------------------------------------------

    def _view(self, root: Node) -> _RootView:
        """The (LRU-refreshed) view for *root*; caller holds the lock."""
        key = id(root)
        view = self._views.get(key)
        if view is None or view.root is not root:
            view = _RootView(root)
            self._views[key] = view
        self._views.move_to_end(key)
        live = self._root_provider()
        while len(self._views) > self._max_root_views:
            for old_key, old_view in self._views.items():
                if old_view.root is not live:
                    del self._views[old_key]
                    break
            else:
                break  # only the live root is registered; keep it
        return view

    def _current_walk(self, root: Node) -> _Intervals | None:
        """*root*'s registered walk if it is still valid, else None;
        caller holds the lock.  No stale walk is valid; the live root's
        must also carry the current commit count, which :meth:`commit`
        stamps on a walk the writer kept current.  Walks of pinned
        generations are frozen and valid forever."""
        view = self._views.get(id(root))
        if view is None or view.root is not root:
            return None
        walk = view.intervals
        if walk is None or walk.stale:
            return None
        if root is self._root_provider() and view.commits != self._commits:
            return None
        return walk

    def _intervals_for(self, root: Node) -> _Intervals:
        """The document walk for *root* (building it unlocked if stale).

        See :meth:`_current_walk` for when a registered walk is reused.
        Building the walk for a fuzzy root whose condition index is also
        missing fuses the index construction into the same single pass.

        The O(n) construction runs **outside** the engine lock so a
        writer's commit never queues behind a reader's rebuild — the
        tail-latency killer of the serving shape.  This is safe because
        the engine's callers always evaluate a root they hold a
        snapshot pin on (or run single-threaded, or hold the lock, as
        :meth:`plan_for` does): the tree being walked is frozen by the
        warehouse's copy-on-write contract for as long as the pin
        lives.  Two racing builders do duplicate work; installation
        under the lock is idempotent.
        """
        with self._lock:
            view = self._view(root)
            commits = self._commits
            walk = self._current_walk(root)
            if walk is not None:
                return walk
            need_index = isinstance(root, FuzzyNode) and view.conditions is None
        index = AncestorConditionIndex(id(root)) if need_index else None
        obs = self._obs
        t0 = perf_counter() if obs is not None else 0.0
        # Chunked construction: yield the GIL periodically so a
        # committing writer never waits out a full O(n) rebuild burst.
        intervals = _Intervals(
            root,
            index.observe if index is not None else None,
            yield_every=256,
        )
        if obs is not None:
            built = perf_counter() - t0
            if obs.tracer.enabled:
                obs.tracer.emit("view_build", built, with_index=need_index)
            obs.metrics.observe("engine.view_build_seconds", built)
        with self._lock:
            view = self._view(root)  # may have been evicted meanwhile
            view.intervals = intervals
            # If the root was live when we sampled the count and a
            # commit landed during the build, copy-on-write made it a
            # frozen generation (roots never become live again), so the
            # sampled count is only consulted while it is still
            # accurate.
            view.commits = commits
            if index is not None and view.conditions is None:
                view.conditions = index
            return intervals

    def condition_index(self, root: Node | None = None) -> AncestorConditionIndex | None:
        """The ancestor-condition index for *root* (default: the live root).

        Returns None for plain (non-fuzzy) documents.  The index is
        built inside the engine's single document walk when possible
        and patched by commit deltas afterwards (live root) or frozen
        by copy-on-write (pinned roots), so between commits the lookup
        is a per-node dict hit.  Like the walk, a stale index is
        rebuilt outside the engine lock (the caller pins the root).
        """
        with self._lock:
            if root is None:
                root = self._root_provider()
            if not isinstance(root, FuzzyNode):
                return None
            view = self._view(root)
            if view.conditions is not None:
                return view.conditions
        # Fuse the build into the document walk when that is stale too;
        # otherwise (fresh walk, stale index) build standalone.
        self._intervals_for(root)
        with self._lock:
            view = self._view(root)
            if view.conditions is not None:
                return view.conditions
        index = AncestorConditionIndex.build(root)
        with self._lock:
            view = self._view(root)
            if view.conditions is None:
                view.conditions = index
            return view.conditions

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def iter_matches(
        self,
        pattern: Pattern,
        config: MatchConfig = DEFAULT_CONFIG,
        root: Node | None = None,
        *,
        bound: ProbabilityBound | None = None,
        prune=None,
    ) -> "Iterator[Match]":
        """Plan (or reuse the kept plan) and stream matches for *pattern*.

        The streaming protocol end to end: the walk serves the plan and
        the preparation it keeps for *pattern*'s fingerprint (or plans
        and keeps them now), execution yields matches one at a time (a
        consumer that stops pulling — top-k — aborts the backtracking;
        the config's ``max_matches`` additionally caps it).  Yielded
        matches are keyed by *pattern*'s own nodes even when the plan
        was kept from an earlier, structurally identical pattern object.

        *root*, when given, evaluates against that root object instead
        of the provider's current one — this is how pinned snapshot
        readers stay on their frozen generation while the live document
        moves on.  Walk installation happens under the engine lock;
        planning and enumeration run lock-free on the captured walk.

        *bound* and *prune* (always together) switch on the
        probability-bounded join: every candidate binding is priced via
        ``bound.bind`` and skipped when ``prune(upper)`` says the
        branch cannot contribute.  Bounded runs share the plain plan.
        """
        if root is None:
            with self._lock:
                root = self._root_provider()
        intervals = self._intervals_for(root)
        entry = self._prepared(pattern, root, intervals)
        matches = iter_plan(
            entry.plan, root, config, intervals=intervals, prepared=entry,
            bound=bound, prune=prune,
        )
        # The walk keyed the entry by this pattern's fingerprint, so the
        # shapes are identical; re-key onto the caller's nodes.
        yield from iter_rekeyed(entry.plan, pattern, matches)

    def find_matches(
        self,
        pattern: Pattern,
        config: MatchConfig = DEFAULT_CONFIG,
        root: Node | None = None,
    ) -> list[Match]:
        """Plan (or reuse the kept plan) and execute *pattern* on the
        current document.

        The returned matches are keyed by *pattern*'s own nodes even
        when the plan was kept from an earlier, structurally identical
        pattern object.
        """
        return list(self.iter_matches(pattern, config, root=root))

    def explain(self, pattern: Pattern) -> str:
        """Human-readable plan, with the candidate counts that chose it."""
        lines = [self.plan_for(pattern).explain()]
        shannon = self.shannon.stats()
        lines.append(
            f"shannon cache: {shannon['entries']}/{shannon['capacity']} entries, "
            f"{shannon['hits']} hits, {shannon['misses']} misses"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"QueryEngine({len(self._views)} views, {self._commits} commits)"
