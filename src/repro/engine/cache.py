"""LRU plan cache keyed by (pattern fingerprint, statistics version).

Warehouse workloads repeat queries (the paper's consumers poll the
same patterns as the imprecise modules feed updates in), so plan
construction — stats lookups plus the greedy ordering — should be paid
once per (query, document-state) pair.  The statistics version is part
of the key: any committed update bumps it, so plans priced against
stale statistics age out naturally instead of being served wrong.

Mirrors the ``TreePatternCache`` idea from the treematcher exemplar in
SNIPPETS.md, specialised to plans and bounded by LRU eviction.

Thread safety: all operations are serialized by an internal lock (the
LRU reordering of :class:`~collections.OrderedDict` is not safe under
concurrent access), so the cache may be shared by the serving layer's
reader threads; cached :class:`Plan` objects are immutable.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.engine.planner import Plan
from repro.obs.metrics import process_registry

__all__ = ["PlanCache"]


class PlanCache:
    """A bounded LRU map from (fingerprint, stats version) to :class:`Plan`."""

    __slots__ = ("_capacity", "_entries", "_lock", "hits", "misses", "evictions")

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"plan cache capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._entries: OrderedDict[tuple[str, int], Plan] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, fingerprint: str, stats_version: int) -> Plan | None:
        """The cached plan for the key, refreshing its LRU position."""
        key = (fingerprint, stats_version)
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self.misses += 1
                process_registry.incr("engine.plan_cache_misses")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        process_registry.incr("engine.plan_cache_hits")
        return plan

    def put(self, plan: Plan) -> None:
        """Insert *plan* under its own (fingerprint, stats version) key."""
        key = (plan.fingerprint, plan.stats_version)
        evictions = 0
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                evictions += 1
        for _ in range(evictions):
            process_registry.incr("engine.plan_cache_evictions")

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self._capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __repr__(self) -> str:
        return (
            f"PlanCache({len(self._entries)}/{self._capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
