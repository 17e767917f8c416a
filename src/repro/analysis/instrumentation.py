"""Lightweight global counters and timers.

The "complexity analysis" perspective of the paper (slide 19) is served
by instrumenting the hot paths: the TPWJ matcher counts candidates and
partial assignments, the update engine counts survivor copies, the
semantics module counts enumerated worlds.  Benchmarks snapshot and
reset these counters around measured sections (E5, E9).

A single process-global :data:`counters` instance keeps the hot-path
cost to one dictionary increment; everything is explicit — no decorators
or import-time magic.

Instrumentation can be switched off entirely (:meth:`Counters.disable`
or the :meth:`Counters.disabled` context manager): :meth:`Counters.incr`
then returns before touching the dictionary, and the hottest loops
(matching, the per-match probability pipeline) read the
:attr:`Counters.enabled` flag **once per query** and skip the calls
altogether — timing-sensitive benchmarks measure the algorithms, not
the bookkeeping.

Counter updates are serialized by an internal lock: the serving layer
increments them from concurrent reader threads (plan-cache hits, match
counts), and an unlocked read-modify-write would silently lose
increments.  The lock is uncontended in single-threaded benchmarking
and skipped entirely when instrumentation is disabled.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

__all__ = ["Counters", "counters"]


class Counters:
    """A named-counter registry with stopwatch support."""

    __slots__ = ("_values", "_lock", "enabled")

    def __init__(self) -> None:
        self._values: dict[str, float] = {}
        self._lock = threading.Lock()
        #: When False, :meth:`incr` is a no-op.  Hot loops may hoist
        #: this flag into a local at the top of a query instead of
        #: paying an attribute read plus a call per iteration.
        self.enabled = True

    def incr(self, name: str, amount: float = 1) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._values[name] = self._values.get(name, 0) + amount

    def enable(self) -> None:
        """Turn instrumentation on (the default)."""
        self.enabled = True

    def disable(self) -> None:
        """Turn instrumentation off; :meth:`incr` becomes a no-op."""
        self.enabled = False

    @contextmanager
    def disabled(self):
        """Context manager: instrumentation off inside the body."""
        previous = self.enabled
        self.enabled = False
        try:
            yield self
        finally:
            self.enabled = previous

    def get(self, name: str) -> float:
        return self._values.get(name, 0)

    def reset(self) -> None:
        with self._lock:
            self._values.clear()

    def snapshot(self) -> dict[str, float]:
        """A point-in-time copy of all counters."""
        with self._lock:
            return dict(self._values)

    def prefixed(self, prefix: str) -> dict[str, float]:
        """All counters whose name starts with *prefix* (sorted by name).

        The engine's planner counters live under ``engine.`` —
        ``engine.stats_collected``, ``engine.plans_built``,
        ``engine.plans_executed``, ``engine.plan_cache_hits`` /
        ``..._misses`` / ``..._evictions``,
        ``engine.estimated_candidates`` and
        ``engine.actual_candidates`` — so ``prefixed("engine.")``
        returns the planner's whole dashboard in one call.
        ``engine.plans_executed`` and ``engine.actual_candidates``
        count every execution, fixed-plan runs included (update-target
        location, WAL replay, ``planner=False``): there is one executor.
        """
        # Snapshot under the lock: a concurrent incr inserting a new
        # key mid-iteration would otherwise raise "dictionary changed
        # size during iteration" in a serving-thread dashboard read.
        with self._lock:
            values = dict(self._values)
        return {
            name: value
            for name, value in sorted(values.items())
            if name.startswith(prefix)
        }

    @contextmanager
    def timed(self, name: str):
        """Accumulate wall-clock seconds spent in the body under *name*."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.incr(name, time.perf_counter() - start)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in sorted(self.snapshot().items()))
        return f"Counters({body})"


#: Process-global counter registry used by the matcher, the update
#: engine and the possible-worlds semantics.
counters = Counters()
