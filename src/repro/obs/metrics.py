"""Thread-safe metrics: counters, gauges, fixed-bucket histograms.

The :class:`MetricsRegistry` is the numeric half of the observability
layer (:mod:`repro.obs`): named counters and gauges plus latency
histograms with **fixed bucket bounds** — quantiles (p50/p95/p99) are
estimated from cumulative bucket counts, so recording an observation is
O(log buckets) and the registry never stores per-sample data, no matter
how long the process serves.

:data:`process_registry` is the one registry of the process.  The hot
paths — matcher, planner, plan cache, statistics, fuzzy query, the
possible-worlds semantics — count into it (``match.assignments``,
``engine.plan_cache_hits``, ``core.query.matches``, …), and
:func:`repro.obs.default_observability` builds the shared panel on it,
so every counter is a :data:`METRIC_CATALOG` name with help text and
there is nothing to merge at export time.

A registry has an :attr:`MetricsRegistry.enabled` flag that hot paths
hoist into a local once per operation; when it is False,
:meth:`incr`/:meth:`observe`/:meth:`set_gauge` return before taking any
lock.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections.abc import Iterable

__all__ = [
    "DEFAULT_BUCKETS",
    "METRIC_CATALOG",
    "Histogram",
    "MetricsRegistry",
    "process_registry",
]

#: Default latency bucket upper bounds, in seconds: log-spaced from
#: 50 µs to 10 s, wide enough for a plan-cache lookup and a compaction
#: alike.  Observations past the last bound land in the overflow
#: (+Inf) bucket.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.00005,
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: The standard metric families every :class:`MetricsRegistry` exposes
#: from birth (zero-valued until first touched), so an export always
#: covers the engine, warehouse and serving surfaces even in a process
#: that has not exercised them yet.  ``kind`` is the Prometheus type.
METRIC_CATALOG: tuple[tuple[str, str, str], ...] = (
    # engine
    ("engine.plan_cache_hits", "counter", "Plan cache hits"),
    ("engine.plan_cache_misses", "counter", "Plan cache misses"),
    ("engine.plan_cache_evictions", "counter", "Plan cache LRU evictions"),
    ("engine.plans_built", "counter", "Plans built by the cost-based planner"),
    ("engine.plans_executed", "counter", "Plan executions, fixed plans included"),
    ("engine.estimated_candidates", "counter", "Candidates the planner estimated"),
    ("engine.actual_candidates", "counter", "Candidates the executor's scans kept"),
    ("engine.stats_collected", "counter", "Full document statistics walks"),
    ("engine.stats_invalidated", "counter", "Document statistics invalidations"),
    ("engine.stats_delta_noop", "counter", "Empty commit deltas (statistics kept)"),
    ("engine.stats_delta_applied", "counter", "Commit deltas applied in place"),
    ("engine.stats_delta_recollected", "counter", "Commit deltas forcing a re-walk"),
    ("engine.plan_build_seconds", "histogram", "Time to build one query plan"),
    ("engine.view_build_seconds", "histogram",
     "Time to build a per-root document walk (+ condition index)"),
    # match enumeration (the backtracking join)
    ("match.assignments", "counter", "Partial assignments tried by the join"),
    ("match.found", "counter", "Matches the join yielded"),
    ("match.semijoin_pruned", "counter", "Candidates removed by semi-join pruning"),
    ("match.negation_pruned", "counter", "Assignments cut by a negated subpattern"),
    ("match.bound_pruned", "counter", "Assignments cut by the probability bound"),
    # core query path
    ("core.query.matches", "counter", "Matches enumerated by queries"),
    ("core.query.inconsistent_matches", "counter", "Matches holding in no world"),
    ("semantics.world_classes", "counter", "World classes enumerated exactly"),
    # possible-worlds oracle
    ("pworlds.query.worlds", "counter", "Worlds a possible-worlds query visited"),
    ("pworlds.update.worlds", "counter", "Worlds a possible-worlds update visited"),
    ("pworlds.update.selected", "counter", "Worlds a possible-worlds update selected"),
    ("query.probability_seconds", "histogram",
     "Time to price one streamed row's probability (lazy, first access)"),
    # api layer
    ("api.queries", "counter", "Query executions started through the api layer"),
    ("api.rows_streamed", "counter", "Rows streamed through session result sets"),
    ("api.first_row_seconds", "histogram",
     "Latency from iteration start to the first streamed row"),
    ("api.query_seconds", "histogram",
     "Latency from iteration start to stream exhaustion/close"),
    ("api.slow_queries", "counter", "Queries captured by the slow-query log"),
    # warehouse / commit pipeline
    ("warehouse.commits", "counter", "Committed operations (all kinds)"),
    ("warehouse.commits.create", "counter", "Warehouse creations committed"),
    ("warehouse.commits.update", "counter", "Single updates committed"),
    ("warehouse.commits.batch", "counter", "Update batches committed"),
    ("warehouse.commits.simplify", "counter", "Simplification passes committed"),
    ("warehouse.commit_seconds", "histogram", "End-to-end commit latency"),
    ("warehouse.wal_append_seconds", "histogram",
     "WAL append + fsync latency inside a commit"),
    ("warehouse.snapshot_seconds", "histogram",
     "Snapshot write (document serialization + WAL reset) latency"),
    ("warehouse.recovery_seconds", "histogram",
     "WAL replay time during Warehouse.open"),
    ("warehouse.recovery_replayed_records", "counter",
     "WAL records replayed by recovery"),
    ("warehouse.sequence", "gauge", "Commit sequence number"),
    ("warehouse.wal_depth", "gauge", "Commits in the WAL past the snapshot"),
    ("warehouse.wal_bytes", "gauge", "WAL file size in bytes"),
    ("warehouse.read_sessions", "gauge", "Open snapshot pins"),
    ("warehouse.nodes", "gauge", "Document node count (refreshed on stats/export)"),
    ("warehouse.binary_snapshot_loads", "counter",
     "Warehouse.open cold-starts served from the binary snapshot codec"),
    ("warehouse.binary_snapshot_fallbacks", "counter",
     "Binary snapshot load failures that fell back to the XML snapshot"),
    # serving layer
    ("serve.queue_wait_seconds", "histogram",
     "Pool queue wait: submit to worker pickup"),
    ("serve.execute_seconds", "histogram", "Pool task execution time"),
    ("serve.shard_seconds", "histogram", "Per-shard fan-out query execution"),
    ("serve.fanout_seconds", "histogram",
     "Collection fan-out: submit to merged-stream exhaustion"),
    ("serve.fanout_queries", "counter", "Collection fan-out query executions"),
    # process-per-shard cluster (repro serve --shard-processes)
    ("cluster.workers", "gauge", "Live worker processes in the cluster"),
    ("cluster.requests", "counter", "Requests routed to worker processes"),
    ("cluster.respawns", "counter", "Worker processes respawned after death"),
    ("cluster.worker_failures", "counter",
     "Requests failed by a dead/dying worker (retryable)"),
    ("cluster.ipc_roundtrip_seconds", "histogram",
     "Supervisor-side request/response round trip over the worker pipe"),
    ("cluster.retries", "counter",
     "Backoff retries of cluster reads inside the deadline budget"),
    ("cluster.failovers", "counter",
     "Reads served by a replica after the primary failed"),
    ("cluster.resyncs", "counter",
     "Replica copies healed from a primary snapshot handoff"),
    ("cluster.resync_bytes", "counter",
     "Bytes shipped by replica resync handoffs"),
    ("cluster.stale_replicas", "gauge",
     "Replica copies currently awaiting resync"),
    ("cluster.replica_lag", "gauge",
     "Max commit-sequence lag across synced replicas"),
    # HTTP front end (repro serve)
    ("http.requests", "counter", "HTTP requests answered (any status)"),
    ("http.request_seconds", "histogram",
     "HTTP request latency: parsed to response written"),
    ("http.query_seconds", "histogram",
     "POST /query latency: admission to response body ready"),
    ("http.shed_requests", "counter",
     "Requests rejected with 429 by admission control"),
    ("http.deadline_timeouts", "counter",
     "Queries cancelled by a per-request deadline (504)"),
    ("http.error_responses", "counter", "HTTP responses with status >= 400"),
    ("http.inflight_requests", "gauge",
     "Requests admitted and not yet answered"),
    ("http.connections", "counter", "TCP connections accepted"),
)


class Histogram:
    """A fixed-bucket latency histogram (no per-sample storage).

    ``boundaries`` are the inclusive upper bounds of the finite
    buckets; one extra overflow bucket catches everything beyond the
    last bound.  Quantiles are estimated by linear interpolation inside
    the bucket containing the target rank — the estimate for a value in
    the overflow bucket is the last finite bound (a conservative lower
    bound, exactly like Prometheus's ``histogram_quantile``).
    """

    __slots__ = ("name", "boundaries", "_counts", "_sum", "_lock")

    def __init__(
        self, name: str, boundaries: Iterable[float] = DEFAULT_BUCKETS
    ) -> None:
        self.name = name
        self.boundaries = tuple(sorted(float(b) for b in boundaries))
        if not self.boundaries:
            raise ValueError("histogram needs at least one bucket boundary")
        # One slot per finite bucket plus the overflow bucket.
        self._counts = [0] * (len(self.boundaries) + 1)
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (seconds, by convention)."""
        index = bisect_left(self.boundaries, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value

    @property
    def count(self) -> int:
        with self._lock:
            return sum(self._counts)

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1]; 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        with self._lock:
            counts = list(self._counts)
        return self._quantile(counts, q)

    def _quantile(self, counts: list[int], q: float) -> float:
        """Quantile ``q`` over one copy of the bucket counts."""
        total = sum(counts)
        if total == 0:
            return 0.0
        target = q * total
        cumulative = 0
        for index, count in enumerate(counts):
            if count == 0:
                continue
            if cumulative + count >= target:
                if index >= len(self.boundaries):
                    # Overflow bucket: the true value is beyond the last
                    # finite bound; report that bound (lower bound).
                    return self.boundaries[-1]
                lower = self.boundaries[index - 1] if index > 0 else 0.0
                upper = self.boundaries[index]
                fraction = (target - cumulative) / count
                return lower + fraction * (upper - lower)
            cumulative += count
        return self.boundaries[-1]

    def snapshot(self) -> dict:
        """Counts, sum and estimated p50/p95/p99 plus cumulative buckets,
        all read from one copy of the counts."""
        with self._lock:
            counts = list(self._counts)
            total_sum = self._sum
        buckets: list[tuple[float, int]] = []
        cumulative = 0
        for boundary, count in zip(self.boundaries, counts):
            cumulative += count
            buckets.append((boundary, cumulative))
        total = cumulative + counts[-1]
        return {
            "count": total,
            "sum": total_sum,
            "p50": self._quantile(counts, 0.50),
            "p95": self._quantile(counts, 0.95),
            "p99": self._quantile(counts, 0.99),
            "buckets": buckets,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count})"


class MetricsRegistry:
    """Named counters, gauges and histograms behind one thread-safe scope.

    Parameters
    ----------
    preregister:
        Seed the registry with :data:`METRIC_CATALOG` (the default), so
        exports always cover the full metric surface.
    """

    __slots__ = ("enabled", "_lock", "_counters", "_gauges", "_histograms", "_help")

    def __init__(self, *, preregister: bool = True) -> None:
        #: Hot paths hoist this flag into a local once per operation
        #: instead of paying an attribute read plus a call per iteration.
        self.enabled = True
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._help: dict[str, str] = {}
        if preregister:
            for name, kind, help_text in METRIC_CATALOG:
                self.describe(name, kind, help_text)

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------

    def describe(self, name: str, kind: str, help_text: str) -> None:
        """Declare a metric (zero-valued until first touched) with help
        text for exports."""
        with self._lock:
            self._help[name] = help_text
            if kind == "counter":
                self._counters.setdefault(name, 0.0)
            elif kind == "gauge":
                self._gauges.setdefault(name, 0.0)
            elif kind == "histogram":
                if name not in self._histograms:
                    self._histograms[name] = Histogram(name)
            else:
                raise ValueError(f"unknown metric kind {kind!r}")

    def help_text(self, name: str) -> str | None:
        return self._help.get(name)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def incr(self, name: str, amount: float = 1) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one histogram observation (creating the histogram on
        first use)."""
        if not self.enabled:
            return
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(name, Histogram(name))
        histogram.observe(value)

    # ------------------------------------------------------------------
    # Enable / disable
    # ------------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def gauge(self, name: str) -> float:
        with self._lock:
            return self._gauges.get(name, 0.0)

    def histogram(self, name: str) -> Histogram:
        """The named histogram (created empty if missing)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(name, Histogram(name))
        return histogram

    def snapshot(self) -> dict:
        """Point-in-time copy: counters, gauges, histogram summaries."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": {
                name: histograms[name].snapshot() for name in sorted(histograms)
            },
        }

    def reset(self) -> None:
        """Zero every metric (histograms are recreated empty)."""
        with self._lock:
            for name in self._counters:
                self._counters[name] = 0.0
            for name in self._gauges:
                self._gauges[name] = 0.0
            self._histograms = {
                name: Histogram(name, histogram.boundaries)
                for name, histogram in self._histograms.items()
            }

    def __repr__(self) -> str:
        with self._lock:
            shape = (
                f"{len(self._counters)} counters, {len(self._gauges)} gauges, "
                f"{len(self._histograms)} histograms"
            )
        state = "enabled" if self.enabled else "disabled"
        return f"MetricsRegistry({shape}, {state})"


#: The process registry: the hot paths count into it, and
#: :func:`repro.obs.default_observability` builds its panel on it.
process_registry = MetricsRegistry()
