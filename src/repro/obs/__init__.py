"""End-to-end observability: metrics, span traces, slow-query log.

The paper's warehouse is a continuously-updated *service*; this package
is its instrument panel, one facade over three bounded-memory pieces:

* :class:`~repro.obs.metrics.MetricsRegistry` — thread-safe counters,
  gauges and fixed-bucket latency histograms (p50/p95/p99 estimated
  from bucket counts, no per-sample storage);
* :class:`~repro.obs.trace.Tracer` — hierarchical span traces of the
  real phase boundaries (query → plan-cache lookup / plan build / view
  build / match enumeration / probability evaluation; commit → WAL
  append / snapshot / stats delta / condition-index patch; fan-out →
  per-shard queue wait / execute / merge), the last N kept in a ring
  buffer;
* :class:`~repro.obs.slowlog.SlowQueryLog` — queries past a threshold
  captured with pattern, chosen plan, row count, per-phase timings.

Scoping: every :class:`~repro.warehouse.warehouse.Warehouse` carries an
:class:`Observability` — by default the **process-global** one
(:func:`default_observability`), built on
:data:`~repro.obs.metrics.process_registry`, the registry the engine's
hot-path counters (``engine.*``, ``match.*``, ``core.query.*``) write
to.  Its one flag and one reset therefore cover those counters too.
Pass ``observability=Observability()`` to :func:`repro.connect` to
scope a warehouse's panel metrics privately, or ``observability=None``
to attach no panel (the benchmark baseline); either way the hot-path
counters still tick on the process registry.

Overhead contract (benchmark E14): with everything enabled the query
path pays ≤5% over the uninstrumented baseline; disabled, ≤1% — call
sites hoist the enabled flags into locals once per operation.
"""

from __future__ import annotations

from repro.obs.export import prometheus_name, render_json, render_prometheus
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRIC_CATALOG,
    Histogram,
    MetricsRegistry,
    process_registry,
)
from repro.obs.slowlog import SlowQueryEntry, SlowQueryLog
from repro.obs.trace import Span, Tracer, render_span, render_trace

__all__ = [
    "DEFAULT_BUCKETS",
    "METRIC_CATALOG",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "SlowQueryEntry",
    "SlowQueryLog",
    "Tracer",
    "default_observability",
    "prometheus_name",
    "render_json",
    "render_prometheus",
    "render_span",
    "render_trace",
]


class Observability:
    """One warehouse's (or the process's) instrument panel.

    Bundles a metrics registry, a tracer and a slow-query log; the
    pieces can be passed in (to share or customize) or default to fresh
    ones.  :meth:`enable`/:meth:`disable` toggle metrics and tracing
    together; the slow-query log follows the metrics flag (its capture
    runs inside the metrics-guarded path).
    """

    __slots__ = ("metrics", "tracer", "slowlog")

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        slowlog: SlowQueryLog | None = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.slowlog = slowlog if slowlog is not None else SlowQueryLog()

    @property
    def enabled(self) -> bool:
        """True when any instrumentation (metrics or tracing) is on."""
        return self.metrics.enabled or self.tracer.enabled

    def enable(self) -> None:
        self.metrics.enable()
        self.tracer.enable()

    def disable(self) -> None:
        self.metrics.disable()
        self.tracer.disable()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Observability({state}, {self.metrics!r}, {self.tracer!r})"


_default: Observability | None = None


def default_observability() -> Observability:
    """The process-global panel every warehouse shares by default.

    Its registry is :data:`~repro.obs.metrics.process_registry`, so the
    hot-path counters appear in every export, and the panel's
    :meth:`~Observability.disable` and ``metrics.reset()`` cover them.
    """
    global _default
    if _default is None:
        _default = Observability(metrics=process_registry)
    return _default
