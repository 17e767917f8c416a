"""Prometheus text-format and JSON renderers over a MetricsRegistry.

:func:`render_prometheus` emits the text exposition format a scraper
expects (``# HELP`` / ``# TYPE`` headers, ``_total``-suffixed
counters, cumulative ``_bucket{le=...}`` series plus ``_sum`` /
``_count`` per histogram).  Metric names are mangled to the Prometheus
charset: ``repro_`` prefix, dots and dashes to underscores —
``engine.plan_cache_hits`` becomes
``repro_engine_plan_cache_hits_total``.

:func:`render_json` is the structured sibling for scripts and tests:
the registry snapshot (counters, gauges, histogram summaries with
p50/p95/p99 — on the process registry the counters include the
engine's hot-path ones) plus, when given an
:class:`~repro.obs.Observability`, the slow-query log and recent
traces.

The future ``repro serve --port N`` front-end mounts these verbatim as
``/metrics`` (Prometheus) and ``/metrics.json``.
"""

from __future__ import annotations

import json
import re

__all__ = ["prometheus_name", "render_json", "render_prometheus"]

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_]")


def prometheus_name(name: str, *, counter: bool = False) -> str:
    """The Prometheus-legal series name for a registry metric name."""
    mangled = "repro_" + _NAME_SANITIZER.sub("_", name)
    if counter and not mangled.endswith("_total"):
        mangled += "_total"
    return mangled


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4)."""
    snapshot = registry.snapshot()
    lines: list[str] = []

    for name, value in snapshot["counters"].items():
        series = prometheus_name(name, counter=True)
        help_text = registry.help_text(name)
        if help_text:
            lines.append(f"# HELP {series} {help_text}")
        lines.append(f"# TYPE {series} counter")
        lines.append(f"{series} {_format_value(value)}")

    for name, value in snapshot["gauges"].items():
        series = prometheus_name(name)
        help_text = registry.help_text(name)
        if help_text:
            lines.append(f"# HELP {series} {help_text}")
        lines.append(f"# TYPE {series} gauge")
        lines.append(f"{series} {_format_value(value)}")

    for name, summary in snapshot["histograms"].items():
        series = prometheus_name(name)
        help_text = registry.help_text(name)
        if help_text:
            lines.append(f"# HELP {series} {help_text}")
        lines.append(f"# TYPE {series} histogram")
        for boundary, cumulative in summary["buckets"]:
            lines.append(
                f'{series}_bucket{{le="{_format_le(boundary)}"}} {cumulative}'
            )
        lines.append(f'{series}_bucket{{le="+Inf"}} {summary["count"]}')
        lines.append(f"{series}_sum {_format_value(summary['sum'])}")
        lines.append(f"{series}_count {summary['count']}")

    return "\n".join(lines) + "\n"


def _format_le(boundary: float) -> str:
    # Prometheus bucket labels conventionally render without exponent
    # noise; repr keeps them exact and parseable.
    if boundary == int(boundary):
        return str(float(boundary))
    return repr(boundary)


def render_json(registry, observability=None, *, indent: int | None = 2) -> str:
    """The registry snapshot as JSON; with *observability*, the slow-query
    log and recent traces ride along."""
    payload: dict = registry.snapshot()
    if observability is not None:
        payload["slow_queries"] = [
            entry.as_dict() for entry in observability.slowlog.entries()
        ]
        payload["traces"] = [
            span.as_dict() for span in observability.tracer.recent()
        ]
    return json.dumps(payload, indent=indent, sort_keys=False)
