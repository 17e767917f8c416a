"""Hierarchical span tracing with a bounded ring buffer of traces.

A :class:`Span` is one timed phase of work; spans nest (a ``query``
span contains ``view_build``, ``plan_build``,
``match_enumeration``, …) and completed **root** spans land in the
tracer's ring buffer (``deque(maxlen=capacity)``) — the process keeps
the last N traces, nothing more, however long it serves.

Two recording styles, chosen by cost:

* :meth:`Tracer.start` / :meth:`Tracer.finish` (or the
  :meth:`Tracer.span` context manager) open a live span: it is pushed
  on the *current thread's* span stack, so spans opened or emitted
  meanwhile become its children.  Used at coarse boundaries (query,
  commit, fan-out).
* :meth:`Tracer.emit` attaches an **already-measured** duration as a
  completed child of the current span — the per-phase instrumentation
  inside the engine and the commit pipeline, two ``perf_counter()``
  reads and one call.  Consecutive attribute-less emits with the same
  name are merged (duration accumulated, ``count`` incremented), so a
  per-row phase like ``probability_evaluation`` stays one child per
  span instead of one per row.

The enabled flag follows the hoisted-flag idiom of
:class:`~repro.obs.metrics.MetricsRegistry`: call sites read
``tracer.enabled`` once per operation into a local and skip every call
when it is False — the disabled path costs one attribute read.

Caveats (diagnostic tool, not an accounting ledger): a query span stays
open across the consumer's pulls, so its duration includes consumer
think time, and two streams interleaved on one thread nest under each
other.  Span completion is identity-based (a span removes *itself*
from the stack it was opened on), so a stream finalized by the garbage
collector on another thread cannot corrupt the nesting of unrelated
traces.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from time import perf_counter

__all__ = ["Span", "Tracer", "render_span", "render_trace"]

#: Children beyond this per-span bound are dropped (counted in
#: :attr:`Span.dropped`): a runaway enumeration must not turn one
#: trace into an unbounded tree.
MAX_CHILDREN = 128


class Span:
    """One timed phase: name, attributes, duration, nested children."""

    __slots__ = (
        "name",
        "attributes",
        "duration",
        "count",
        "children",
        "dropped",
        "timestamp",
        "_t0",
        "_stack",
    )

    def __init__(self, name: str, attributes: dict | None = None) -> None:
        self.name = name
        self.attributes = attributes or {}
        #: Wall-clock seconds; filled at finish (or given to record()).
        self.duration = 0.0
        #: Number of merged observations (>1 for accumulated emits).
        self.count = 1
        self.children: list[Span] = []
        self.dropped = 0
        #: Unix time the span started — only stamped on root spans.
        self.timestamp: float | None = None
        self._t0 = 0.0
        self._stack: list | None = None

    def record(self, name: str, duration: float, **attributes) -> "Span | None":
        """Attach a completed child span of *duration* seconds.

        Attribute-less emits repeating the previous child's name merge
        into it instead of appending (the per-row accumulation case).
        Returns the child, or None when the child bound dropped it.
        """
        children = self.children
        if not attributes and children:
            last = children[-1]
            if last.name == name and not last.children:
                last.duration += duration
                last.count += 1
                return last
        if len(children) >= MAX_CHILDREN:
            self.dropped += 1
            return None
        child = Span(name, attributes)
        child.duration = duration
        children.append(child)
        return child

    def phase_seconds(self) -> dict[str, float]:
        """Direct children folded to {name: total seconds}."""
        phases: dict[str, float] = {}
        for child in self.children:
            phases[child.name] = phases.get(child.name, 0.0) + child.duration
        return phases

    def as_dict(self) -> dict:
        """JSON-friendly rendering (attributes stringified)."""
        payload: dict = {
            "name": self.name,
            "duration_us": round(self.duration * 1e6, 3),
        }
        if self.timestamp is not None:
            payload["timestamp"] = self.timestamp
        if self.count > 1:
            payload["count"] = self.count
        if self.attributes:
            payload["attributes"] = {
                key: value if isinstance(value, (int, float, bool, str))
                else str(value)
                for key, value in self.attributes.items()
            }
        if self.children:
            payload["children"] = [child.as_dict() for child in self.children]
        if self.dropped:
            payload["dropped_children"] = self.dropped
        return payload

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration * 1e6:.1f}us, "
            f"{len(self.children)} children)"
        )


class Tracer:
    """Per-thread span stacks feeding a bounded ring buffer of traces."""

    __slots__ = ("enabled", "capacity", "_traces", "_local")

    def __init__(self, capacity: int = 64) -> None:
        #: Hoist into a local once per operation (see module docs).
        self.enabled = True
        self.capacity = capacity
        # deque.append/popleft are GIL-atomic; no extra lock needed for
        # the ring buffer itself.
        self._traces: deque[Span] = deque(maxlen=capacity)
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def start(self, name: str, **attributes) -> Span:
        """Open a span: children attach to it until :meth:`finish`."""
        span = Span(name, attributes)
        stack = self._stack()
        if stack:
            parent = stack[-1]
            if len(parent.children) < MAX_CHILDREN:
                parent.children.append(span)
            else:
                parent.dropped += 1
        else:
            span.timestamp = time.time()
        span._stack = stack
        span._t0 = perf_counter()
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        """Close *span*; completed root spans enter the ring buffer.

        Identity-based and thread-robust: the span removes itself from
        the stack it was opened on (wherever it sits — an out-of-order
        close cannot orphan the stack), even when finish() runs on a
        different thread (GC finalization of an abandoned stream).
        """
        span.duration = perf_counter() - span._t0
        stack = span._stack
        span._stack = None
        if stack is not None:
            try:
                stack.remove(span)
            except ValueError:
                pass
        if span.timestamp is not None:
            self._traces.append(span)

    def span(self, name: str, **attributes):
        """Context manager over :meth:`start`/:meth:`finish`."""
        return _SpanContext(self, name, attributes)

    def emit(self, name: str, duration: float, **attributes) -> None:
        """Attach an already-measured phase to the current span (no-op
        without one)."""
        parent = self.current()
        if parent is not None:
            parent.record(name, duration, **attributes)

    # ------------------------------------------------------------------
    # Enable / disable / reading
    # ------------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def recent(self, n: int | None = None) -> list[Span]:
        """The last *n* completed traces (all, by default), oldest first."""
        traces = list(self._traces)
        if n is not None and n >= 0:
            traces = traces[-n:]
        return traces

    def clear(self) -> None:
        self._traces.clear()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({len(self._traces)}/{self.capacity} traces, {state})"


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_attributes", "_span")

    def __init__(self, tracer: Tracer, name: str, attributes: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._span: Span | None = None

    def __enter__(self) -> Span:
        self._span = self._tracer.start(self._name, **self._attributes)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._span is not None:
            self._tracer.finish(self._span)
            self._span = None


def render_span(span: Span, indent: int = 0) -> list[str]:
    """Indented text lines for one span subtree."""
    parts = [f"{'  ' * indent}{span.name}  {span.duration * 1e6:.1f} us"]
    if span.count > 1:
        parts.append(f"(x{span.count})")
    for key, value in span.attributes.items():
        parts.append(f"{key}={value}")
    if span.dropped:
        parts.append(f"dropped_children={span.dropped}")
    lines = ["  ".join(parts)]
    for child in span.children:
        lines.extend(render_span(child, indent + 1))
    return lines


def render_trace(span: Span) -> str:
    """One completed trace rendered as an indented tree."""
    header = ""
    if span.timestamp is not None:
        stamp = time.strftime(
            "%Y-%m-%dT%H:%M:%S", time.localtime(span.timestamp)
        )
        header = f"trace @ {stamp}\n"
    return header + "\n".join(render_span(span))
