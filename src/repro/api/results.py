"""Lazy result sets: one class for every query target.

A :class:`ResultSet` describes a query — target, compiled pattern, one
frozen :class:`~repro.api.options.QueryOptions` and, on a collection,
the document keys — and runs nothing until it is consumed.  Every
target answers through one hook, ``target._shard_results(pattern, keys,
options, what, seed, abort)``, which yields ``(key, items)`` per shard
in sorted key order (*what*: ``"rows"``, ``"answers"`` or
``"estimates"``); the result set owns the one merge above it.  A session
or snapshot is the one-shard case, keyed ``None``
(:func:`session_results`); a collection fans out across its documents.
Every item carries its shard key as ``document`` (``None`` on a session).

A session streams :class:`~repro.core.query.Row` objects — per match:
its exact probability, answer tree, bindings and provenance — through
the engine's streaming protocol: the plan comes from the plan cache,
matches are pulled one at a time, and :meth:`ResultSet.limit` pushes
early termination into the backtracking join.  :meth:`ResultSet.answers`
folds them into the probability-ranked, per-answer-tree aggregation of
:func:`~repro.core.query.query_fuzzy_tree`.
"""

from __future__ import annotations

import random
from contextlib import closing
from time import perf_counter

from repro.api.builders import compile_pattern
from repro.api.options import QueryOptions, QueryOptionsError
from repro.core.montecarlo import AnswerEstimate, estimate_answers
from repro.core.query import (
    FuzzyAnswer,
    Row,
    group_by_key,
    group_rows,
    iter_bounded_rows,
    iter_query_rows,
    query_fuzzy_tree,
    topk_rows,
)
from repro.errors import QueryCancelledError, QueryError
from repro.events.dnf import Dnf

__all__ = ["ResultSet", "RowStream"]


_DEFAULT_OPTIONS = QueryOptions()
_FIXED_PLAN_OPTIONS = QueryOptions(plan="fixed")


def resolve_query(query, options=None, keys=None, *, planner: bool = True):
    """Normalize ``query()`` arguments: ``(pattern, options, keys)``.

    Shared by every query surface (session, snapshot, both collection
    engines).  *query* is a string, Pattern or builder and may be
    omitted when *options* — a :class:`~repro.api.options.QueryOptions`
    — carries a ``pattern``; without *options*, *planner* picks the
    plan (``False`` is the fixed pre-order plan of the ablation baseline,
    whose matches are materialized, so limits truncate but do not
    stream).
    *keys* (collections) defaults to ``[options.document]`` when that
    routing field is set and comes back sorted and deduplicated — the
    shard order every merge uses.
    """
    if options is None:
        options = _DEFAULT_OPTIONS if planner else _FIXED_PLAN_OPTIONS
    elif not isinstance(options, QueryOptions):
        raise QueryError(f"options must be a QueryOptions, got {options!r}")
    if query is None:
        query = options.pattern
        if query is None:
            raise QueryError(
                "query() needs a pattern: pass one (string, Pattern or "
                "builder) or set options.pattern"
            )
    if keys is None and options.document is not None:
        keys = [options.document]
    return (
        compile_pattern(query),
        options,
        None if keys is None else sorted(set(keys)),
    )


def session_query(source, query, options, planner: bool) -> "ResultSet":
    """The result set of a session or snapshot ``query()`` call.

    A session serves one document, so the ``document`` routing field is
    refused here rather than ignored."""
    source._check_open()
    pattern, options, keys = resolve_query(query, options, planner=planner)
    if keys is not None:
        raise QueryError(
            "options.document only applies to collections: a session "
            "serves one document"
        )
    return ResultSet(source, pattern, options)


class ResultSet:
    """A lazy, re-iterable query over a session, snapshot or collection.

    Each consumption re-executes the query against the target's current
    state (snapshots pin theirs, so re-iteration there is stable).  A
    result set is immutable: each refinement returns a new one over new
    frozen options.  Across a collection, rows stream in deterministic
    (shard, row) order — shards in sorted key order, each shard's rows
    in its match order — and the limit, pushed into every shard,
    short-circuits the fan-out: once n rows have been emitted the hook
    is closed, which cancels shard work that has not started.
    """

    __slots__ = ("_target", "_pattern", "_options", "_keys")

    def __init__(self, target, pattern, options: QueryOptions, keys=None) -> None:
        self._target = target
        self._pattern = pattern
        self._options = options
        self._keys = keys

    @property
    def options(self) -> QueryOptions:
        """The frozen execution envelope this set describes."""
        return self._options

    # ------------------------------------------------------------------
    # Refinements
    # ------------------------------------------------------------------

    def _refined(self, field: str, value) -> "ResultSet":
        """A copy with ``options.<field> = value``; :class:`QueryOptions`
        validates the value (``None`` would *unset* the field, which is
        not a refinement)."""
        if value is None:
            raise QueryError(f"{field} needs a value, got None")
        try:
            options = self._options.replace(**{field: value})
        except QueryOptionsError as exc:
            raise QueryError(f"{field} {exc.errors[0]['message']}") from None
        return ResultSet(self._target, self._pattern, options, self._keys)

    def limit(self, n: int) -> "ResultSet":
        """At most *n* rows, computed by early termination.

        The cap is pushed into the engine's streaming protocol: the
        backtracking enumeration stops as soon as *n* rows have been
        emitted, so a small limit on a large document does a fraction
        of the full query's work (a collection pushes it into every
        shard and short-circuits the fan-out).  In document order the
        limited stream is a prefix of the unlimited one (same plan,
        same deterministic order); combined with
        :meth:`order_by_probability` it is top-k, executed as
        branch-and-bound inside the join.  Chaining keeps the smallest
        limit.
        """
        refined = self._refined("limit", n)
        current = self._options.limit
        return refined if current is None or n < current else self

    def order_by_probability(self) -> "ResultSet":
        """Rows in decreasing-probability order, ties in document order.

        With a :meth:`limit` this executes as branch-and-bound top-k:
        partial matches whose probability upper bound (the product of
        their bound nodes' closed conditions) cannot beat the current
        k-th best are pruned inside the backtracking join, never
        enumerated.  Across a collection each shard runs its own top-k
        and the merge re-sorts by ``(probability desc, shard key,
        per-shard rank)`` — a barrier: every shard reports before the
        first row is emitted.
        """
        return self._refined("order", "probability")

    def min_probability(self, p) -> "ResultSet":
        """Only rows with probability >= *p*.

        The threshold is pushed into the join: partial matches whose
        upper bound is already below *p* are pruned.  Chaining keeps
        the strictest threshold.
        """
        refined = self._refined("min_probability", p)
        current = self._options.min_probability
        return refined if current is None or p > current else self

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------

    def _shards(self, what: str, seed: int = 0, abort=None, **overrides):
        """The target's hook for this query (``limit(0)`` runs nothing:
        no pin, no engine view, no shard task).  Closing this generator
        closes the hook."""
        if self._options.limit != 0:
            options = self._options.replace(**overrides) if overrides else self._options
            yield from self._target._shard_results(
                self._pattern, self._keys, options, what, seed, abort
            )

    def _by_probability(self, shards) -> list:
        """The shards' items by decreasing probability, capped.

        A barrier: every shard reports first.  Each shard already
        ranked its own items (ties in its emission order), so sorting
        on ``(-probability, key, rank)`` reproduces exactly the order a
        single session over the union would produce."""
        merged = [
            (-item.probability, key, rank, item)
            for key, items in shards
            for rank, item in enumerate(items)
        ]
        merged.sort(key=lambda entry: entry[:3])
        return [item for _p, _key, _rank, item in merged[: self._options.limit]]

    def _merged_rows(self, abort):
        """The one row merge: shard after shard in document order, or
        the probability merge; the limit and *abort* apply between
        merged rows."""
        limit = self._options.limit
        with closing(self._shards("rows", abort=abort)) as shards:
            if self._options.order == "probability":
                merged = self._by_probability(shards)
            else:
                merged = (row for _key, rows in shards for row in rows)
            for emitted, row in enumerate(merged, 1):
                if abort is not None:
                    _check_abort(abort)
                yield row
                if limit is not None and emitted >= limit:
                    return

    def __iter__(self) -> "RowStream":
        return self.stream()

    def stream(self, *, abort=None) -> "RowStream":
        """The rows as a closeable :class:`RowStream`, optionally
        cancellable.

        *abort*, when given, is a zero-argument callable polled before
        every row is computed (so it may be flipped from another thread
        — a deadline timer, a disconnect watcher).  Once it returns
        true the enumeration stops, the stream is closed and it raises
        :class:`~repro.errors.QueryCancelledError` — the serving
        layer's per-request deadline path.  It reaches a session's and
        each thread shard's row stream; a process shard enumerates in
        its worker, beyond its reach, so the merge polls it between rows.
        """
        return RowStream(self._merged_rows(abort))

    def all(self) -> list:
        """Materialize every row (honoring :meth:`limit`)."""
        return list(self)

    def first(self):
        """The first row, computed without enumerating the rest."""
        with self.limit(1).stream() as stream:
            return next(stream, None)

    def count(self) -> int:
        """Number of rows (honoring :meth:`limit`)."""
        return sum(1 for _ in self)

    def answers(self) -> list[FuzzyAnswer]:
        """Classic aggregation: rows grouped per answer tree, ranked.

        Matches inducing the same answer tree are merged (their
        conditions disjoined) and the aggregates ranked by decreasing
        probability — :func:`~repro.core.query.query_fuzzy_tree`'s
        result when no limit is set; with a limit, the aggregation
        covers the streamed prefix only.  Aggregation never crosses
        shards: each document has its own independent event table, so
        a collection returns each shard's ranked answers in sorted key
        order.  (Thread collections only: answer aggregates do not
        cross the process boundary.)
        """
        with closing(self._shards("answers")) as shards:
            return [answer for _key, answers in shards for answer in answers]

    def estimate(
        self,
        *,
        epsilon: float | None = None,
        deadline_ms: int | None = None,
        seed: int = 0,
    ) -> list[AnswerEstimate]:
        """Anytime Monte-Carlo answers: confidence intervals, not exact.

        The exact path prices each answer by Shannon expansion, which
        is exponential in the answer's DNF in the worst case; this path
        enumerates the same matches (cheap — pricing is what blows up),
        groups them per answer tree, and prices the groups by sampling
        their mentioned events.  Sampling stops when every interval is
        within ±*epsilon* (at 3σ), when the *deadline_ms* budget is
        spent, or at the sample cap — whichever comes first — so
        adversarial event graphs degrade to bounded-error estimates
        instead of timeouts.

        Arguments default to the set's options (``epsilon=0.05`` when
        neither is set anywhere); *seed* fixes the sampler so every
        layer pricing the same groups returns identical estimates.
        Estimates honor ``min_probability`` (as a filter on the
        estimated value) and come back by decreasing probability, ties
        by shard key, then canonical form; each shard samples its own
        event table, and the merged list is capped at the limit.
        """
        options = self._options
        overrides = {
            "epsilon": options.epsilon if epsilon is None else epsilon,
            "deadline_ms": options.deadline_ms if deadline_ms is None else deadline_ms,
        }
        with closing(self._shards("estimates", seed, **overrides)) as shards:
            return self._by_probability(shards)

    def __repr__(self) -> str:
        extras = self._options.to_json()
        extras.pop("pattern", None)
        rendered = "".join(f", {k}={v!r}" for k, v in sorted(extras.items()))
        shards = "" if self._keys is None else f", {len(self._keys)} shards"
        return f"ResultSet({str(self._pattern)!r}{shards}{rendered})"


# ----------------------------------------------------------------------
# The one-shard hook of a session or snapshot
# ----------------------------------------------------------------------


def session_results(source, pattern, keys, options, what, seed, abort):
    """``_shard_results`` of a session or snapshot: ``(None, items)``.

    The one shard is the source's document, pinned from the first pull
    until this generator is closed (a snapshot is pinned already).  Rows
    stream lazily; answers and estimates are computed under the pin.
    *keys* is unused — a session serves one document.
    """
    fuzzy, engine, config, release, obs = source._iter_context()
    engine = engine if options.use_planner else None
    try:
        if what == "rows":
            rows = _stream_rows(
                source._provenance, fuzzy, engine, config, pattern, options, obs, abort
            )
            try:
                yield None, rows
            finally:
                # Close before the pin goes: an abandoned or cancelled
                # stream must not keep its generator's frame alive.
                rows.close()
        elif what == "answers":
            yield None, _answers(fuzzy, engine, config, pattern, options, obs)
        else:
            yield None, _estimates(fuzzy, engine, config, pattern, options, seed)
    finally:
        if release is not None:
            release()


def _answers(fuzzy, engine, config, pattern, options, obs) -> list[FuzzyAnswer]:
    """The session's ranked answers (see :meth:`ResultSet.answers`)."""
    tracing = obs is not None and obs.tracer.enabled
    metrics = obs is not None and obs.metrics.enabled
    span = obs.tracer.start("query", pattern=pattern, aggregate=True) if tracing else None
    t0 = perf_counter()
    answers: list[FuzzyAnswer] | None = None
    try:
        if options.limit is None and not options.is_bounded:
            # No cap: group matches directly — no row is ever built
            # and each answer group is priced exactly once.
            answers = query_fuzzy_tree(fuzzy, pattern, config, engine=engine)
        else:
            # Aggregate exactly the rows the stream would emit
            # (limited prefix / top-k / thresholded enumeration).
            answers = group_rows(
                _row_iter(fuzzy, engine, config, pattern, options, None),
                fuzzy.events,
                cache=engine.shannon if engine is not None else None,
            )
        return answers
    finally:
        if span is not None:
            if answers is not None:
                span.attributes["rows"] = len(answers)
            obs.tracer.finish(span)
        if metrics:
            count = len(answers) if answers is not None else 0
            _record_query_metrics(obs, pattern, perf_counter() - t0, count, span, engine)


def _estimates(fuzzy, engine, config, pattern, options, seed) -> list[AnswerEstimate]:
    """The session's anytime estimates (see :meth:`ResultSet.estimate`)."""
    rows = iter_query_rows(fuzzy, pattern, config, engine=engine, limit=options.limit)
    groups = group_by_key((row.canonical, row, row.dnf.terms) for row in rows)
    deadline_ms = options.deadline_ms
    estimates = estimate_answers(
        [(row.tree, Dnf(terms)) for _key, row, terms in groups],
        fuzzy.events,
        epsilon=options.epsilon,
        deadline=None if deadline_ms is None else deadline_ms / 1000.0,
        rng=random.Random(seed),
    )
    floor = options.min_probability
    if floor is not None:
        estimates = [e for e in estimates if e.probability >= floor]
    return estimates


def _plan_text(engine, pattern) -> str | None:
    """The chosen plan's rendering for a slow-log entry (None off-plan)."""
    if engine is None:
        return None
    try:
        return engine.plan_for(pattern).explain()
    except Exception:
        # Slow-log capture must never turn a finished query into an
        # error; a plan that cannot be (re)built just goes unrecorded.
        return None


def _record_query_metrics(obs, pattern, duration, rows, span, engine) -> None:
    """Fold one finished query into counters, histogram and slow log."""
    registry = obs.metrics
    registry.incr("api.queries")
    registry.observe("api.query_seconds", duration)
    slowlog = obs.slowlog
    if slowlog.should_record(duration):
        registry.incr("api.slow_queries")
        slowlog.record(
            str(pattern),
            duration,
            rows,
            phases=span.phase_seconds() if span is not None else None,
            plan=_plan_text(engine, pattern),
        )


def _check_abort(abort) -> None:
    """Raise :class:`QueryCancelledError` once *abort* returns true.

    Polled between rows — before the next row's enumeration and
    probability work starts — so a flipped deadline flag stops the
    stream at the next row boundary, not after another full match.
    """
    if abort():
        raise QueryCancelledError("query cancelled by its abort hook")


def _row_iter(fuzzy, engine, config, pattern, options, abort):
    """The :class:`~repro.core.query.Row` iterator for *options*.

    Dispatches on the options' shape: probability order runs the
    branch-and-bound top-k (eager — the sort key is the exact
    probability), a bare ``min_probability`` runs the thresholded
    document-order enumeration, and the default is the plain lazy
    stream.  *abort* is threaded into the eager path (the generator
    paths poll it between pulls in :func:`_stream_rows`).
    """
    min_p = options.min_probability if options.min_probability is not None else 0.0
    if options.order == "probability":
        return iter(
            topk_rows(
                fuzzy,
                pattern,
                config,
                engine=engine,
                k=options.limit,
                min_probability=min_p,
                abort=abort,
            )
        )
    if min_p > 0.0:
        return iter_bounded_rows(
            fuzzy,
            pattern,
            config,
            engine=engine,
            min_probability=min_p,
            limit=options.limit,
        )
    return iter_query_rows(
        fuzzy, pattern, config, engine=engine, limit=options.limit
    )


def _stream_rows(provenance, fuzzy, engine, config, pattern, options, obs, abort):
    """A session's row generator (the items of its one shard).

    With instrumentation attached the generator opens a ``query`` span
    (the engine's plan-cache / plan-build / view-build emits nest under
    it), accumulates per-pull enumeration time into one
    ``match_enumeration`` child, and on exhaustion *or* early close
    records first-row/total latencies, row counts and — past the
    threshold — a slow-log entry.  Fully disabled, the cost is one
    flag check per query (the plain loop below).
    """
    tracing = obs is not None and obs.tracer.enabled
    metrics = obs is not None and obs.metrics.enabled
    if not tracing and not metrics:
        if abort is not None:
            _check_abort(abort)
        for row in _row_iter(fuzzy, engine, config, pattern, options, abort):
            row._provenance = provenance
            yield row
            if abort is not None:
                _check_abort(abort)
        return

    registry = obs.metrics
    # The pattern rides along as an object: render_span/as_dict
    # stringify it only when a human actually reads the trace.
    span = obs.tracer.start("query", pattern=pattern) if tracing else None
    rows = 0
    t0 = perf_counter()
    try:
        stream = _row_iter(fuzzy, engine, config, pattern, options, abort)
        while True:
            if abort is not None:
                _check_abort(abort)
            t_pull = perf_counter()
            try:
                row = next(stream)
            except StopIteration:
                if span is not None:
                    span.record("match_enumeration", perf_counter() - t_pull)
                break
            pulled = perf_counter() - t_pull
            if span is not None:
                span.record("match_enumeration", pulled)
            if metrics and rows == 0:
                registry.observe("api.first_row_seconds", perf_counter() - t0)
            rows += 1
            row._provenance = provenance
            # The row's first pricing is timed into this panel.
            row._obs = obs
            yield row
    finally:
        duration = perf_counter() - t0
        if span is not None:
            span.attributes["rows"] = rows
            obs.tracer.finish(span)
        if metrics:
            if rows:
                registry.incr("api.rows_streamed", rows)
            _record_query_metrics(obs, pattern, duration, rows, span, engine)


class RowStream:
    """One execution of a :class:`ResultSet`: a closeable row iterator.

    Closing it closes the merge and the target's hook under it — a
    session's iteration pin is released, a fan-out's pending shard
    tasks are cancelled — on exhaustion, on an error (cancellation
    included), on :meth:`close` (or the context manager's exit), and
    when an abandoned stream's generator is garbage-collected.
    """

    __slots__ = ("_inner", "_closed")

    def __init__(self, inner) -> None:
        self._inner = inner
        self._closed = False

    def __iter__(self) -> "RowStream":
        return self

    def __next__(self) -> Row:
        try:
            return next(self._inner)
        except BaseException:
            # StopIteration (exhaustion) and real errors both release
            # the pin deterministically, then propagate.
            self.close()
            raise

    def close(self) -> None:
        """Release the iteration pin and abort the enumeration; idempotent."""
        self._closed = True
        self._inner.close()

    @property
    def closed(self) -> bool:
        """True once the stream was exhausted, failed or closed."""
        return self._closed

    def __enter__(self) -> "RowStream":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"RowStream({state})"
