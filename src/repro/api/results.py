"""Lazy result sets for session queries.

A :class:`ResultSet` is a *description* of a query against a session or
snapshot — nothing runs until it is iterated.  Iteration streams
:class:`~repro.core.query.Row` objects — the one in-process row record
— through the engine's streaming protocol
(:meth:`~repro.engine.QueryEngine.iter_matches`): the cost-based plan
comes from the source's plan cache, matches are pulled one at a time,
and :meth:`limit` pushes early termination into the backtracking join —
a top-k query stops the enumeration after k rows instead of
materializing everything and slicing.

Rows are per-match (exact probability that *that match* fires, its
answer tree, variable bindings, and provenance resolved through the
session the stream ran on).  :meth:`ResultSet.answers` folds the
stream back into the classic probability-ranked, per-answer-tree
aggregation of :func:`~repro.core.query.query_fuzzy_tree`.
"""

from __future__ import annotations

import random
import weakref
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


class BaseResultSet:
    """What every result set shares: a compiled pattern, one frozen
    :class:`~repro.api.options.QueryOptions`, the refinements over it
    and the materializers over ``iter()``.

    A result set is immutable — every refinement returns a new one
    (subclasses say how through :meth:`_with_options`); the values are
    validated by :class:`QueryOptions` itself.
    """

    __slots__ = ("_pattern", "_options")

    def _with_options(self, options: QueryOptions):
        raise NotImplementedError

    def _summary(self) -> str:
        return repr(str(self._pattern))

    @property
    def options(self) -> QueryOptions:
        """The frozen execution envelope this set describes."""
        return self._options

    def _refined(self, field: str, value):
        """A copy with ``options.<field> = value``; :class:`QueryOptions`
        validates the value (``None`` would *unset* the field, which is
        not a refinement)."""
        if value is None:
            raise QueryError(f"{field} needs a value, got None")
        try:
            return self._with_options(self._options.replace(**{field: value}))
        except QueryOptionsError as exc:
            raise QueryError(f"{field} {exc.errors[0]['message']}") from None

    def limit(self, n: int):
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

    def order_by_probability(self):
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

    def min_probability(self, p):
        """Only rows with probability >= *p*.

        The threshold is pushed into the join: partial matches whose
        upper bound is already below *p* are pruned.  Chaining keeps
        the strictest threshold.
        """
        refined = self._refined("min_probability", p)
        current = self._options.min_probability
        return refined if current is None or p > current else self

    def all(self) -> list:
        """Materialize every row (honoring :meth:`limit`)."""
        return list(self)

    def first(self):
        """The first row, computed without enumerating the rest."""
        stream = iter(self.limit(1))
        try:
            return next(stream, None)
        finally:
            # Close explicitly so pins and shard tasks are released
            # now, not whenever the abandoned iterator is collected.
            stream.close()

    def count(self) -> int:
        """Number of rows (honoring :meth:`limit`)."""
        return sum(1 for _ in self)

    def __repr__(self) -> str:
        extras = self._options.to_json()
        extras.pop("pattern", None)
        rendered = "".join(f", {k}={v!r}" for k, v in sorted(extras.items()))
        return f"{type(self).__name__}({self._summary()}{rendered})"


class ResultSet(BaseResultSet):
    """A lazy, re-iterable stream of query rows.

    Each ``iter()`` re-executes the query against the source's current
    document (snapshots pin theirs, so re-iteration there is stable);
    repeated executions hit the source's plan cache.  The refinements
    (:meth:`limit`, :meth:`order_by_probability`,
    :meth:`min_probability`) are sugar over the set's frozen
    :class:`~repro.api.options.QueryOptions`, the same object every
    serving layer threads through unchanged.
    """

    __slots__ = ("_source",)

    def __init__(self, source, pattern, options: QueryOptions) -> None:
        self._source = source
        self._pattern = pattern
        self._options = options

    def _with_options(self, options: QueryOptions) -> "ResultSet":
        return ResultSet(self._source, self._pattern, options)

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------

    def __iter__(self) -> "RowStream":
        # Iteration over a *live* session pins the current document
        # generation for its whole duration: a commit landing between
        # two rows copies-on-write instead of mutating the tree this
        # iterator is walking.  (Snapshots are already pinned; their
        # release callback is None.)  The pin is taken here — the
        # RowStream owns it and guarantees release on exhaustion,
        # close(), context-manager exit, or garbage collection of an
        # abandoned iterator (weakref finalizer).
        return self.stream()

    def stream(self, *, abort=None) -> "RowStream":
        """An explicit :class:`RowStream`, optionally cancellable.

        *abort*, when given, is a zero-argument callable polled before
        every row is computed (so it may be flipped from another thread
        — a deadline timer, a disconnect watcher).  Once it returns
        true the enumeration stops before doing any further work, the
        iteration pin is released, and the stream raises
        :class:`~repro.errors.QueryCancelledError` — the serving
        layer's per-request deadline path.

        ``limit(0)`` short-circuits to an empty stream without building
        the engine view or opening an iteration pin.
        """
        if self._options.limit == 0:
            return RowStream.empty()
        return RowStream(self._source, self._pattern, self._options, abort)

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
        estimated value) and come back sorted by decreasing
        probability, ties by canonical form.
        """
        opts = self._options
        if epsilon is None:
            epsilon = opts.epsilon
        if deadline_ms is None:
            deadline_ms = opts.deadline_ms
        if opts.limit == 0:
            return []
        fuzzy, engine, config, release, obs = self._source._iter_context()
        engine = engine if opts.use_planner else None
        try:
            rows = iter_query_rows(
                fuzzy, self._pattern, config, engine=engine, limit=opts.limit
            )
            groups = group_by_key((row.canonical, row, row.dnf.terms) for row in rows)
            estimates = estimate_answers(
                [(row.tree, Dnf(terms)) for _key, row, terms in groups],
                fuzzy.events,
                epsilon=epsilon,
                deadline=None if deadline_ms is None else deadline_ms / 1000.0,
                rng=random.Random(seed),
            )
        finally:
            if release is not None:
                release()
        if opts.min_probability is not None:
            floor = opts.min_probability
            estimates = [e for e in estimates if e.probability >= floor]
        return estimates

    def answers(self) -> list[FuzzyAnswer]:
        """Classic aggregation: rows grouped per answer tree, ranked.

        Matches inducing the same answer tree are merged (their
        conditions disjoined) and the aggregates ranked by decreasing
        probability — :func:`~repro.core.query.query_fuzzy_tree`'s
        result when no limit is set; with a limit, the aggregation
        covers the streamed prefix only.
        """
        options = self._options
        if options.limit == 0:
            return []
        fuzzy, engine, config, release, obs = self._source._iter_context()
        tracing = obs is not None and obs.tracer.enabled
        metrics = obs is not None and obs.metrics.enabled
        engine = engine if options.use_planner else None
        span = (
            obs.tracer.start("query", pattern=self._pattern, aggregate=True)
            if tracing
            else None
        )
        t0 = perf_counter()
        answers: list[FuzzyAnswer] | None = None
        try:
            if options.limit is None and not options.is_bounded:
                # No cap: group matches directly — no row is ever built
                # and each answer group is priced exactly once.
                answers = query_fuzzy_tree(
                    fuzzy, self._pattern, config, engine=engine
                )
            else:
                # Aggregate exactly the rows the stream would emit
                # (limited prefix / top-k / thresholded enumeration).
                answers = group_rows(
                    _row_iter(fuzzy, engine, config, self._pattern, options, None),
                    fuzzy.events,
                    cache=engine.shannon if engine is not None else None,
                )
            return answers
        finally:
            if release is not None:
                release()
            if span is not None:
                if answers is not None:
                    span.attributes["rows"] = len(answers)
                obs.tracer.finish(span)
            if metrics:
                _record_query_metrics(
                    obs,
                    self._pattern,
                    perf_counter() - t0,
                    len(answers) if answers is not None else 0,
                    span,
                    engine,
                )


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


def _no_rows():
    """The generator behind :meth:`RowStream.empty` (closeable, done)."""
    return
    yield


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


def _stream_rows(source, fuzzy, engine, config, pattern, options, obs, abort):
    """The row generator behind a :class:`RowStream`.

    A module-level function (not a method) so the generator holds no
    reference to the stream object — the stream's weakref finalizer
    must be able to fire while the generator is still referenced by it.

    With instrumentation attached the generator opens a ``query`` span
    (the engine's plan-cache / plan-build / view-build emits nest under
    it), accumulates per-pull enumeration time into one
    ``match_enumeration`` child, and on exhaustion *or* early close
    records first-row/total latencies, row counts and — past the
    threshold — a slow-log entry.  Fully disabled, the cost is one
    flag check per query (the plain loop below).
    """
    engine = engine if options.use_planner else None
    tracing = obs is not None and obs.tracer.enabled
    metrics = obs is not None and obs.metrics.enabled
    provenance = source._provenance
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
    """One execution of a :class:`ResultSet`: an iterator of
    :class:`~repro.core.query.Row`.

    On a live session the stream owns the iteration pin; it is released
    exactly once, on whichever comes first:

    * exhaustion (the query ran to completion or hit its limit);
    * :meth:`close`, explicit or via the stream's own context manager
      (``with iter(result_set) as stream: ...``);
    * garbage collection of an abandoned stream (a ``weakref``
      finalizer, so breaking out of a loop and dropping the iterator
      can never pin the generation forever).

    Snapshot streams carry no pin (their source holds one for the
    snapshot's whole lifetime) and close() is a plain generator close.
    """

    __slots__ = ("_inner", "_finalizer", "__weakref__")

    def __init__(self, source, pattern, options, abort=None) -> None:
        fuzzy, engine, config, release, obs = source._iter_context()
        # The finalizer calls the pin's release directly — it must not
        # reference self, or the stream could never become unreachable.
        self._finalizer = (
            weakref.finalize(self, release) if release is not None else None
        )
        self._inner = _stream_rows(
            source, fuzzy, engine, config, pattern, options, obs, abort
        )

    @classmethod
    def empty(cls) -> "RowStream":
        """An exhausted stream with no pin and no engine view.

        ``limit(0)`` resolves here: the result is known to be empty, so
        no document generation is pinned and no query work runs —
        ``read_sessions`` stays untouched.
        """
        stream = object.__new__(cls)
        stream._finalizer = None
        stream._inner = _no_rows()
        return stream

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
        finalizer = self._finalizer
        if finalizer is not None:
            finalizer()  # idempotent: detaches itself on first call
        self._inner.close()

    @property
    def closed(self) -> bool:
        """True once the stream's pin has been released (live sessions) —
        snapshot streams, which carry no pin, report False until GC."""
        finalizer = self._finalizer
        return finalizer is not None and not finalizer.alive

    def __enter__(self) -> "RowStream":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"RowStream({state})"
