"""Session facade over the warehouse — the library's public surface.

The paper's system is a *service*: imprecise modules continuously query
and update a shared probabilistic XML warehouse.  A :class:`Session` is
one module's handle on that service::

    import repro

    with repro.connect("people-wh", create=True, root="directory") as session:
        session.update(
            repro.update(repro.pattern("directory", variable="d", anchored=True))
            .insert("d", tree("person", tree("name", "Alice")))
            .confidence(0.9)
        )
        for row in session.query("//person { name }").limit(5):
            print(row.probability, row.tree.canonical())

* queries accept strings, :class:`~repro.tpwj.pattern.Pattern` objects
  or :class:`~repro.api.builders.PatternBuilder` DSL chains, and return
  lazy :class:`~repro.api.results.ResultSet` streams evaluated through
  the warehouse's cost-based planner and plan cache;
* updates accept :class:`UpdateTransaction`, XUpdate strings or
  :class:`~repro.api.builders.UpdateBuilder` chains;
* :meth:`Session.snapshot` opens a snapshot-isolated read view: the
  document generation is pinned (O(1) — writers copy on first write),
  so a long-running reader sees one consistent state while commits
  continue.

Thread safety
-------------
A session may be shared across threads in the single-writer /
multi-reader shape the serving layer (:mod:`repro.serve`) builds on:
any number of threads may query (each iteration pins a generation on
entry and releases it on exit, then runs lock-free on the frozen
tree), while update/batch/simplify/compact calls serialize on the
warehouse's write lock.  Snapshots are safe to open, query and close
from any thread.  The one mutable surface *not* meant for concurrent
use is the raw :attr:`Session.document` tree — use queries or
snapshots instead.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.core.fuzzy_tree import FuzzyNode, FuzzyTree
from repro.core.simplify import SimplifyReport
from repro.core.update import UpdateReport
from repro.errors import SessionClosedError, WarehouseError
from repro.events.table import EventTable
from repro.tpwj.match import DEFAULT_CONFIG, MatchConfig
from repro.api.builders import compile_pattern, compile_transaction
from repro.api.results import ResultSet, resolve_query
from repro.warehouse.warehouse import (
    USE_DEFAULT_OBSERVABILITY,
    CommitPolicy,
    DocumentPin,
    Warehouse,
)

__all__ = ["Session", "Snapshot", "SessionBatch", "connect"]


def connect(
    path: str | Path,
    *,
    create: bool = False,
    root: str | None = None,
    document: FuzzyTree | None = None,
    match_config: MatchConfig = DEFAULT_CONFIG,
    auto_simplify_factor: float | None = None,
    snapshot_every: int = 64,
    wal_bytes_limit: int = 4 * 1024 * 1024,
    compact_on_close: bool = True,
    observability=USE_DEFAULT_OBSERVABILITY,
) -> "Session":
    """Open a session on the warehouse at *path*.

    With ``create=True`` a new warehouse is initialised first, from
    *document* (a :class:`FuzzyTree`) or an empty document rooted at
    label *root*.  The remaining keywords are the commit policy (see
    :class:`~repro.warehouse.warehouse.CommitPolicy`) and the handle's
    match semantics.  Sessions are context managers; closing releases
    open snapshots, folds the WAL per policy and frees the writer lock.

    *observability* defaults to the process-global instrument panel
    (:func:`repro.obs.default_observability`); pass an
    :class:`~repro.obs.Observability` to scope metrics/traces to this
    warehouse, or ``None`` for no panel (the engine's hot-path counters
    still tick on :data:`repro.obs.metrics.process_registry`).
    """
    policy = CommitPolicy(
        snapshot_every=snapshot_every,
        wal_bytes_limit=wal_bytes_limit,
        compact_on_close=compact_on_close,
    )
    if create:
        if document is None:
            if root is None:
                raise WarehouseError(
                    "create=True needs document= or root= to initialise from"
                )
            document = FuzzyTree(FuzzyNode(root), EventTable())
        warehouse = Warehouse.create(
            path,
            document,
            match_config=match_config,
            auto_simplify_factor=auto_simplify_factor,
            policy=policy,
            observability=observability,
        )
    else:
        if document is not None or root is not None:
            raise WarehouseError("document=/root= only apply with create=True")
        warehouse = Warehouse.open(
            path,
            match_config=match_config,
            auto_simplify_factor=auto_simplify_factor,
            policy=policy,
            observability=observability,
        )
    return Session(warehouse)


class Session:
    """A connected module's handle: fluent queries, updates, snapshots."""

    __slots__ = ("_warehouse", "_snapshots", "_closed", "_lock")

    def __init__(self, warehouse: Warehouse) -> None:
        self._warehouse = warehouse
        self._snapshots: list[Snapshot] = []
        self._closed = False
        # Guards the snapshot registry and the closed flag (queries and
        # updates synchronize on the warehouse's own locks instead).
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release snapshots and the warehouse handle; idempotent.

        Safe to race: exactly one thread performs the shutdown."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            snapshots = list(self._snapshots)
        for snapshot in snapshots:
            snapshot.close()
        self._warehouse.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError("session is closed")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, query=None, *, planner: bool = True, options=None) -> ResultSet:
        """A lazy result stream for *query* (string, Pattern or builder).

        Nothing runs until the result set is iterated; iteration goes
        through the warehouse's cost-based planner and plan cache, and
        ``.limit(n)`` streams — see :class:`ResultSet`.
        ``planner=False`` runs the same operators under the fixed
        pre-order plan the handle's ``MatchConfig`` spells out, on a
        fresh document walk — the ablation baseline (ignored when
        *options* is given: its ``plan`` field governs).

        *options*, a :class:`~repro.api.QueryOptions`, carries the full
        execution envelope (limit, order, ``min_probability``, anytime
        parameters) in one object — the form every serving layer
        threads through unchanged.  *query* may then be omitted: the
        options' ``pattern`` field is compiled instead.
        """
        self._check_open()
        pattern, options, _keys = resolve_query(query, options, planner=planner)
        return ResultSet(self, pattern, options)

    def explain(self, query) -> str:
        """The engine's statistics and chosen plan for *query*, rendered."""
        self._check_open()
        return self._warehouse.explain_plan(compile_pattern(query))

    def _iter_context(self):
        """(document, engine, config, release, obs) for ResultSet iteration.

        The document generation is pinned for the iteration's duration
        so a commit landing between two streamed rows copies-on-write
        instead of mutating the tree under the iterator; *release*
        (called by the ResultSet when iteration ends) unpins it.  *obs*
        is the warehouse's instrument panel (or None).
        """
        self._check_open()
        warehouse = self._warehouse
        pin = warehouse.pin()
        return (
            pin.document,
            warehouse.engine,
            warehouse._match_config,
            pin.release,
            warehouse._obs,
        )

    def _provenance(self, event: str) -> dict | None:
        self._check_open()
        return self._warehouse.provenance(event)

    # ------------------------------------------------------------------
    # Snapshot-isolated reads
    # ------------------------------------------------------------------

    def snapshot(self) -> "Snapshot":
        """Pin the current document generation for consistent reads.

        The returned :class:`Snapshot` keeps answering queries against
        the state as of this commit sequence while this session (or the
        underlying warehouse) keeps committing.  Use it as a context
        manager; open snapshots count into ``stats()['read_sessions']``.
        """
        self._check_open()
        snapshot = Snapshot(self, self._warehouse.pin())
        with self._lock:
            doomed = self._closed
            if not doomed:
                self._snapshots.append(snapshot)
        if doomed:
            # Lost a race with close(): do not leak the pin.  Closing
            # happens outside the session lock — Snapshot.close()
            # re-enters it via _forget_snapshot.
            snapshot.close()
            raise SessionClosedError("session is closed")
        return snapshot

    def _forget_snapshot(self, snapshot: "Snapshot") -> None:
        with self._lock:
            try:
                self._snapshots.remove(snapshot)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def update(self, transaction, confidence: float | None = None) -> UpdateReport:
        """Apply one probabilistic update and commit it durably.

        *transaction* is an :class:`UpdateTransaction`, an
        :class:`~repro.api.builders.UpdateBuilder`, or an XUpdate
        document string; *confidence*, when given, overrides the
        transaction's own (the paper's modules attach their confidence
        at submission time).
        """
        self._check_open()
        return self._warehouse._commit_update(
            compile_transaction(transaction), confidence
        )

    def update_many(self, transactions, confidence: float | None = None) -> list[UpdateReport]:
        """Apply a batch of updates in order as **one** commit."""
        self._check_open()
        return self._warehouse.update_many(
            [compile_transaction(transaction) for transaction in transactions],
            confidence=confidence,
        )

    def batch(self) -> "SessionBatch":
        """A context manager buffering updates into one batched commit."""
        self._check_open()
        return SessionBatch(self)

    def simplify(self) -> SimplifyReport:
        """Run fuzzy-data simplification and commit the smaller document."""
        self._check_open()
        return self._warehouse.simplify()

    def compact(self) -> dict:
        """Fold the WAL into a fresh snapshot now; returns a summary."""
        self._check_open()
        return self._warehouse.compact()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def document(self) -> FuzzyTree:
        """The live fuzzy document (treat as read-only; use update())."""
        self._check_open()
        return self._warehouse.document

    @property
    def sequence(self) -> int:
        """Commit sequence number (increments on every commit)."""
        self._check_open()
        return self._warehouse.sequence

    @property
    def warehouse(self) -> Warehouse:
        """The underlying warehouse handle (storage-level surface)."""
        return self._warehouse

    def stats(self) -> dict:
        """Document measurements plus commit/log/WAL/read-session counters."""
        self._check_open()
        return self._warehouse.stats()

    @property
    def observability(self):
        """The warehouse's :class:`~repro.obs.Observability` panel (or None)."""
        return self._warehouse.observability

    def metrics(self):
        """The warehouse's :class:`~repro.obs.MetricsRegistry` (or None).

        ``session.metrics().snapshot()`` is the structured dashboard;
        :func:`repro.obs.render_prometheus` turns the same registry
        into scrape-ready text.
        """
        obs = self._warehouse.observability
        return None if obs is None else obs.metrics

    def history(self) -> list[dict]:
        """The audit log, oldest first."""
        self._check_open()
        return self._warehouse.history()

    def provenance(self, event: str) -> dict | None:
        """The audit entry of the update whose confidence minted *event*."""
        self._check_open()
        return self._warehouse.provenance(event)

    def __repr__(self) -> str:
        state = "closed" if self._closed else repr(self._warehouse)
        return f"Session({state})"


class Snapshot:
    """A snapshot-isolated read view pinned at one commit sequence.

    Queries stream lazily exactly like session queries, but against the
    pinned document generation: commits made after the pin — by this
    session or any writer on the same handle — are invisible here.
    Evaluation shares the warehouse engine (plan cache, Shannon memo);
    the engine keeps a frozen per-root walk and condition index for the
    pinned generation, dropped when the last pin on it is released.
    """

    __slots__ = ("_session", "_pin", "_config", "_closed")

    def __init__(self, session: Session, pin: DocumentPin) -> None:
        self._session = session
        self._pin = pin
        # Captured at pin time: the snapshot keeps the handle's match
        # semantics even if read after the session starts closing down.
        self._config = session._warehouse._match_config
        self._closed = False

    @property
    def sequence(self) -> int:
        """The commit sequence this snapshot is pinned at."""
        return self._pin.sequence

    @property
    def document(self) -> FuzzyTree:
        """The pinned document (immutable: writers copy on write)."""
        self._check_open()
        return self._pin.document

    def query(self, query=None, *, planner: bool = True, options=None) -> ResultSet:
        """A lazy result stream evaluated against the pinned state.

        Accepts the same (*query*, *options*) forms as
        :meth:`Session.query`.
        """
        self._check_open()
        pattern, options, _keys = resolve_query(query, options, planner=planner)
        return ResultSet(self, pattern, options)

    def _iter_context(self):
        # Already pinned for the snapshot's whole lifetime — no
        # per-iteration pin (release is None).  The warehouse engine is
        # shared: its per-root view of the pinned generation is frozen
        # (copy-on-write), and its caches are thread-safe.
        self._check_open()
        return (
            self._pin.document,
            self._session._warehouse._engine,
            self._config,
            None,
            self._session._warehouse._obs,
        )

    def _provenance(self, event: str) -> dict | None:
        self._check_open()
        return self._session._warehouse.provenance(event)

    def close(self) -> None:
        """Release the pin; idempotent and race-safe.  Queries raise
        afterwards."""
        self._closed = True
        self._pin.release()  # pin release is itself idempotent
        self._session._forget_snapshot(self)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError("snapshot is closed")

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"seq={self._pin.sequence}"
        return f"Snapshot({state})"


class SessionBatch:
    """Buffers updates for one batched commit (one WAL append + fsync)."""

    __slots__ = ("_session", "_pending", "reports")

    def __init__(self, session: Session) -> None:
        self._session = session
        self._pending: list = []
        #: Per-transaction reports, populated when the batch commits.
        self.reports: list[UpdateReport] | None = None

    def update(self, transaction, confidence: float | None = None) -> None:
        """Buffer a transaction (validated now, applied at commit)."""
        transaction = compile_transaction(transaction)
        if confidence is not None:
            transaction = transaction.with_confidence(confidence)
        self._pending.append(transaction)

    def __len__(self) -> int:
        return len(self._pending)

    def __enter__(self) -> "SessionBatch":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self._pending:
            self.reports = self._session.update_many(self._pending)
            self._pending = []
