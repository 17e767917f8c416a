"""The probabilistic XML warehouse (paper, slide 3).

The warehouse is the system the paper's architecture diagram shows:
imprecise modules push *update transactions with a confidence* into a
probabilistic store; consumers pose *TPWJ queries* and receive answers
with confidences.  This class wires the fuzzy-tree engine to the
storage substrate:

* ``Warehouse.create(path, document)`` / ``Warehouse.open(path)``;
* the public query/update surface is the session facade
  (:func:`repro.connect` → :class:`~repro.api.session.Session`), which
  layers fluent builders, lazy streaming result sets and
  snapshot-isolated reads (:meth:`pin`) over this class;
* :meth:`update_many` — batched ingestion: many transactions applied in
  order, persisted as **one** commit (one WAL append, one fsync); a
  single update runs the same routine as a batch of one;
* :meth:`simplify` — on-demand fuzzy-data simplification (also
  triggered automatically when the document grows past
  ``auto_simplify_factor`` times its size at open);
* :meth:`stats` — document, log and WAL statistics.

Commits are incremental (the :class:`CommitPolicy`): instead of
serializing and fsyncing the whole document on every update, a commit
appends one checksummed record to the write-ahead log; the on-disk
``document.xml`` is a periodic *snapshot*, refreshed when the WAL grows
past the policy's thresholds (or on :meth:`compact` / :meth:`close`).
:meth:`open` recovers by replaying WAL records past the snapshot's
sequence.  ``CommitPolicy(snapshot_every=1)`` restores the historical
full-rewrite behaviour (every commit is its own snapshot).

A warehouse handle owns the single-writer lock from open to close; use
it as a context manager.

Thread safety (the serving layer's contract)
--------------------------------------------
One handle may be shared by many threads in a single-writer /
multi-reader shape:

* the **write path** (update, batch, simplify, compact, close) is
  serialized by a re-entrant in-process lock — concurrent writers
  queue, they never interleave a commit;
* **readers** pin a document generation (:meth:`pin`, taken by the
  session layer on every iteration) and then run lock-free on the
  pinned, frozen tree; pin acquisition briefly synchronizes with the
  write lock so a pin can never observe a half-applied in-place
  mutation;
* pin accounting is O(1) counters under a dedicated mutex (not the
  write lock), so releasing a pin never waits on a commit;
* the engine's caches carry their own locks (see
  :mod:`repro.engine`); when the last pin on a superseded generation
  is released the engine's per-root view for it is dropped eagerly.
"""

from __future__ import annotations

import dataclasses
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from repro.analysis.metrics import fuzzy_stats
from repro.obs import default_observability
from repro.core.fuzzy_tree import FuzzyTree
from repro.engine import QueryEngine, StatsDelta
from repro.core.query import FuzzyAnswer, query_fuzzy_tree
from repro.core.simplify import SimplifyReport, simplify
from repro.core.update import UpdateReport, apply_update
from repro.errors import (
    ReproError,
    SessionClosedError,
    WarehouseCorruptError,
    WarehouseError,
)
from repro.tpwj.match import DEFAULT_CONFIG, MatchConfig
from repro.tpwj.parser import parse_pattern
from repro.tpwj.pattern import Pattern
from repro.updates.transaction import TransactionBatch, UpdateTransaction
from repro.warehouse.log import TransactionLog, WriteAheadLog
from repro.warehouse.snapshot_binary import load_binary, save_binary
from repro.warehouse.storage import Storage
from repro.xmlio.parse import fuzzy_from_string
from repro.xmlio.serialize import fuzzy_to_string
from repro.xmlio.xupdate import (
    batch_from_string,
    batch_to_string,
    transaction_from_string,
    transaction_to_string,
)

__all__ = [
    "CommitPolicy",
    "DocumentPin",
    "USE_DEFAULT_OBSERVABILITY",
    "Warehouse",
]

#: Sentinel default for ``observability=`` parameters: attach the
#: process-global panel (:func:`repro.obs.default_observability`).
#: Pass ``None`` explicitly to attach no panel (the benchmark baseline;
#: hot-path counters still tick on the process registry), or an
#: :class:`~repro.obs.Observability` of your own to scope this
#: warehouse's metrics privately.
USE_DEFAULT_OBSERVABILITY = object()


def _resolve_observability(value):
    if value is USE_DEFAULT_OBSERVABILITY:
        return default_observability()
    return value


class CommitPolicy:
    """When the incremental commit pipeline folds the WAL into a snapshot.

    Parameters
    ----------
    snapshot_every:
        Take a fresh snapshot every N commits.  ``1`` disables the
        pipeline entirely: every commit rewrites the full document (the
        historical behaviour) and the WAL stays empty.
    wal_bytes_limit:
        Also snapshot whenever the WAL file grows past this many bytes,
        so a burst of large transactions cannot make recovery replay
        unboundedly expensive.
    compact_on_close:
        Fold any pending WAL records into a final snapshot when the
        handle closes, so a cleanly closed warehouse reopens without
        replay.
    """

    __slots__ = ("snapshot_every", "wal_bytes_limit", "compact_on_close")

    def __init__(
        self,
        snapshot_every: int = 64,
        wal_bytes_limit: int = 4 * 1024 * 1024,
        compact_on_close: bool = True,
    ) -> None:
        if not isinstance(snapshot_every, int) or snapshot_every < 1:
            raise WarehouseError(
                f"snapshot_every must be an int >= 1, got {snapshot_every!r}"
            )
        if not isinstance(wal_bytes_limit, int) or wal_bytes_limit < 1:
            raise WarehouseError(
                f"wal_bytes_limit must be an int >= 1, got {wal_bytes_limit!r}"
            )
        self.snapshot_every = snapshot_every
        self.wal_bytes_limit = wal_bytes_limit
        self.compact_on_close = compact_on_close

    @property
    def full_rewrite(self) -> bool:
        """True when every commit is its own snapshot (no WAL)."""
        return self.snapshot_every == 1

    def __repr__(self) -> str:
        if self.full_rewrite:
            return "CommitPolicy(full-rewrite)"
        return (
            f"CommitPolicy(snapshot_every={self.snapshot_every}, "
            f"wal_bytes_limit={self.wal_bytes_limit}, "
            f"compact_on_close={self.compact_on_close})"
        )


class DocumentPin:
    """A pinned, immutable view of the document at one commit sequence.

    Snapshot isolation for readers: :meth:`Warehouse.pin` hands out the
    *current* document object; the first commit that would mutate a
    pinned document swaps the live document for a clone first
    (copy-on-write), so the pinned object — tree and event table — is
    never touched again.  Pinning is therefore O(1); writers pay one
    clone per pinned generation, and only when they actually write.

    Release pins promptly (:meth:`release` or the session layer's
    snapshot context manager): every pinned generation a writer
    invalidates keeps a full document copy alive.
    """

    __slots__ = ("document", "sequence", "_warehouse")

    def __init__(self, warehouse: "Warehouse", document: FuzzyTree, sequence: int) -> None:
        self.document = document
        self.sequence = sequence
        self._warehouse = warehouse

    @property
    def released(self) -> bool:
        return self._warehouse is None

    def release(self) -> None:
        """Unpin; idempotent and thread-safe.  The warehouse stops
        copy-on-write for this generation once its last pin is gone."""
        warehouse = self._warehouse
        if warehouse is not None:
            # The warehouse clears self._warehouse under its pin mutex,
            # so two racing releases decrement the accounting once.
            warehouse._release_pin(self)

    def __repr__(self) -> str:
        state = "released" if self.released else f"seq={self.sequence}"
        return f"DocumentPin({state})"


class Warehouse:
    """A durable, lockable store for one fuzzy document."""

    def __init__(
        self,
        storage: Storage,
        document: FuzzyTree,
        sequence: int,
        match_config: MatchConfig = DEFAULT_CONFIG,
        auto_simplify_factor: float | None = None,
        policy: CommitPolicy | None = None,
        observability=USE_DEFAULT_OBSERVABILITY,
    ) -> None:
        self._storage = storage
        self._document = document
        self._sequence = sequence
        self._log = TransactionLog(storage.path)
        self._wal = WriteAheadLog(storage.path)
        self._policy = policy or CommitPolicy()
        self._snapshot_sequence = sequence
        self._commits_since_snapshot = 0
        # Set when a failed WAL append may have left in-memory mutations
        # with no durable trace: the next commit must snapshot so the
        # on-disk state heals (the seed full-rewrite behaviour).
        self._snapshot_due = False
        self._match_config = match_config
        self._auto_simplify_factor = auto_simplify_factor
        self._baseline_size = document.size()
        self._closed = False
        # Single-writer serialization for this handle's threads: every
        # mutating operation (and pin acquisition, which must not
        # observe a half-applied in-place mutation) holds this lock.
        self._write_lock = threading.RLock()
        # Pin accounting (see DocumentPin): O(1) counters keyed by
        # document identity, guarded by a dedicated mutex so releasing
        # a pin never waits behind a commit.  The first mutation of a
        # pinned document generation clones it out from under the
        # readers (copy-on-write).
        self._pins_lock = threading.Lock()
        self._pin_counts: dict[int, int] = {}
        self._pin_total = 0
        # Instrument panel (metrics registry, tracer, slow-query log):
        # the process-global default unless the caller scoped one per
        # warehouse, or None for no panel.
        self._obs = _resolve_observability(observability)
        # Cost-based query engine: plans are cached per (pattern
        # fingerprint, stats version); commits feed their structural
        # delta to the engine, which maintains the statistics in place
        # and bumps the version only when the document really changed —
        # so queries between (and across no-op) commits reuse plans.
        self._engine = QueryEngine(
            lambda: self._document.root, observability=self._obs
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | Path,
        document: FuzzyTree,
        match_config: MatchConfig = DEFAULT_CONFIG,
        auto_simplify_factor: float | None = None,
        policy: CommitPolicy | None = None,
        observability=USE_DEFAULT_OBSERVABILITY,
    ) -> "Warehouse":
        """Create a new warehouse at *path* holding *document*.

        Fails when a document already exists there (open it instead).
        """
        storage = Storage(path)
        storage.initialize()
        if storage.exists():
            raise WarehouseError(f"a warehouse already exists at {path}")
        storage.acquire_lock()
        try:
            warehouse = cls(
                storage,
                document.clone(),
                sequence=0,
                match_config=match_config,
                auto_simplify_factor=auto_simplify_factor,
                policy=policy,
                observability=observability,
            )
            warehouse._commit("create", {})
        except BaseException:
            storage.release_lock()
            raise
        return warehouse

    @classmethod
    def open(
        cls,
        path: str | Path,
        match_config: MatchConfig = DEFAULT_CONFIG,
        auto_simplify_factor: float | None = None,
        policy: CommitPolicy | None = None,
        observability=USE_DEFAULT_OBSERVABILITY,
    ) -> "Warehouse":
        """Open an existing warehouse, taking the writer lock.

        Recovery: the snapshot is loaded, then every intact WAL record
        past the snapshot's sequence is replayed against it (a torn
        tail record — a crash mid-append — is discarded; corruption
        anywhere else raises
        :class:`~repro.errors.WarehouseCorruptError`).  Audit-log
        entries missing for replayed commits are reconstructed.

        When the snapshot carries a binary image
        (:mod:`repro.warehouse.snapshot_binary`) it is decoded instead
        of reparsing the XML — the cold-start fast path.  A damaged or
        stale image falls back to the XML snapshot silently (counted in
        ``warehouse.binary_snapshot_fallbacks``); only when the XML copy
        is *also* damaged does the open raise.
        """
        storage = Storage(path)
        if not storage.exists():
            raise WarehouseError(f"no warehouse at {path}")
        obs = _resolve_observability(observability)
        storage.acquire_lock()
        try:
            document, snapshot_sequence = cls._load_snapshot(storage, obs)
            meta = storage.read_meta()
            fresh_counter = meta.get("fresh_counter")
            if isinstance(fresh_counter, int):
                document.events.advance_fresh_counter(fresh_counter)
            wal = WriteAheadLog(storage.path)
            records, _torn = wal.replayable(snapshot_sequence)
            t_replay = perf_counter() if obs is not None else 0.0
            replayed = [
                (record, _replay_record(document, record, match_config))
                for record in records
            ]
            if obs is not None:
                obs.metrics.observe(
                    "warehouse.recovery_seconds", perf_counter() - t_replay
                )
                if records:
                    obs.metrics.incr(
                        "warehouse.recovery_replayed_records", len(records)
                    )
            sequence = records[-1]["sequence"] if records else snapshot_sequence
            warehouse = cls(
                storage,
                document,
                sequence,
                match_config=match_config,
                auto_simplify_factor=auto_simplify_factor,
                policy=policy,
                observability=obs,
            )
            warehouse._snapshot_sequence = snapshot_sequence
            warehouse._commits_since_snapshot = len(records)
            warehouse._reconcile_audit_log(replayed)
        except BaseException:
            storage.release_lock()
            raise
        return warehouse

    @classmethod
    def _load_snapshot(cls, storage: Storage, obs) -> tuple[FuzzyTree, int]:
        """Load the snapshot, preferring the binary image over the XML.

        The binary image must decode cleanly *and* carry the sequence
        the metadata records — anything else (damage, truncation, a
        stale image from an interrupted snapshot write) falls back to
        the authoritative XML copy.
        """
        fallback = False
        payload = None
        try:
            payload = storage.read_binary()
        except WarehouseCorruptError:
            fallback = True
        if payload is not None:
            try:
                document, binary_sequence = load_binary(payload)
            except WarehouseCorruptError:
                fallback = True
            else:
                meta = storage.read_meta()
                if binary_sequence == int(meta.get("sequence", 0)):
                    if obs is not None:
                        obs.metrics.incr("warehouse.binary_snapshot_loads")
                    return document, binary_sequence
                fallback = True
        if fallback and obs is not None:
            obs.metrics.incr("warehouse.binary_snapshot_fallbacks")
        xml_text, snapshot_sequence = storage.read_document()
        return fuzzy_from_string(xml_text), snapshot_sequence

    def close(self) -> None:
        """Fold pending WAL records into a final snapshot (per policy),
        release the lock; the handle becomes unusable.  Idempotent and
        safe to race: exactly one thread performs the shutdown."""
        with self._write_lock:
            if self._closed:
                return
            try:
                if (
                    self._policy.compact_on_close
                    and not self._policy.full_rewrite
                    and (self._commits_since_snapshot > 0 or self._snapshot_due)
                ):
                    self._write_snapshot()
            finally:
                self._storage.release_lock()
                self._closed = True

    def __enter__(self) -> "Warehouse":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError("warehouse handle is closed")

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    @property
    def document(self) -> FuzzyTree:
        """The live fuzzy document (treat as read-only; use update())."""
        self._check_open()
        return self._document

    @property
    def sequence(self) -> int:
        """Commit sequence number (increments on every commit)."""
        return self._sequence

    @property
    def snapshot_sequence(self) -> int:
        """Sequence of the on-disk snapshot (commits past it live in the WAL)."""
        return self._snapshot_sequence

    @property
    def policy(self) -> CommitPolicy:
        """The commit pipeline's snapshot/compaction policy."""
        return self._policy

    @property
    def engine(self) -> QueryEngine:
        """The warehouse's cost-based query engine (stats + plan cache)."""
        self._check_open()
        return self._engine

    @property
    def observability(self):
        """The attached :class:`~repro.obs.Observability` panel (or None)."""
        return self._obs

    def _query_answers(
        self, pattern: str | Pattern, *, planner: bool = True
    ) -> list[FuzzyAnswer]:
        """Evaluate a TPWJ query; answers ranked by probability.

        Matching runs through the cost-based engine with the
        warehouse's plan cache (a handle's ``max_matches`` is pushed
        into the engine's streaming protocol, which stops the
        enumeration at the cap); ``planner=False`` runs the same
        operators under the fixed pre-order plan the handle's
        :class:`MatchConfig` spells out, on a throw-away walk, without
        the condition index or the Shannon memo.

        Thread safety: the evaluation runs against a pinned generation
        (released on return), so a concurrent commit copies-on-write
        instead of mutating the tree under the matcher.
        """
        self._check_open()
        pattern = self._normalize_pattern(pattern)
        pin = self.pin()
        try:
            return query_fuzzy_tree(
                pin.document,
                pattern,
                self._match_config,
                engine=self._engine if planner else None,
            )
        finally:
            pin.release()

    def _normalize_pattern(self, pattern: str | Pattern) -> Pattern:
        if isinstance(pattern, str):
            return parse_pattern(pattern)
        return pattern

    def explain_plan(self, pattern: str | Pattern) -> str:
        """The engine's statistics and chosen plan for *pattern*, rendered."""
        self._check_open()
        if isinstance(pattern, str):
            pattern = parse_pattern(pattern)
        return self._engine.explain(pattern)

    def pin(self) -> DocumentPin:
        """Pin the current document generation for a snapshot reader.

        O(1): no copy happens here.  The first later commit that would
        mutate the pinned document clones the live document first, so
        the pin's view stays frozen at its commit sequence.  Callers
        must :meth:`DocumentPin.release` when done (the session API's
        ``snapshot()`` context manager and result-set iterators do).

        Thread safety: acquisition synchronizes with the write lock —
        a commit mutating the live document *in place* (no pins open at
        its start) must finish before a new pin can capture the tree,
        so a pin never observes a half-applied mutation.  Everything
        after acquisition is lock-free reads of the frozen generation.
        """
        with self._write_lock:
            self._check_open()
            with self._pins_lock:
                document = self._document
                pin = DocumentPin(self, document, self._sequence)
                key = id(document)
                self._pin_counts[key] = self._pin_counts.get(key, 0) + 1
                self._pin_total += 1
        return pin

    def _release_pin(self, pin: DocumentPin) -> None:
        with self._pins_lock:
            if pin._warehouse is None:
                return  # racing double-release: first caller won
            pin._warehouse = None
            key = id(pin.document)
            count = self._pin_counts.get(key, 0)
            generation_over = count <= 1
            if generation_over:
                self._pin_counts.pop(key, None)
            else:
                self._pin_counts[key] = count - 1
            self._pin_total -= 1
            superseded = pin.document is not self._document
        if generation_over and superseded and not self._closed:
            # Last pin on a copied-on-write generation: the engine's
            # per-root view for it can never be read again.
            self._engine.forget_root(pin.document.root)

    @property
    def read_sessions(self) -> int:
        """Number of snapshot pins currently open against this handle."""
        return self._pin_total

    def health(self) -> dict:
        """Cheap liveness probe: O(1) counters, no document walk.

        Unlike :meth:`stats` this never pins the document or takes the
        write lock, so a health poll cannot stall behind a long commit
        — exactly what the serving layer's ``/healthz`` needs.
        """
        return {
            "alive": not self._closed,
            "sequence": self._sequence,
            "wal_depth": self._commits_since_snapshot,
            "read_sessions": self._pin_total,
        }

    def stats(self) -> dict:
        """Document measurements plus commit/log/WAL counters.

        The O(n) document walk happens on a pinned generation *outside*
        the write lock, so a monitoring poll never stalls commits or
        new pins for the walk's duration.
        """
        pin = self.pin()  # also checks the handle is open
        try:
            info = fuzzy_stats(pin.document).as_dict()
            with self._write_lock:
                self._check_open()
                info["sequence"] = self._sequence
                info["log_entries"] = len(self._log.entries())
                info["snapshot_sequence"] = self._snapshot_sequence
                info["wal_depth"] = self._commits_since_snapshot
                info["wal_bytes"] = self._wal.size_bytes()
                # Exclude the pin this very call holds for its walk.
                info["read_sessions"] = self._pin_total - 1
        finally:
            pin.release()
        shannon = self._engine.shannon.stats()
        info["shannon_cache_entries"] = shannon["entries"]
        info["shannon_cache_misses"] = shannon["misses"]
        info["shannon_cache_hits"] = shannon["hits"]
        obs = self._obs
        if obs is not None:
            self._observe_gauges(obs)
            obs.metrics.set_gauge("warehouse.nodes", info.get("nodes", 0))
            obs.metrics.set_gauge(
                "warehouse.declared_events", info.get("declared_events", 0)
            )
        return info

    def history(self) -> list[dict]:
        """The audit log, oldest first."""
        with self._write_lock:
            self._check_open()
            return self._log.entries()

    # ------------------------------------------------------------------
    # Provenance
    # ------------------------------------------------------------------

    def provenance(self, event: str) -> dict | None:
        """The log entry of the update whose confidence created *event*.

        Returns None for events that predate the warehouse (part of the
        initial document) or were not created by an update here.  For
        batched commits the matching per-transaction sub-record is
        returned, augmented with the batch entry's sequence and
        timestamp.
        """
        with self._write_lock:
            self._check_open()
            entries = self._log.entries()
        for entry in entries:
            kind = entry.get("kind")
            if kind == "update" and entry.get("confidence_event") == event:
                return entry
            if kind == "batch":
                for sub in entry.get("reports", ()):
                    if sub.get("confidence_event") == event:
                        merged = dict(sub)
                        merged.setdefault("kind", "batch")
                        merged.setdefault("sequence", entry.get("sequence"))
                        merged.setdefault("timestamp", entry.get("timestamp"))
                        return merged
        return None

    def explain(self, answer) -> list[dict]:
        """Why does this answer hold? One record per involved event.

        *answer* is a :class:`~repro.core.query.FuzzyAnswer` returned by
        :meth:`query`.  Each record carries the event name, its
        probability, and — when the event was minted by an update
        committed through this warehouse — the originating transaction's
        log entry.
        """
        self._check_open()
        records: list[dict] = []
        for event in sorted(answer.dnf.events()):
            records.append(
                {
                    "event": event,
                    "probability": self._document.events.probability(event),
                    "origin": self.provenance(event),
                }
            )
        return records

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def _commit_update(
        self,
        transaction: UpdateTransaction | str,
        confidence: float | None = None,
    ) -> UpdateReport:
        """Apply a probabilistic update transaction and commit.

        *transaction* is an :class:`UpdateTransaction` or an XUpdate
        document string.  *confidence*, when given, overrides the
        transaction's own confidence (the paper's modules attach their
        confidence at submission time).
        """
        return self._commit_transactions("update", [transaction], confidence)[0]

    def update_many(
        self,
        transactions,
        confidence: float | None = None,
    ) -> list[UpdateReport]:
        """Apply a batch of transactions in order as **one** commit.

        Accepts an iterable of :class:`UpdateTransaction` / XUpdate
        strings or a :class:`TransactionBatch`.  Every member is
        applied against the live document (a later transaction sees
        what an earlier one inserted), but the whole batch is persisted
        with a single WAL append and fsync — the amortization that
        makes high-rate ingestion affordable.  An empty iterable is a
        no-op.
        """
        return self._commit_transactions("batch", transactions, confidence)

    def _commit_transactions(
        self, kind: str, transactions, confidence: float | None
    ) -> list[UpdateReport]:
        """The one write path: a single update is a batch of one.

        *kind* (``"update"`` | ``"batch"``) only picks the shape of the
        WAL and audit records; apply, append and auto-simplify are the
        same routine.
        """
        self._check_open()  # a closed handle outranks a malformed transaction
        members = []
        for transaction in transactions:
            if isinstance(transaction, str):
                transaction = transaction_from_string(transaction)
            if confidence is not None:
                transaction = transaction.with_confidence(confidence)
            members.append(transaction)
        if not members:
            return []
        attributes = {"transactions": len(members)} if kind == "batch" else {}
        with self._committing(kind, **attributes):
            texts = [transaction_to_string(t, indent=False) for t in members]
            delta = StatsDelta()
            config = self._match_config
            outcomes = self._apply_in_place(
                lambda: _apply_members(self._document, members, texts, config, delta)
            )
            events = [report.confidence_event for _, _, report in outcomes]
            if kind == "update":
                wal_payload = {"transaction": texts[0], "confidence_event": events[0]}
            else:
                wal_payload = {
                    "batch": batch_to_string(TransactionBatch(members), indent=False),
                    "confidence_events": events,
                }
            # The config fields that change *which* matches an update
            # sees: replay must apply the record under the semantics of
            # the session that wrote it, whatever config the recovering
            # handle opened with.
            wal_payload["max_matches"] = config.max_matches
            wal_payload["honor_negation"] = config.honor_negation
            self._commit(kind, _audit_entry(kind, outcomes), wal_payload, delta)
            factor = self._auto_simplify_factor
            if factor is not None and self._document.size() > factor * self._baseline_size:
                self.simplify()
            return [report for _, _, report in outcomes]

    def simplify(self) -> SimplifyReport:
        """Run fuzzy-data simplification and commit the smaller document.

        Simplification rewrites the document wholesale, so its commit is
        always a fresh snapshot — a natural compaction point.
        """
        with self._committing("simplify"):
            report = self._apply_in_place(lambda: simplify(self._document))
            self._commit(
                "simplify",
                {
                    "nodes_before": report.nodes_before,
                    "nodes_after": report.nodes_after,
                    "merged_siblings": report.merged_siblings,
                    "collected_events": report.collected_events,
                },
            )
            self._baseline_size = max(1, self._document.size())
            return report

    def compact(self) -> dict:
        """Fold the WAL into a fresh snapshot now; returns a summary."""
        with self._write_lock:
            self._check_open()
            folded = self._commits_since_snapshot
            if (
                folded > 0
                or self._snapshot_due
                or self._snapshot_sequence != self._sequence
            ):
                self._write_snapshot()
            return {
                "sequence": self._sequence,
                "folded_records": folded,
                "wal_bytes": self._wal.size_bytes(),
            }

    @contextmanager
    def _committing(self, kind: str, **attributes):
        """What every mutating commit runs under: the write lock, the
        open check and (when tracing) the ``commit`` span."""
        with self._write_lock:
            self._check_open()
            obs = self._obs
            span = (
                obs.tracer.start("commit", kind=kind, **attributes)
                if obs is not None and obs.tracer.enabled
                else None
            )
            try:
                yield
            finally:
                if span is not None:
                    obs.tracer.finish(span)

    def _apply_in_place(self, mutate):
        """Run an in-place document mutation, healing on failure.

        When the mutation raises partway (e.g. a batch member rejected
        after earlier members applied), the in-memory document may hold
        changes with no durable trace.  Later WAL records would then
        replay against a different base than they were written on —
        bricking recovery — so the next commit is forced to snapshot
        (folding whatever state the document is in, exactly as the seed
        full-rewrite path did) and the engine drops possibly-stale
        statistics.
        """
        obs = self._obs
        tracing = obs is not None and obs.tracer.enabled
        t0 = perf_counter() if tracing else 0.0
        self._detach_pinned_readers()
        try:
            # The engine guard serializes the mutation against a
            # concurrent reader's statistics recollection, which walks
            # the live root (see QueryEngine.mutating).
            with self._engine.mutating():
                result = mutate()
        except BaseException:
            self._snapshot_due = True
            self._engine.invalidate()
            raise
        if tracing:
            obs.tracer.emit("apply", perf_counter() - t0)
        return result

    def _detach_pinned_readers(self) -> None:
        """Copy-on-write: clone the live document if snapshot pins hold it.

        Mutations edit the document in place, so a pinned reader would
        otherwise observe writes mid-iteration.  Swapping the live
        document for a clone *before* mutating leaves every pin's tree
        and event table frozen.  The clone is structurally identical,
        so the engine's statistics (and cached plans) stay valid; the
        executor's document walk re-keys itself off the new root
        identity on the next query.  Pins taken after the swap see the
        new generation — one clone per pinned generation, not per write.
        """
        with self._pins_lock:
            if self._pin_counts.get(id(self._document), 0):
                self._document = self._document.clone()

    def _commit(
        self,
        kind: str,
        payload: dict,
        wal_payload: dict | None = None,
        delta: StatsDelta | None = None,
    ) -> None:
        obs = self._obs
        tracing = obs is not None and obs.tracer.enabled
        t_commit = perf_counter() if obs is not None else 0.0
        self._sequence += 1
        try:
            if wal_payload is None or self._policy.full_rewrite or self._snapshot_due:
                # Non-replayable commits (create, simplify), the
                # full-rewrite policy, and healing after a failed append
                # snapshot directly.  The audit log needs its own fsync
                # here: the snapshot carries no replayable trace to
                # rebuild the entry from.
                try:
                    self._write_snapshot()
                except BaseException:
                    if self._snapshot_sequence != self._sequence:
                        # The snapshot never became durable: roll the
                        # sequence back (a later WAL append must not
                        # leave a gap) and keep the heal flag — the
                        # in-memory document still has mutations with
                        # no durable trace.  (A failure *after* the
                        # snapshot write — the WAL reset — leaves the
                        # commit durable; the sequence stands.)
                        self._sequence -= 1
                        self._snapshot_due = True
                    raise
                self._log.append(kind, self._sequence, payload, fsync=True)
            else:
                try:
                    t_wal = perf_counter() if obs is not None else 0.0
                    self._wal.append(kind, self._sequence, wal_payload)
                    if obs is not None:
                        appended = perf_counter() - t_wal
                        if tracing:
                            obs.tracer.emit("wal_append", appended)
                        obs.metrics.observe(
                            "warehouse.wal_append_seconds", appended
                        )
                except BaseException:
                    # The commit was not acknowledged: roll the sequence
                    # back (no WAL gap), but the in-memory document
                    # already mutated with no durable trace — force the
                    # next commit to snapshot.
                    self._sequence -= 1
                    self._snapshot_due = True
                    raise
                self._commits_since_snapshot += 1
                compacting = (
                    self._commits_since_snapshot >= self._policy.snapshot_every
                    or self._wal.size_bytes() >= self._policy.wal_bytes_limit
                )
                # Audit before any compaction: a threshold snapshot
                # resets the WAL, and a crash after that reset could
                # never rebuild a not-yet-written audit entry.  While
                # the record is still in the WAL the append can stay
                # un-fsynced (recovery reconstructs it); when this
                # commit folds the WAL away, the entry must hit disk
                # first.  Failures past this point leave the commit
                # durable in the WAL, so the sequence stands.
                self._log.append(kind, self._sequence, payload, fsync=compacting)
                if compacting:
                    self._write_snapshot()
            if obs is not None:
                obs.metrics.incr("warehouse.commits")
                obs.metrics.incr(f"warehouse.commits.{kind}")
                obs.metrics.observe(
                    "warehouse.commit_seconds", perf_counter() - t_commit
                )
                self._observe_gauges(obs)
        finally:
            # Feed the commit's structural delta to the engine even on
            # failure paths: the delta describes the in-memory mutation,
            # which happened whether or not persistence succeeded, and a
            # stale cached walk would serve wrong query results.
            self._engine.apply_delta(delta)

    def _write_snapshot(self) -> None:
        obs = self._obs
        t0 = perf_counter() if obs is not None else 0.0
        self._storage.write_document(
            fuzzy_to_string(self._document),
            self._sequence,
            extra_meta={"fresh_counter": self._document.events.fresh_counter},
            binary=save_binary(self._document, self._sequence),
        )
        # The snapshot is durable from here: update the bookkeeping
        # before resetting the WAL, so a reset failure cannot make a
        # caller believe nothing durable happened for this sequence
        # (stale WAL records at or below the snapshot sequence are
        # skipped by recovery anyway).
        self._snapshot_sequence = self._sequence
        self._commits_since_snapshot = 0
        self._snapshot_due = False
        self._wal.reset()
        if obs is not None:
            written = perf_counter() - t0
            if obs.tracer.enabled:
                obs.tracer.emit("snapshot", written)
            obs.metrics.observe("warehouse.snapshot_seconds", written)

    def _observe_gauges(self, obs) -> None:
        """Refresh the cheap warehouse gauges (called after each commit
        and before exports; the O(n) node count only on stats())."""
        metrics = obs.metrics
        metrics.set_gauge("warehouse.sequence", self._sequence)
        metrics.set_gauge("warehouse.wal_depth", self._commits_since_snapshot)
        metrics.set_gauge("warehouse.wal_bytes", self._wal.size_bytes())
        metrics.set_gauge("warehouse.read_sessions", self._pin_total)

    def _reconcile_audit_log(self, replayed: list[tuple[dict, list]]) -> None:
        """Reconstruct audit entries lost with the un-fsynced tail.

        Under the WAL pipeline the audit log is best-effort; after a
        crash its tail may lag the WAL.  Replay knows everything the
        audit entry records, so recovery appends the missing entries
        (marked ``"replayed": true``).
        """
        # The audit log is not fsynced under the WAL pipeline, so a
        # crash commonly tears its last line; drop it before reading
        # (the entry is rebuilt below if its commit survived in the WAL).
        self._log.discard_torn_tail()
        if not replayed:
            return
        last_logged = self._log.last_sequence()
        for record, outcomes in replayed:
            if record["sequence"] > last_logged:
                self._log.append(
                    record["kind"],
                    record["sequence"],
                    _audit_entry(record["kind"], outcomes, replayed=True),
                    fsync=False,
                )

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"seq={self._sequence}"
        return f"Warehouse({self._storage.path}, {state})"


#: The :class:`UpdateReport` counters an audit entry carries (summed
#: over the members for a batch).
_AUDIT_COUNTS = ("matches", "applied", "inserted_nodes", "survivor_copies")


def _apply_members(
    document: FuzzyTree, members, texts, match_config: MatchConfig, delta=None
) -> list[tuple]:
    """Apply *members* (whose XUpdate serializations are *texts*) to
    *document* in order: the one place a commit, live or replayed,
    meets the update semantics.  Returns one ``(text, confidence,
    report)`` outcome per member.
    """
    return [
        (
            text,
            transaction.confidence,
            apply_update(document, transaction, match_config, delta=delta),
        )
        for transaction, text in zip(members, texts)
    ]


def _audit_entry(kind: str, outcomes: list[tuple], replayed: bool = False) -> dict:
    """The ``log.jsonl`` payload of an update or batch commit."""
    records = [
        {
            "transaction": text,
            "confidence": confidence,
            "confidence_event": report.confidence_event,
            **{name: getattr(report, name) for name in _AUDIT_COUNTS},
        }
        for text, confidence, report in outcomes
    ]
    if kind == "update":
        (entry,) = records
    else:
        entry = {
            "transactions": len(records),
            **{name: sum(r[name] for r in records) for name in _AUDIT_COUNTS},
            "reports": records,
        }
    if replayed:
        entry["replayed"] = True
    return entry


def _replay_record(
    document: FuzzyTree, record: dict, match_config: MatchConfig
) -> list[tuple]:
    """Re-apply one WAL record to *document*; returns the members'
    ``(text, confidence, report)`` outcomes (see :func:`_apply_members`).

    Replay must reproduce the original commit bit for bit; in
    particular the confidence events it mints must carry the names the
    original session recorded (downstream conditions reference them).
    A divergence means the snapshot/WAL pair does not describe the same
    history and raises :class:`WarehouseCorruptError` rather than
    silently building a different document.
    """
    sequence = record["sequence"]
    payload = record.get("payload") or {}
    kind = record["kind"]
    try:
        # Replay under the match semantics of the session that wrote the
        # record, not the recovering handle's (a different max_matches
        # or negation setting would silently rebuild a different
        # document).  Inside the guard: MatchConfig rejects a malformed
        # recorded value.
        if "max_matches" in payload or "honor_negation" in payload:
            match_config = dataclasses.replace(
                match_config,
                max_matches=payload.get("max_matches"),
                honor_negation=payload.get("honor_negation", True),
            )
        if kind == "update":
            texts = [payload["transaction"]]
            members = [transaction_from_string(texts[0])]
            expected = [payload.get("confidence_event")]
        elif kind == "batch":
            members = list(batch_from_string(payload["batch"]))
            texts = [transaction_to_string(t, indent=False) for t in members]
            expected = list(payload.get("confidence_events") or [None] * len(members))
            if len(expected) != len(members):
                raise WarehouseCorruptError(
                    f"WAL record {sequence} confidence_events/batch length mismatch"
                )
        else:
            raise WarehouseCorruptError(
                f"unreplayable WAL record kind {kind!r} at sequence {sequence}"
            )
        outcomes = _apply_members(document, members, texts, match_config)
    except WarehouseCorruptError:
        raise
    except (ReproError, KeyError, TypeError) as exc:
        raise WarehouseCorruptError(
            f"WAL replay failed at sequence {sequence}: {exc}"
        ) from exc
    for (_, _, report), expected_event in zip(outcomes, expected):
        if report.confidence_event != expected_event:
            raise WarehouseCorruptError(
                f"WAL replay diverged at sequence {sequence}: minted "
                f"confidence event {report.confidence_event!r}, the "
                f"original commit recorded {expected_event!r}"
            )
    return outcomes
