"""Multi-document collections: N warehouses served as one store.

The paper's warehouse holds *one* probabilistic document; a real
deployment holds many (one per entity being tracked — a person, a
product, a sensor).  A collection is a directory of independent
warehouses ("shards", one subdirectory per document key) served as one
store:

* **updates route by document key** — each lands on exactly one shard,
  serialized by that shard's write lock, so writers on different
  documents never contend;
* **queries fan out** — every shard evaluates the pattern on a pool
  worker, and the merged result streams in deterministic
  ``(shard, row)`` order (shards in sorted key order, rows in each
  shard's deterministic match order), with ``limit(n)`` pushed into
  every shard's streaming protocol *and* short-circuiting the fan-out:
  once n rows have been emitted, shards that have not started are
  cancelled.

One front over two hosts: :class:`BaseCollection` answers keys,
create, update, query, stats, health and close for both engines, and
an engine adds a hook only where its transport differs.  The thread
:class:`Collection` hosts its shards in this process on one
:class:`ShardMap`; the process engine
(:class:`~repro.serve.cluster.ProcessCollection`) hosts them in worker
processes, each on its own maps.  Both return the one
:class:`~repro.api.results.ResultSet` a session returns, which merges
their shards through the ``_shard_results`` hook.

On disk a collection is::

    my-collection/
        collection.json      # format marker
        alice/               # one warehouse per document key
            document.xml
            meta.json
            ...
        bob/
            ...

Document keys are directory names and restricted to
``[A-Za-z0-9._-]`` (no leading dot) — one rule, checked by the front on
every create and by :class:`ShardMap` on every path it touches, so the
same directory opens the same way on both engines.  Within one shard
every guarantee of :class:`~repro.api.session.Session` holds —
including snapshot-pinned concurrent readers; across shards the
documents are independent (separate event tables), which is why query
results carry their shard key as ``document`` and answers are never
aggregated across documents.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import threading
from contextlib import closing
from pathlib import Path
from time import perf_counter

from repro.api.options import QueryOptions
from repro.api.results import ResultSet, resolve_query
from repro.api.session import Session, connect
from repro.core.fuzzy_tree import FuzzyTree
from repro.core.update import UpdateReport
from repro.errors import WarehouseError
from repro.serve.pool import SessionPool, default_workers
from repro.tpwj.match import DEFAULT_CONFIG, MatchConfig
from repro.warehouse.warehouse import (
    USE_DEFAULT_OBSERVABILITY,
    _resolve_observability,
)

__all__ = ["BaseCollection", "Collection", "connect_collection"]

_MANIFEST = "collection.json"
_FORMAT = "repro-collection-v1"
_KEY_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9._-]*$")


def _check_key(key: str) -> str:
    if not isinstance(key, str) or not _KEY_RE.match(key):
        raise WarehouseError(
            f"invalid document key {key!r}: keys are directory names "
            "([A-Za-z0-9._-], no leading dot)"
        )
    return key


def connect_collection(
    path: str | Path,
    *,
    create: bool = False,
    workers: int | None = None,
    mode: str = "thread",
    shard_processes: int | None = None,
    force_processes: bool = False,
    replication_factor: int = 1,
    match_config: MatchConfig = DEFAULT_CONFIG,
    auto_simplify_factor: float | None = None,
    snapshot_every: int = 64,
    wal_bytes_limit: int = 4 * 1024 * 1024,
    compact_on_close: bool = True,
    observability=USE_DEFAULT_OBSERVABILITY,
) -> "Collection":
    """Open (or with ``create=True`` initialise) the collection at *path*.

    *mode* picks the serving engine:

    * ``"thread"`` (default) — every shard opens in this process,
      queries fan out on a shared :class:`~repro.serve.pool.SessionPool`;
    * ``"process"`` — shards live in worker *processes* behind a
      consistent-hash ring (:class:`~repro.serve.cluster.ProcessCollection`),
      so shard work runs outside this process's GIL and pays an IPC
      round trip per query; *shard_processes* sets the worker count
      (default: cores, clamped to [2, 8]).  On a single-core host the
      process engine only adds IPC cost, so the call degrades to thread
      mode unless *force_processes* is set;
    * ``"auto"`` — the engine the committed measurements favour, which
      is threads: at 2 CPUs process shards read 0.27–0.40× of the
      thread engine's throughput (E16, 4 × 300 to 8 × 1200 nodes), and
      no multi-core number yet shows processes winning.

    In process mode, *replication_factor* = R keeps a copy of every
    document on its R distinct ring successors: writes are
    acknowledged by the primary and written through to replicas, reads
    fail over to a replica when the primary is down (see
    :class:`~repro.serve.cluster.ProcessCollection`).  Thread mode has
    one failure domain — this process — so the factor is ignored there.

    In thread mode, every existing shard is opened eagerly — the
    collection owns each shard's single-writer lock from here to
    :meth:`Collection.close`.  The session keywords apply to every
    shard it opens or creates.  One *observability* panel (by default
    the process-global one) is shared by the pool and every shard, so
    fan-out spans, per-shard timings and queue-wait histograms land in
    one place.  In process mode the panel instruments the supervisor
    (``cluster.*`` families); worker-process internals are aggregated
    through :meth:`stats` and :meth:`health` instead.
    """
    if mode not in ("thread", "process", "auto"):
        raise WarehouseError(
            f"mode must be 'thread', 'process' or 'auto', got {mode!r}"
        )
    path = Path(path)
    manifest = path / _MANIFEST
    if create:
        if manifest.exists():
            raise WarehouseError(f"a collection already exists at {path}")
        path.mkdir(parents=True, exist_ok=True)
        manifest.write_text(
            json.dumps({"format": _FORMAT, "version": 1}, indent=2) + "\n",
            encoding="utf-8",
        )
    elif not Collection.is_collection(path):
        raise WarehouseError(f"no collection at {path} (missing {_MANIFEST})")

    if mode == "auto":
        mode = "thread"
    if mode == "process" and not force_processes and (os.cpu_count() or 1) < 2:
        # One core: worker processes would time-slice the same CPU and
        # pay IPC on top — the thread pool is strictly better.
        mode = "thread"
    session_options = {
        "auto_simplify_factor": auto_simplify_factor,
        "snapshot_every": snapshot_every,
        "wal_bytes_limit": wal_bytes_limit,
        "compact_on_close": compact_on_close,
    }
    if mode == "process":
        if match_config is not DEFAULT_CONFIG:
            raise WarehouseError(
                "process mode cannot ship a custom match_config across "
                "the process boundary; use thread mode"
            )
        from repro.serve.cluster import ProcessCollection

        return ProcessCollection(
            path,
            shard_processes=(
                shard_processes if shard_processes is not None else default_workers()
            ),
            session_options=session_options,
            observability=observability,
            replication_factor=replication_factor,
        )

    obs = _resolve_observability(observability)
    session_options.update(match_config=match_config, observability=obs)
    return Collection(path, SessionPool(workers, observability=obs), session_options)


def shard_record(info: dict | None, respawns: int = 0) -> dict:
    """One shard's health record, the shape every serving surface
    reports: ``{"alive", "wal_depth", "respawns"}`` read from its
    warehouse's ``health()`` info (None: its host did not answer)."""
    info = info or {}
    return {
        "alive": bool(info.get("alive")),
        "wal_depth": info.get("wal_depth"),
        "respawns": respawns,
    }


class ShardMap:
    """The key → :class:`~repro.api.session.Session` map of the shards
    stored under ``root/<key>``: the one place a shard is opened,
    created, released or closed, behind the one key rule every path
    goes through.  The thread :class:`Collection` holds one map; a
    cluster worker holds two (primaries at the collection root,
    replicas under ``.replicas/<worker>``).  Thread-safe.
    """

    def __init__(self, root: Path, session_options: dict) -> None:
        self.root = Path(root)
        self._options = session_options
        self._sessions: dict[str, Session] = {}
        self._lock = threading.Lock()

    @staticmethod
    def scan(root: Path) -> list[str]:
        """The shard keys stored under *root*, sorted: every directory
        holding a ``document.xml``.  A shard whose name breaks the key
        rule is refused, not skipped."""
        return [
            _check_key(entry.name)
            for entry in sorted(Path(root).iterdir())
            if entry.is_dir() and (entry / "document.xml").exists()
        ]

    def directory(self, key: str) -> Path:
        """Where *key*'s shard is stored (the key rule checked first)."""
        return self.root / _check_key(key)

    def open(self, key: str) -> Session:
        """The session on *key*'s stored shard, opened on first use."""
        with self._lock:
            session = self._sessions.get(key)
            if session is None:
                session = self._sessions[key] = connect(
                    self.directory(key), **self._options
                )
            return session

    def create(self, key: str, **document) -> Session:
        """A session on a new shard (*document*: ``root=`` and/or
        ``document=``, as for :func:`repro.connect`)."""
        with self._lock:
            if key in self._sessions:
                raise WarehouseError(f"document {key!r} already exists")
            session = self._sessions[key] = connect(
                self.directory(key), create=True, **document, **self._options
            )
            return session

    def get(self, key: str) -> Session | None:
        with self._lock:
            return self._sessions.get(key)

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._sessions)

    def remove(self, key: str) -> None:
        """Close *key*'s session, if open, and delete its directory."""
        with self._lock:
            session = self._sessions.pop(key, None)
        if session is not None:
            session.close()
        shutil.rmtree(self.directory(key), ignore_errors=True)

    def _items(self) -> list[tuple[str, Session]]:
        with self._lock:
            return sorted(self._sessions.items())

    def stats(self) -> dict[str, dict]:
        """Each shard's ``stats()``, in key order."""
        return {key: session.stats() for key, session in self._items()}

    def health(self) -> dict[str, dict]:
        """Each shard's warehouse ``health()`` info, in key order."""
        return {key: session.warehouse.health() for key, session in self._items()}

    def close(self) -> None:
        """Close every session; the map is empty afterwards."""
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions = {}
        for session in sessions:
            session.close()


class BaseCollection:
    """What both collection engines answer the same way (module docs).

    An engine supplies hooks only where its transport differs:
    ``_keys()``, ``_create(key, root, document)``, ``_write(key,
    transactions, batch, confidence, fault)`` (one routed commit),
    ``_shard_results`` (the hook :class:`~repro.api.results.ResultSet`
    merges over, on the pool),
    ``_stats()`` (per-document stats, engine accounting),
    ``_health(timeout)`` (key → :func:`shard_record`) and
    ``_shutdown()`` (release everything, the pool included; runs once).

    A closed collection holds no documents: ``keys()``, ``len`` and
    ``in`` read empty, and every other call but ``close`` raises
    :class:`~repro.errors.WarehouseError`.
    """

    def __init__(self, path: Path, pool: SessionPool) -> None:
        self._path = Path(path)
        self._pool = pool
        self._obs = pool.observability
        # Guards the closed flag (the process engine also routes under it).
        self._lock = threading.Lock()
        self._closed = False

    @property
    def path(self) -> Path:
        return self._path

    @property
    def observability(self):
        """The shared :class:`~repro.obs.Observability` panel (or None)."""
        return self._obs

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release every shard, pool and worker; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._shutdown()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise WarehouseError("collection is closed")

    # ------------------------------------------------------------------
    # Documents
    # ------------------------------------------------------------------

    def keys(self) -> list[str]:
        """The document keys, sorted (the shard order queries merge in)."""
        return [] if self._closed else sorted(self._keys())

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, key: str) -> bool:
        return not self._closed and key in self._keys()

    def _no_document(self, key: str) -> WarehouseError:
        return WarehouseError(f"no document {key!r} in collection {self._path}")

    def create_document(
        self,
        key: str,
        *,
        root: str | None = None,
        document: FuzzyTree | None = None,
    ):
        """Add a new document under *key* (a fresh shard warehouse).

        Exactly like :func:`repro.connect` with ``create=True``: pass
        *document* (a :class:`FuzzyTree`) or *root* (the label of an
        empty document root).  A bad key raises before anything is
        written.  Returns the new shard's
        :class:`~repro.api.session.Session` in thread mode, None in
        process mode (the shard lives in another process).
        """
        self._check_open()
        _check_key(key)
        # A duplicate is refused by the shard map that would host it.
        return self._create(key, root, document)

    # ------------------------------------------------------------------
    # Updates (routed)
    # ------------------------------------------------------------------

    def update(
        self, key: str, transaction, confidence: float | None = None, *, fault=None
    ) -> UpdateReport:
        """Apply one update to document *key*; durable once returned.

        *fault* is the process engine's test-only injection point,
        ignored unless it was opened with ``fault_injection=True``.
        """
        return self._write(key, [transaction], False, confidence, fault)[0]

    def update_many(
        self, key: str, transactions, confidence: float | None = None
    ) -> list[UpdateReport]:
        """Apply a batch to document *key* as one commit."""
        return self._write(key, transactions, True, confidence, None)

    # ------------------------------------------------------------------
    # Queries (fanned out)
    # ------------------------------------------------------------------

    def query(
        self,
        query=None,
        keys: list[str] | None = None,
        *,
        options: QueryOptions | None = None,
    ) -> ResultSet:
        """A lazy fan-out query over every shard (or just *keys*).

        Returns a :class:`~repro.api.results.ResultSet`, the class a
        session returns; nothing runs until it is consumed.  *options* carries the full execution envelope (and
        may substitute for *query* via its ``pattern`` field); its
        ``document`` field, when set, restricts the fan-out to that one
        shard.  The pattern is compiled once and shared across shards:
        patterns are immutable and every shard engine re-keys matches
        onto its own plan anyway.  Every item carries its shard key as
        ``document``.  A process collection streams
        :class:`~repro.serve.cluster.ClusterRow` objects, no ``answers()``.
        """
        self._check_open()
        pattern, options, keys = resolve_query(query, options, keys)
        known = self.keys()
        if keys is None:
            keys = known
        for key in keys:
            if key not in known:
                raise self._no_document(key)  # validate early, before the fan-out
        return ResultSet(self, pattern, options, keys)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Per-document statistics, their totals and the engine's
        accounting (``pool`` in thread mode, ``cluster`` in process mode)."""
        self._check_open()
        documents, accounting = self._stats()
        totals = {"nodes": 0, "declared_events": 0, "read_sessions": 0, "sequence": 0}
        for info in documents.values():
            for name in totals:
                totals[name] += info.get(name, 0)
        return {
            "documents": documents,
            "document_count": len(documents),
            "totals": totals,
            **accounting,
        }

    def health(self, timeout: float = 2.0) -> dict:
        """Per-shard liveness: ``{"shards": {key: shard_record}}``, one
        shape on both engines.  A worker process that is dead or silent
        for *timeout* seconds reports its keys ``alive: False`` — a
        recovering shard is visible, not invisible; in-thread shards
        have no supervisor, hence ``respawns`` is always 0 there.
        """
        self._check_open()
        return {"shards": self._health(timeout)}

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{len(self)} documents"
        return f"{type(self).__name__}({self._path}, {state})"


class Collection(BaseCollection):
    """N independent warehouses served from this process as one store
    (see module docs): one :class:`ShardMap` owns every shard's
    single-writer lock from open to :meth:`close`, and queries fan out
    on a :class:`~repro.serve.pool.SessionPool`."""

    def __init__(
        self, path: Path, pool: SessionPool, session_options: dict
    ) -> None:
        super().__init__(path, pool)
        self._shards = ShardMap(self._path, dict(session_options))
        try:
            for key in ShardMap.scan(self._path):
                self._shards.open(key)
        except BaseException:
            self.close()
            raise

    @staticmethod
    def is_collection(path: str | Path) -> bool:
        """True when *path* holds a collection manifest."""
        manifest = Path(path) / _MANIFEST
        try:
            payload = json.loads(manifest.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return False
        return isinstance(payload, dict) and payload.get("format") == _FORMAT

    def _shutdown(self) -> None:
        self._pool.shutdown()
        self._shards.close()

    def _keys(self) -> list[str]:
        return self._shards.keys()

    def document(self, key: str) -> Session:
        """The session serving document *key* (raises on unknown keys)."""
        self._check_open()
        session = self._shards.get(key)
        if session is None:
            raise self._no_document(key)
        return session

    def _create(self, key: str, root, document) -> Session:
        return self._shards.create(key, root=root, document=document)

    def _write(self, key, transactions, batch, confidence, fault):
        session = self.document(key)
        if batch:
            return session.update_many(transactions, confidence=confidence)
        return [session.update(*transactions, confidence)]

    def _shard_results(self, pattern, keys, options, what, seed, abort):
        """The fan-out hook: one pool task per shard (bounded
        concurrency), ``(key, items)`` yielded in *keys* order, each
        item's ``document`` set to its key.  A task runs its session's
        own hook — not ``session.query()``, whose merge would run a
        second time — and *abort* (or None) is passed into it, so a
        cancel stops every running shard at its next row.

        Closing the generator — limit hit, consumer abandoned the
        iterator, deadline cancel — cancels the tasks the executor has
        not picked up; a task that starts *after* that decision
        (``cancel()`` raced the worker's pickup and lost) sees the flag
        at entry and returns without touching its shard (no pin, no
        query, no rows).
        """
        sessions = [(key, self.document(key)) for key in keys]
        obs = self._obs
        tracing = obs is not None and obs.tracer.enabled
        metrics = obs is not None and obs.metrics.enabled
        abandoned = threading.Event()

        def run_shard(key: str, session: Session):
            # Worker-side timestamps: shard wall time excludes queue
            # wait (the pool's own histogram covers that) and the
            # merge-side blocking below.
            started = perf_counter()
            if abandoned.is_set():
                return [], 0.0
            with closing(
                session._shard_results(pattern, None, options, what, seed, abort)
            ) as shard:
                items = [item for _none, found in shard for item in found]
            for item in items:
                item.document = key
            return items, perf_counter() - started

        if metrics:
            obs.metrics.incr("serve.fanout_queries")
        span = (
            obs.tracer.start("fanout", pattern=pattern, shards=len(sessions))
            if tracing
            else None
        )
        t0 = perf_counter()
        futures = [
            (key, self._pool.submit(run_shard, key, session))
            for key, session in sessions
        ]
        items_seen = 0
        waited = 0.0
        try:
            for key, future in futures:
                t_wait = perf_counter()
                items, shard_seconds = future.result()
                waited += perf_counter() - t_wait
                if span is not None:
                    span.record(
                        "shard", shard_seconds, document=key, rows=len(items)
                    )
                if metrics:
                    obs.metrics.observe("serve.shard_seconds", shard_seconds)
                items_seen += len(items)
                yield key, items
        finally:
            abandoned.set()
            for _key, future in futures:
                future.cancel()
            total = perf_counter() - t0
            if span is not None:
                # Merge-side time the consumer spent outside shard
                # waits: yielding rows, bookkeeping, downstream work.
                span.record("merge", max(0.0, total - waited))
                span.attributes["rows"] = items_seen
                obs.tracer.finish(span)
            if metrics:
                obs.metrics.observe("serve.fanout_seconds", total)

    def _stats(self) -> tuple[dict, dict]:
        return self._shards.stats(), {"pool": self._pool.stats()}

    def _health(self, timeout: float) -> dict[str, dict]:
        return {key: shard_record(info) for key, info in self._shards.health().items()}
