"""Supervisor: stateless router over stateful worker processes.

:class:`ProcessCollection` is the process-per-shard host behind the
one collection front (:class:`~repro.serve.collection.BaseCollection`,
which owns keys, create, update, query, stats, health and close): the
same directory layout and key rule, but every shard lives in a worker
*process* (:mod:`repro.serve.cluster.worker`), outside the caller's
GIL and isolated from its faults.  The supervisor supplies the front's
hooks over the pipes and holds no document state at all:

* a :class:`~repro.serve.cluster.ring.HashRing` routes document keys
  to workers.  The worker set is fixed when the collection opens: the
  ring and the worker map never change afterwards, so a different
  ``shard_processes`` means reopening the directory (primaries live at
  ``<collection>/<key>``; replicas are re-synced at open);
* a monitor thread watches worker liveness; a dead worker is respawned
  with the same key set and recovers from its own WAL inside
  ``Warehouse.open`` before answering READY.  An in-flight request on
  the dying pipe fails fast with the retryable
  :class:`~repro.errors.ShardUnavailableError` — acknowledged commits
  are already durable in that shard's WAL, so the retry contract is
  safe;
* requests are length-prefixed frames (:mod:`.wire`) over a
  per-worker ``multiprocessing.Pipe``, serialized per worker by a
  handle lock and matched to responses by request id; a fan-out sends
  one QUERY per worker, each a task on the collection's
  :class:`~repro.serve.pool.SessionPool`.

**Replication** (``replication_factor=R``, default 1): each key is
placed on its R distinct ring successors — element 0 is the primary,
the rest hold replica copies under ``root/.replicas/<worker>/<key>``.
Writes go to the primary first (the acknowledgement; a failed primary
write fails the update, retryably) and are then written through to
every live replica; a replica whose post-apply commit sequence
diverges from the primary's — or that was unreachable, freshly
respawned, or not yet populated at open — is marked *stale* and
healed by the monitor thread from the primary's folded snapshot
(SYNC_PULL on the primary, SYNC_PUSH on the replica).  Reads fan out to
primaries as before, but on :class:`~repro.errors.ShardUnavailableError`
or :class:`~repro.serve.cluster.wire.WireError` they *fail over*
per key — fresh replicas first, stale ones as a last resort — and
retry with decorrelated-jitter backoff (:mod:`.retry`) inside the
query's deadline budget, so a ``kill -9`` mid-query costs latency,
not an error.

Workers are started with the ``spawn`` method: the supervisor runs
inside threaded serving processes, and forking a multithreaded parent
inherits locks in undefined states.
"""

from __future__ import annotations

import itertools
import multiprocessing
import random
import threading
from concurrent.futures import wait
from contextlib import nullcontext
from pathlib import Path
from time import monotonic, perf_counter, sleep

import repro.errors as errors_module
from repro.core.update import UpdateReport
from repro.errors import QueryError, ShardUnavailableError, WarehouseError
from repro.serve.cluster.retry import call_with_retry
from repro.serve.cluster.ring import HashRing
from repro.serve.cluster.wire import PipeTransport, Verb, WireError
from repro.serve.cluster.worker import worker_main
from repro.serve.collection import BaseCollection, ShardMap, shard_record
from repro.serve.pool import SessionPool, check_count
from repro.warehouse.warehouse import (
    USE_DEFAULT_OBSERVABILITY,
    _resolve_observability,
)
from repro.xmlio.parse import plain_from_string
from repro.xmlio.serialize import fuzzy_to_string

__all__ = ["ClusterEstimate", "ClusterRow", "ProcessCollection"]

#: Seconds a freshly spawned worker gets to import, recover its shards
#: and answer READY (spawn pays interpreter start + module imports).
_SPAWN_TIMEOUT = 120.0
#: Seconds a DRAIN/close is given before escalating to terminate/kill.
_DRAIN_TIMEOUT = 10.0
#: Liveness poll interval of the monitor thread.
_MONITOR_INTERVAL = 0.05


def _reconstruct_error(payload: dict) -> Exception:
    """An ERR payload back into the closest exception class."""
    family = payload.get("family")
    message = payload.get("message", "worker error")
    cls = getattr(errors_module, str(family), None)
    if isinstance(cls, type) and issubclass(cls, errors_module.ReproError):
        try:
            return cls(message)
        except TypeError:
            pass  # subclasses with richer signatures fall through
    return WarehouseError(f"{family}: {message}")


class _WireItem:
    """A row or estimate decoded from a worker's reply: the shard's
    ``document`` key plus the payload's fields; the answer tree crossed
    the pipe as compact XML and is parsed lazily on first access."""

    __slots__ = ("document", "probability", "_tree_xml", "_tree")

    def __init__(self, document: str, payload: dict) -> None:
        self.document = document
        self.probability = payload["probability"]
        self._tree_xml = payload["tree_xml"]
        self._tree = None

    @property
    def tree(self):
        if self._tree is None:
            self._tree = plain_from_string(self._tree_xml)
        return self._tree

    canonical = property(lambda self: self.tree.canonical())


class ClusterRow(_WireItem):
    """One merged query row from a worker process — the reading surface
    of a thread collection's rows (``document``, ``probability``,
    ``tree``, ``bindings()``); ``explain()`` raises :class:`QueryError`."""

    __slots__ = ("_bindings",)

    def __init__(self, document: str, payload: dict) -> None:
        super().__init__(document, payload)
        self._bindings = payload["bindings"]

    def bindings(self) -> dict[str, str | None]:
        return dict(self._bindings)

    def explain(self):
        raise QueryError(
            "explain() is not served by a process collection (provenance "
            "does not cross the process boundary); open the collection in "
            "thread mode"
        )

    def __repr__(self) -> str:
        return f"ClusterRow({self.document!r}, p={self.probability:.4f})"


class ClusterEstimate(_WireItem):
    """One anytime Monte-Carlo answer from a worker process — the
    reading surface of :class:`~repro.core.montecarlo.AnswerEstimate`
    plus the shard's ``document`` key."""

    __slots__ = ("stderr", "samples", "occurrences")

    def __init__(self, document: str, payload: dict) -> None:
        super().__init__(document, payload)
        self.stderr = payload["stderr"]
        self.samples = payload["samples"]
        self.occurrences = payload["occurrences"]

    def __repr__(self) -> str:
        return (
            f"ClusterEstimate({self.document!r}, p={self.probability:.4f}"
            f"±{self.stderr:.4f})"
        )


class _WorkerHandle:
    """One worker process plus its request channel and accounting."""

    __slots__ = (
        "name",
        "process",
        "transport",
        "lock",
        "keys",
        "replica_keys",
        "respawns",
        "alive",
        "draining",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.process = None
        self.transport: PipeTransport | None = None
        # Serializes request/response pairs on the pipe; also what a
        # respawn holds while swapping in the new process.
        self.lock = threading.Lock()
        self.keys: set[str] = set()
        self.replica_keys: set[str] = set()
        self.respawns = 0
        self.alive = False
        self.draining = False


class ProcessCollection(BaseCollection):
    """N worker processes serving a collection directory as one store.

    Open through :func:`repro.serve.connect_collection` with
    ``mode="process"`` — the constructor expects an *existing*
    collection layout (the manifest and any shard directories).

    ``session_options`` must be plain data (ints/bools/None): they
    cross the spawn boundary.  ``fault_injection=True`` lets tests ask
    workers to SIGKILL themselves around a commit — never enable it in
    real serving.

    ``replication_factor=R`` keeps a copy of every document on its R
    distinct ring successors (capped at the worker count); reads fail
    over between copies inside ``query_deadline`` seconds with the
    default :class:`~repro.serve.cluster.retry.RetryPolicy` backoff,
    and ``attempt_timeout`` bounds each individual attempt so one hung
    worker cannot eat the whole budget.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        shard_processes: int,
        session_options: dict | None = None,
        observability=USE_DEFAULT_OBSERVABILITY,
        fault_injection: bool = False,
        replication_factor: int = 1,
        query_deadline: float = 30.0,
        attempt_timeout: float | None = None,
    ) -> None:
        check_count("shard_processes", shard_processes)
        check_count("replication_factor", replication_factor)
        if query_deadline <= 0:
            raise WarehouseError(
                f"query_deadline must be > 0, got {query_deadline!r}"
            )
        keys = ShardMap.scan(Path(path))
        # One QUERY task per worker a fan-out touches.
        super().__init__(
            path,
            SessionPool(shard_processes, observability=_resolve_observability(observability)),
        )
        self._options = dict(session_options or {})
        if fault_injection:
            self._options["allow_faults"] = True
        self._ctx = multiprocessing.get_context("spawn")
        self._request_ids = itertools.count(1)
        # The ring and the handle map are fixed once __init__ returns;
        # the front's lock guards only the per-worker key sets, which
        # creates grow.
        names = [f"w{i}" for i in range(shard_processes)]
        self._ring = HashRing(names)
        self._handles: dict[str, _WorkerHandle] = {}
        self._stopping = threading.Event()
        self._monitor: threading.Thread | None = None
        # Replication state: per-key write locks serialize primary-ack +
        # write-through + resync for one key; the stale set is the heal
        # queue the monitor thread drains.
        self._replication = replication_factor
        self._query_deadline = float(query_deadline)
        self._attempt_timeout = attempt_timeout
        self._retry_rng = random.Random()
        self._key_locks: dict[str, threading.Lock] = {}
        self._key_locks_guard = threading.Lock()
        self._stale_lock = threading.Lock()
        self._stale: set[tuple[str, str]] = set()
        self._commit_seq: dict[str, int] = {}
        self._replica_seq: dict[tuple[str, str], int] = {}

        placement = self._ring.placement(keys, replication_factor)
        try:
            for name in names:
                handle = _WorkerHandle(name)
                handle.keys = {k for k, owners in placement.items() if owners[0] == name}
                handle.replica_keys = {
                    k for k, owners in placement.items() if name in owners[1:]
                }
                self._spawn(handle)
                self._handles[name] = handle
        except BaseException:
            self.close()
            raise
        self._set_worker_gauge()
        # Populate every replica before serving: the first failover must
        # find copies, not empty directories.
        self._mark_stale(
            (key, name) for key, owners in placement.items() for name in owners[1:]
        )
        self._resync_stale()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-cluster-monitor", daemon=True
        )
        self._monitor.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _spawn(self, handle: _WorkerHandle) -> None:
        """Start (or restart) *handle*'s process; blocks until READY.
        A respawn holds the handle lock."""
        parent_conn, child_conn = self._ctx.Pipe()
        options = dict(self._options, worker_name=handle.name)
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, str(self._path), sorted(handle.keys), options),
            name=f"repro-shard-{handle.name}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        transport = PipeTransport(parent_conn)
        try:
            verb, _rid, payload = transport.recv(timeout=_SPAWN_TIMEOUT)
        except (EOFError, OSError, TimeoutError) as exc:
            transport.close()
            process.terminate()
            process.join(1.0)
            raise WarehouseError(
                f"worker {handle.name} died before READY"
            ) from exc
        if verb is not Verb.READY:
            transport.close()
            process.join(1.0)
            raise _reconstruct_error(
                payload if isinstance(payload, dict) else {}
            )
        handle.process = process
        handle.transport = transport
        handle.alive = True

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(_MONITOR_INTERVAL):
            for handle in self._handles.values():
                process = handle.process
                if (
                    process is None
                    or handle.draining
                    or process.is_alive()
                ):
                    continue
                try:
                    self._respawn(handle)
                except Exception:
                    # Spawn failed (resources, lock contention): leave
                    # the handle dead; the next tick tries again and
                    # requests keep failing retryably meanwhile.
                    continue
            if self._replication > 1 and not self._closed:
                try:
                    self._resync_stale()
                except Exception:
                    continue  # heal again next tick

    def _respawn(self, handle: _WorkerHandle) -> None:
        with handle.lock:
            if self._closed or handle.draining:
                return
            process = handle.process
            if process is None or process.is_alive():
                return  # lost a race with another respawn
            handle.alive = False
            if handle.transport is not None:
                handle.transport.close()
            process.join(0.1)
            self._spawn(handle)
            handle.respawns += 1
        # A respawned worker recovered its *primary* shards from their
        # WALs, but its replica copies may have missed write-throughs
        # while it was down — re-sync them all from their primaries.
        self._mark_stale((key, handle.name) for key in handle.replica_keys)
        obs = self._obs
        if obs is not None:
            obs.metrics.incr("cluster.respawns")

    def _shutdown(self) -> None:
        """Stop the monitor and the fan-out pool, drain every worker."""
        self._stopping.set()
        monitor = self._monitor
        if monitor is not None:
            monitor.join(2.0)
        for handle in self._handles.values():
            self._drain(handle)
        self._pool.shutdown()
        self._set_worker_gauge()

    def _drain(self, handle: _WorkerHandle) -> None:
        """DRAIN *handle*'s worker and join it — escalating to terminate,
        then kill — and close its pipe."""
        handle.draining = True
        try:
            self._request(handle, Verb.DRAIN, {}, timeout=_DRAIN_TIMEOUT)
        except (ShardUnavailableError, WireError):
            pass
        process = handle.process
        if process is not None:
            process.join(_DRAIN_TIMEOUT)
            if process.is_alive():
                process.terminate()
                process.join(2.0)
            if process.is_alive():
                process.kill()
                process.join(2.0)
        if handle.transport is not None:
            handle.transport.close()
        handle.alive = False

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------

    def _request(
        self,
        handle: _WorkerHandle,
        verb: Verb,
        payload: dict,
        timeout: float | None = None,
    ) -> dict:
        """One request/response round trip on *handle*'s pipe.

        Raises :class:`ShardUnavailableError` (retryable) when the
        worker dies mid-request; the monitor respawns it and WAL replay
        restores every acknowledged commit.
        """
        obs = self._obs
        request_id = next(self._request_ids)
        t0 = perf_counter()
        with handle.lock:
            if not handle.alive or handle.transport is None:
                raise ShardUnavailableError(
                    f"worker {handle.name} is down (respawn in progress); retry"
                )
            transport = handle.transport
            try:
                transport.send(verb, request_id, payload)
                while True:
                    reply_verb, reply_id, reply = transport.recv(timeout)
                    if reply_id == request_id:
                        break
                    # A response to an earlier request that timed out:
                    # drop it, keep waiting for ours.
            except (EOFError, OSError) as exc:
                handle.alive = False
                if obs is not None:
                    obs.metrics.incr("cluster.worker_failures")
                raise ShardUnavailableError(
                    f"worker {handle.name} died mid-request; acknowledged "
                    "commits are durable — retry after respawn"
                ) from exc
            except TimeoutError:
                if obs is not None:
                    obs.metrics.incr("cluster.worker_failures")
                raise ShardUnavailableError(
                    f"worker {handle.name} did not answer within {timeout}s"
                ) from None
        if obs is not None:
            obs.metrics.incr("cluster.requests")
            obs.metrics.observe(
                "cluster.ipc_roundtrip_seconds", perf_counter() - t0
            )
        if reply_verb is Verb.ERR and isinstance(reply, dict):
            raise _reconstruct_error(reply)
        if reply_verb is not Verb.OK:
            raise WireError(f"unexpected response verb {reply_verb!r}")
        return reply if isinstance(reply, dict) else {}

    def _placement_for(self, key: str) -> list[str]:
        """``[primary worker, *replica workers]`` for *key*."""
        with self._lock:
            self._check_open()
            if key not in self._all_keys_locked():
                raise self._no_document(key)
        return self._ring.successors(key, self._replication)

    def _keys(self) -> set[str]:
        with self._lock:
            return self._all_keys_locked()

    def _all_keys_locked(self) -> set[str]:
        keys: set[str] = set()
        for handle in self._handles.values():
            keys |= handle.keys
        return keys

    def _set_worker_gauge(self) -> None:
        obs = self._obs
        if obs is not None:
            obs.metrics.set_gauge(
                "cluster.workers",
                sum(1 for h in self._handles.values() if h.alive),
            )

    # ------------------------------------------------------------------
    # Replication plumbing
    # ------------------------------------------------------------------

    def _key_lock(self, key: str) -> threading.Lock:
        with self._key_locks_guard:
            lock = self._key_locks.get(key)
            if lock is None:
                lock = self._key_locks[key] = threading.Lock()
            return lock

    def _mark_stale(self, pairs) -> None:
        with self._stale_lock:
            self._stale.update(pairs)
        self._set_replication_gauges()

    def _clear_stale(self, pair: tuple[str, str]) -> None:
        with self._stale_lock:
            self._stale.discard(pair)
        self._set_replication_gauges()

    def _stale_pairs(self) -> set[tuple[str, str]]:
        with self._stale_lock:
            return set(self._stale)

    def _set_replication_gauges(self) -> None:
        obs = self._obs
        if obs is None or self._replication <= 1:
            return
        with self._stale_lock:
            stale = len(self._stale)
        lag = 0
        for (key, _name), seq in list(self._replica_seq.items()):
            head = self._commit_seq.get(key)
            if head is not None:
                lag = max(lag, head - seq)
        obs.metrics.set_gauge("cluster.stale_replicas", stale)
        obs.metrics.set_gauge("cluster.replica_lag", max(lag, 0))

    def _replicate(self, key: str, replicas: list[str], payload: dict, sequence) -> None:
        """Write *payload* through to each replica; divergence → stale."""
        replica_payload = {**payload, "replica": True}
        for name in replicas:
            handle = self._handles[name]
            fresh = False
            if handle.alive:
                try:
                    reply = self._request(
                        handle, Verb.UPDATE, replica_payload,
                        timeout=self._attempt_timeout,
                    )
                    # The replica must land on the same commit sequence
                    # as the primary; anything else is divergence.
                    fresh = reply["sequence"] == sequence
                except (ShardUnavailableError, WireError):
                    fresh = False
            if fresh:
                self._replica_seq[(key, name)] = sequence
                self._clear_stale((key, name))
            else:
                self._mark_stale([(key, name)])
        self._set_replication_gauges()

    def _write(
        self, key: str, transactions, batch: bool, confidence, fault=None
    ) -> list[UpdateReport]:
        """Primary-acknowledged write with replica write-through.

        The primary's acknowledgement is the durability point; live
        replicas are then written through before this returns (a
        replica that failed or diverged is healed asynchronously).  The
        one UPDATE frame: a single update is a list of one with
        ``batch`` false (which only picks the commit's record kind).
        """
        payload = {
            "key": key,
            "transactions": [_serialize_transaction(t) for t in transactions],
            "batch": batch,
            "confidence": confidence,
        }
        # The (test-only) fault rides on the primary's frame alone.
        primary_payload = payload if fault is None else {**payload, "fault": fault}
        with self._key_lock(key):
            placement = self._placement_for(key)
            handle = self._handles[placement[0]]
            try:
                reply = self._request(handle, Verb.UPDATE, primary_payload)
            except ShardUnavailableError:
                # The primary died inside the commit window: the commit
                # may be durable in its WAL without any replica having
                # seen it.  Resync them all once it is back.
                self._mark_stale((key, name) for name in placement[1:])
                raise
            sequence = self._commit_seq[key] = reply["sequence"]
            if len(placement) > 1:
                self._replicate(key, placement[1:], payload, sequence)
        return [UpdateReport(**report) for report in reply["reports"]]

    def _resync_pair(self, key: str, name: str) -> bool:
        """Heal worker *name*'s replica of *key* from the primary's
        folded snapshot; True when healed or no longer needed."""
        with self._key_lock(key):
            try:
                placement = self._placement_for(key)
            except WarehouseError:
                return True  # key or collection gone
            primary = self._handles[placement[0]]
            replica = self._handles[name]
            if not primary.alive or not replica.alive:
                return False  # respawn in progress; heal next tick
            try:
                pulled = self._request(primary, Verb.SYNC_PULL, {"key": key})
                pushed = self._request(
                    replica,
                    Verb.SYNC_PUSH,
                    {
                        "key": key,
                        "sequence": pulled["sequence"],
                        "files": pulled["files"],
                    },
                )
            except (ShardUnavailableError, WireError):
                return False
            if pushed.get("sequence") != pulled["sequence"]:
                return False
            self._replica_seq[(key, name)] = pulled["sequence"]
            self._commit_seq[key] = pulled["sequence"]
            obs = self._obs
            if obs is not None:
                obs.metrics.incr("cluster.resyncs")
                obs.metrics.incr(
                    "cluster.resync_bytes",
                    sum(len(blob) for blob in pulled["files"].values()),
                )
            return True

    def _resync_stale(self) -> None:
        for key, name in sorted(self._stale_pairs()):
            if self._closed:
                return
            if self._resync_pair(key, name):
                self._clear_stale((key, name))

    def await_replication(self, timeout: float = 30.0) -> None:
        """Block until no replica is stale (all copies healed).

        Raises :class:`~repro.errors.WarehouseError` when *timeout*
        elapses first — e.g. a primary that never came back.
        """
        self._check_open()
        deadline = monotonic() + timeout
        while True:
            pairs = self._stale_pairs()
            if not pairs:
                return
            if monotonic() >= deadline:
                raise WarehouseError(
                    f"replication did not settle within {timeout}s; "
                    f"stale: {sorted(pairs)}"
                )
            sleep(_MONITOR_INTERVAL)

    def replicas_of(self, key: str) -> list[str]:
        """``[primary, *replicas]`` worker names serving *key*."""
        return self._placement_for(key)

    @property
    def replication_factor(self) -> int:
        return self._replication

    def _create(self, key: str, root, document) -> None:
        """Create *key* on the worker the ring picks; with replication its
        copies are synced to its replica workers before this returns."""
        placement = self._ring.successors(key, self._replication)
        handle = self._handles[placement[0]]
        payload: dict = {"key": key, "root": root}
        if document is not None:
            payload["document_xml"] = fuzzy_to_string(document, indent=False)
        self._request(handle, Verb.CREATE, payload)
        with self._lock:
            handle.keys.add(key)
            for name in placement[1:]:
                self._handles[name].replica_keys.add(key)
        self._mark_stale((key, name) for name in placement[1:])
        self._resync_stale()

    # ------------------------------------------------------------------
    # Queries (fanned out)
    # ------------------------------------------------------------------

    def _shard_results(self, pattern, keys, options, what, seed, abort):
        """The fan-out hook :class:`~repro.api.results.ResultSet` merges
        over: one QUERY frame per worker owning some of *keys*, each a
        task on the collection's pool, ``(key, items)`` yielded in
        sorted key order.  A worker whose batch fails retryably
        degrades to per-key replica failover.
        *abort* does not cross the process boundary: a worker's
        enumeration runs to its end, and the merge polls the hook.

        The payload is always ``{"pattern", "keys", "options"}`` —
        *options* in its :meth:`QueryOptions.to_json` wire form, so
        workers run exactly the local-query semantics — plus ``seed``
        for estimates (and ``replica`` on a failover attempt).  Items
        are :class:`ClusterRow` or :class:`ClusterEstimate` objects.
        """
        if what == "answers":
            raise QueryError(
                "answers() is not served by a process collection (answer "
                "aggregates do not cross the process boundary); read rows, "
                "or open the collection in thread mode"
            )
        self._check_open()
        by_worker: dict[str, list[str]] = {}
        for key in set(keys) & self._keys():
            by_worker.setdefault(self._ring.route(key), []).append(key)
        if not by_worker:
            return
        obs = self._obs
        if obs is not None and obs.metrics.enabled:
            obs.metrics.incr("serve.fanout_queries")
        t0 = perf_counter()
        deadline = monotonic() + self._query_deadline
        # The routing field stays at this layer and the pattern travels
        # on its own: workers get the rest of the options.
        wire = options.replace(document=None, pattern=None).to_json()
        payload = {"pattern": str(pattern), "options": wire}
        if what == "estimates":
            payload["seed"] = seed

        def run_worker(name: str) -> dict:
            batch = sorted(by_worker[name])
            try:
                reply = self._request(
                    self._handles[name],
                    Verb.QUERY,
                    dict(payload, keys=batch),
                    timeout=self._attempt_timeout,
                )
                return reply.get("rows", {})
            except (ShardUnavailableError, WireError) as exc:
                if self._replication <= 1:
                    raise
                return {
                    key: self._query_key_failover(key, payload, deadline, exc)
                    for key in batch
                }

        futures = [self._pool.submit(run_worker, name) for name in sorted(by_worker)]
        wait(futures)  # every batch settles before the first error surfaces
        replies = [future.result() for future in futures]
        if obs is not None and obs.metrics.enabled:
            obs.metrics.observe("serve.fanout_seconds", perf_counter() - t0)
        wrap = ClusterEstimate if what == "estimates" else ClusterRow
        rows_by_key = {key: rows for reply in replies for key, rows in reply.items()}
        for key in sorted(rows_by_key):
            yield key, [wrap(key, row) for row in rows_by_key[key]]

    def _query_key_failover(
        self, key: str, payload: dict, deadline: float, first_error
    ) -> list[dict]:
        """One key's rows from whichever copy answers first.

        Candidate order: primary, fresh replicas, stale replicas (a
        stale copy is still a better answer than an error when nothing
        else is up).  A full sweep that finds no live copy backs off
        with decorrelated jitter and tries again — the monitor may be
        mid-respawn — until the deadline budget is spent, at which
        point the last real error propagates.
        """
        obs = self._obs
        last_error = first_error

        def sweep() -> list[dict]:
            nonlocal last_error
            placement = self._placement_for(key)
            stale = self._stale_pairs()
            fresh = [n for n in placement[1:] if (key, n) not in stale]
            lagging = [n for n in placement[1:] if (key, n) in stale]
            for position, name in enumerate([placement[0]] + fresh + lagging):
                handle = self._handles[name]
                if not handle.alive:
                    continue
                remaining = deadline - monotonic()
                if remaining <= 0:
                    break
                timeout = (
                    min(remaining, self._attempt_timeout)
                    if self._attempt_timeout is not None
                    else remaining
                )
                try:
                    reply = self._request(
                        handle,
                        Verb.QUERY,
                        dict(payload, keys=[key], replica=position > 0),
                        timeout=timeout,
                    )
                except (ShardUnavailableError, WireError) as exc:
                    last_error = exc
                    continue
                if position > 0 and obs is not None:
                    obs.metrics.incr("cluster.failovers")
                return reply.get("rows", {}).get(key, [])
            if last_error is not None:
                raise last_error
            raise ShardUnavailableError(f"no live copy of {key!r}")

        span = (
            obs.tracer.span("cluster_failover", document=key)
            if obs is not None and obs.tracer.enabled
            else nullcontext()
        )
        with span:
            return call_with_retry(
                sweep,
                deadline=deadline,
                classify=lambda exc: isinstance(
                    exc, (ShardUnavailableError, WireError)
                ),
                rng=self._retry_rng,
                on_retry=lambda attempt, delay, exc: (
                    obs.metrics.incr("cluster.retries") if obs is not None else None
                ),
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _poll(self, verb: Verb, timeout: float | None = None) -> list[tuple]:
        """``(handle, accounting, reply)`` per worker in the ring; the
        reply is None when the worker is down or does not answer."""
        polled = []
        for handle, info in self._worker_snapshot():
            reply = None
            if handle.alive:
                try:
                    reply = self._request(handle, verb, {}, timeout=timeout)
                except (ShardUnavailableError, WireError):
                    info["alive"] = False
            polled.append((handle, info, reply))
        return polled

    def _stats(self) -> tuple[dict, dict]:
        documents: dict[str, dict] = {}
        workers: dict[str, dict] = {}
        for handle, info, reply in self._poll(Verb.STATS):
            if reply is not None:
                documents.update(reply.get("documents", {}))
            workers[handle.name] = info
        with self._stale_lock:
            stale = len(self._stale)
        return documents, {
            "cluster": {
                "mode": "process",
                "workers": workers,
                "processes": len(workers),
                "replication": {
                    "factor": self._replication,
                    "stale_replicas": stale,
                },
            },
        }

    def _health(self, timeout: float) -> dict[str, dict]:
        shards: dict[str, dict] = {}
        for handle, info, reply in self._poll(Verb.HEALTH, timeout):
            if reply is not None:
                for key, shard in reply.get("shards", {}).items():
                    shards[key] = shard_record(shard, handle.respawns)
            else:
                for key in info["keys"]:
                    shards[key] = shard_record(None, handle.respawns)
        return shards

    def _worker_snapshot(self) -> list[tuple[_WorkerHandle, dict]]:
        """``(handle, accounting)`` per worker, name-ordered; the key sets
        are copied under the lock a concurrent create takes."""
        with self._lock:
            return [
                (
                    handle,
                    {
                        "alive": handle.alive,
                        "respawns": handle.respawns,
                        "keys": sorted(handle.keys),
                        "replica_keys": sorted(handle.replica_keys),
                    },
                )
                for _name, handle in sorted(self._handles.items())
            ]

    def workers(self) -> dict[str, dict]:
        """Live worker accounting: name → alive/respawns/keys."""
        return {handle.name: info for handle, info in self._worker_snapshot()}


def _serialize_transaction(transaction) -> str:
    """An update (builder, transaction object or XUpdate string) as the
    XUpdate text that crosses the pipe."""
    if isinstance(transaction, str):
        return transaction
    from repro.api.builders import compile_transaction
    from repro.xmlio.xupdate import transaction_to_string

    return transaction_to_string(compile_transaction(transaction), indent=False)
