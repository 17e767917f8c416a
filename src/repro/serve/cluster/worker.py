"""Worker process: owns one or more warehouse shards, speaks frames.

``worker_main`` is the spawn target.  It opens a
:class:`~repro.api.session.Session` per assigned document key on its
:class:`~repro.serve.collection.ShardMap` (WAL replay — and therefore
crash recovery — happens right there in ``Warehouse.open``), sends a
READY frame, then serves request frames until DRAIN or supervisor
EOF.  Every request is answered by exactly one OK or ERR frame
carrying the request's id; a
:class:`~repro.errors.ReproError` becomes a structured ERR payload
(family, message, retryable) and the worker keeps serving — only
channel damage or DRAIN ends the loop.

Besides its *primary* shards (canonical ``root/key`` directories, one
shard map), a worker can hold **replica** copies of shards whose
primary lives on another worker (a second map).  Replicas are stored
under ``root/.replicas/<worker-name>/<key>`` — ``.replicas`` holds no
``document.xml``, so no key scan sees it — and are populated
exclusively through SYNC_PUSH (a folded snapshot shipped from the
primary); requests address them with ``"replica": true`` in the
payload.  A replica that has not been synced yet answers with the
retryable :class:`~repro.errors.ShardUnavailableError` so the
supervisor's failover sweep moves on to the next candidate.

A QUERY payload is ``{"pattern", "keys", "options"}`` — *options* the
:meth:`~repro.api.options.QueryOptions.to_json` wire form — plus
``seed`` for estimates and ``replica`` on a failover attempt; the reply
maps each key to its encoded rows (or estimates).

Workers run with ``observability=None`` sessions: the supervisor's
``cluster.*`` metrics are the cluster's instrument panel, and a child
process's registry would be invisible to the parent anyway.

An UPDATE payload is always ``{"key", "transactions": [xupdate, ...],
"batch": bool, "confidence"}`` — a single update is a list of one with
``batch`` false, which only selects the commit's record kind — and the
reply is always ``{"reports": [...], "sequence"}``.

Fault injection (tests only): when the supervisor enabled
``allow_faults``, an UPDATE payload may carry ``fault:
"before_commit" | "after_commit"`` and the worker SIGKILLs itself at
that point — before applying, or after the commit is durable but
before the acknowledgement.  This is how the kill -9 recovery
guarantees are exercised without racing an external killer against a
commit window.
"""

from __future__ import annotations

import dataclasses
import os
import signal
from pathlib import Path

from repro.api.options import QueryOptions
from repro.api.session import Session
from repro.errors import ReproError, ShardUnavailableError, WarehouseError
from repro.serve.cluster.wire import PipeTransport, Verb, WireError
from repro.serve.collection import ShardMap
from repro.xmlio.parse import fuzzy_from_string
from repro.xmlio.serialize import plain_to_string

__all__ = ["REPLICA_DIR", "SYNC_FILES", "worker_main"]

#: Dot-prefixed so replica copies never match the collection key scan.
REPLICA_DIR = ".replicas"
#: The folded-snapshot handoff set: everything a fresh `Warehouse.open`
#: needs after `compact()` (the WAL is empty post-fold and missing
#: audit entries are reconstructed on open).
SYNC_FILES = ("document.xml", "document.bin", "meta.json")


def _kill_self() -> None:
    """Die exactly like an external ``kill -9``: no atexit, no flush."""
    os.kill(os.getpid(), signal.SIGKILL)


class _Worker:
    def __init__(self, root: Path, options: dict) -> None:
        self.name = str(options.pop("worker_name", "w"))
        self.allow_faults = bool(options.pop("allow_faults", False))
        # What is left is the caller's commit policy, handed to
        # connect() as shipped: its signature owns the defaults.
        session_options = {**options, "observability": None}
        self.shards = ShardMap(root, session_options)
        self.replicas = ShardMap(root / REPLICA_DIR / self.name, session_options)

    def open_shard(self, key: str) -> None:
        self.shards.open(key)

    def close_all(self) -> None:
        self.shards.close()
        self.replicas.close()

    def _session(self, key: str, replica: bool = False) -> Session:
        if replica:
            session = self.replicas.get(key)
            if session is None:
                # Retryable: the supervisor syncs replicas after spawn;
                # a reader that arrives first should fail over, not die.
                raise ShardUnavailableError(
                    f"worker {self.name} has no synced replica of {key!r}"
                )
            return session
        session = self.shards.get(key)
        if session is None:
            raise WarehouseError(f"worker does not own document {key!r}")
        return session

    # ------------------------------------------------------------------
    # Request handlers (each returns the OK payload)
    # ------------------------------------------------------------------

    def handle_query(self, payload: dict) -> dict:
        # The supervisor ships the QueryOptions wire form verbatim; the
        # worker reconstructs the identical object, so per-shard
        # execution follows exactly the local-query semantics (same
        # branch-and-bound, same estimator seed).
        pattern = payload["pattern"]
        options = QueryOptions.from_json(payload["options"], require_pattern=False)
        replica = bool(payload.get("replica"))
        if "seed" in payload:  # shipped for estimates only
            seed = int(payload["seed"])

            def encode(results) -> list[dict]:
                return [
                    {
                        "probability": estimate.probability,
                        "stderr": estimate.stderr,
                        "samples": estimate.samples,
                        "occurrences": estimate.occurrences,
                        "tree_xml": plain_to_string(estimate.tree, indent=False),
                    }
                    for estimate in results.estimate(seed=seed)
                ]
        else:

            def encode(results) -> list[dict]:
                return [
                    {
                        "probability": row.probability,
                        "tree_xml": plain_to_string(row.tree, indent=False),
                        "bindings": row.bindings(),
                    }
                    for row in results
                ]

        return {
            "rows": {
                key: encode(self._session(key, replica).query(pattern, options=options))
                for key in sorted(payload["keys"])
            }
        }

    def handle_update(self, payload: dict) -> dict:
        replica = bool(payload.get("replica"))
        session = self._session(payload["key"], replica)
        fault = payload.get("fault") if self.allow_faults and not replica else None
        if fault == "before_commit":
            _kill_self()
        if payload["batch"]:
            reports = session.update_many(payload["transactions"], payload["confidence"])
        else:  # a list of exactly one
            reports = [session.update(*payload["transactions"], payload["confidence"])]
        if fault == "after_commit":
            # The commit is durable (WAL fsynced) — dying here is the
            # "acknowledged on disk, never acknowledged to the client"
            # window recovery must close.
            _kill_self()
        return {
            "reports": [dataclasses.asdict(r) for r in reports],
            "sequence": session.warehouse.sequence,
        }

    def handle_create(self, payload: dict) -> dict:
        document_xml = payload.get("document_xml")
        self.shards.create(
            payload["key"],
            root=payload.get("root"),
            document=(
                fuzzy_from_string(document_xml) if document_xml is not None else None
            ),
        )
        return {"key": payload["key"]}

    def handle_stats(self, payload: dict) -> dict:
        return {"documents": self.shards.stats()}

    def handle_health(self, payload: dict) -> dict:
        return {"shards": self.shards.health()}

    def handle_sync_pull(self, payload: dict) -> dict:
        """Fold the primary shard's WAL and ship the snapshot files.

        The supervisor holds the key's write lock across the pull/push
        pair and this process is single-threaded, so nothing can commit
        between the compact and the file reads.
        """
        key = payload["key"]
        session = self._session(key)
        summary = session.compact()
        directory = self.shards.directory(key)
        files: dict[str, bytes] = {}
        for name in SYNC_FILES:
            path = directory / name
            if path.exists():
                files[name] = path.read_bytes()
        return {"key": key, "sequence": summary["sequence"], "files": files}

    def handle_sync_push(self, payload: dict) -> dict:
        """Replace this worker's replica of *key* with the pulled files."""
        key = payload["key"]
        files = payload.get("files") or {}
        for name in files:
            if name not in SYNC_FILES:
                raise WarehouseError(f"unexpected sync file {name!r}")
        self.replicas.remove(key)
        directory = self.replicas.directory(key)
        directory.mkdir(parents=True)
        for name, data in files.items():
            (directory / name).write_bytes(data)
        session = self.replicas.open(key)
        return {"key": key, "sequence": session.warehouse.sequence}


_HANDLERS = {
    Verb.QUERY: _Worker.handle_query,
    Verb.UPDATE: _Worker.handle_update,
    Verb.CREATE: _Worker.handle_create,
    Verb.STATS: _Worker.handle_stats,
    Verb.HEALTH: _Worker.handle_health,
    Verb.SYNC_PULL: _Worker.handle_sync_pull,
    Verb.SYNC_PUSH: _Worker.handle_sync_push,
}


def worker_main(conn, root: str, keys: list[str], options: dict) -> None:
    """Process entry point: open shards, announce READY, serve frames."""
    # The supervisor owns interactive shutdown; a Ctrl-C aimed at it
    # must not tear workers mid-commit — they exit on DRAIN or EOF.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    transport = PipeTransport(conn)
    worker = _Worker(Path(root), dict(options))
    try:
        for key in keys:
            worker.open_shard(key)
    except BaseException as exc:
        transport.send(
            Verb.ERR,
            0,
            {"family": type(exc).__name__, "message": str(exc), "retryable": False},
        )
        return
    transport.send(Verb.READY, 0, {"pid": os.getpid(), "keys": worker.shards.keys()})
    try:
        while True:
            try:
                verb, request_id, payload = transport.recv()
            except (EOFError, OSError):
                return  # supervisor is gone; fall through to cleanup
            if verb is Verb.DRAIN:
                worker.close_all()
                transport.send(Verb.OK, request_id, {"drained": True})
                return
            handler = _HANDLERS.get(verb)
            try:
                if handler is None:
                    raise WireError(f"unexpected request verb {verb!r}")
                result = handler(worker, payload)
            except ReproError as exc:
                transport.send(
                    Verb.ERR,
                    request_id,
                    {
                        "family": type(exc).__name__,
                        "message": str(exc),
                        "retryable": bool(getattr(exc, "retryable", False)),
                    },
                )
            else:
                transport.send(Verb.OK, request_id, result)
    finally:
        worker.close_all()
