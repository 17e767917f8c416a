"""The HTTP front door's application layer: JSON in, JSON out.

This module is everything about ``repro serve`` that is *not* sockets:
request payload validation, query/update/stats execution against a
:class:`~repro.api.session.Session` or either collection engine
(:class:`~repro.serve.collection.BaseCollection`), deterministic JSON
encoding of rows and reports, and the mapping from the library's error
hierarchy to HTTP statuses.

Two contracts matter to callers:

* **Determinism** — :func:`query_response_body` is byte-deterministic
  (sorted keys, compact separators, ``repr``-exact floats), so an HTTP
  ``/query`` response with ``limit=n`` is byte-identical to encoding
  the first *n* rows of the equivalent in-process
  :class:`~repro.api.results.ResultSet` — property-tested in
  ``tests/test_http.py``.
* **Error parity** — :func:`error_body` carries the same family
  classification as the CLI: the payload embeds
  :func:`repro.cli.exit_code_for`'s exit code next to the HTTP status,
  so scripts driving the wire and scripts driving the CLI branch on
  one vocabulary.

Query execution is deadline-aware: :meth:`Application.query` runs on a
pool worker with an *abort* callable threaded into the row stream
(:meth:`~repro.api.results.ResultSet.stream` — one result-set class and
one row path for every target), so a deadline flipped by the event loop
cancels the underlying streamed iteration at the next row boundary —
on a thread collection inside every shard — and the iteration pins
drain before the 504 goes out.  A process collection's shards run
their enumeration in worker processes the hook cannot reach; there it
is polled between merged rows.
"""

from __future__ import annotations

import json
from contextlib import closing
from dataclasses import asdict
from time import monotonic

from repro.api.options import QueryOptions, QueryOptionsError
from repro.errors import (
    PatternSyntaxError,
    QueryCancelledError,
    ReproError,
    SessionClosedError,
    ShardUnavailableError,
    WarehouseCorruptError,
    WarehouseError,
    WarehouseLockedError,
)
from repro.serve.collection import BaseCollection, shard_record
from repro.updates.transaction import TransactionBatch
from repro.xmlio.xupdate import updates_from_string

__all__ = [
    "Application",
    "canonical_json",
    "encode_estimate_row",
    "encode_row",
    "error_body",
    "estimate_response_body",
    "query_response_body",
    "retry_after_headers",
    "status_for",
]


def canonical_json(payload) -> bytes:
    """Deterministic JSON bytes: sorted keys, compact, repr-exact floats."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def encode_row(row) -> dict:
    """One streamed row as a JSON-ready record.

    Works for every row — a fan-out row's ``document`` is the key of
    the shard it matched in, and is left out when ``None``.  Reading
    ``probability`` here forces the lazy computation on the worker
    thread — never on the event loop.
    """
    record = {
        "probability": row.probability,
        "tree": row.canonical,
        "bindings": row.bindings(),
    }
    if row.document is not None:
        record["document"] = row.document
    return record


def query_response_body(rows: list[dict]) -> bytes:
    """The exact ``POST /query`` response body for encoded *rows*."""
    return canonical_json({"count": len(rows), "rows": rows})


def encode_estimate_row(estimate) -> dict:
    """One anytime Monte-Carlo answer as a JSON-ready record.

    Same determinism contract as :func:`encode_row`: a fixed seed
    yields identical samples in-process and behind the wire, so the
    encoded estimate is byte-identical across layers; the shard's
    ``document`` is left out when ``None``.
    """
    record = {
        "probability": estimate.probability,
        "stderr": estimate.stderr,
        "samples": estimate.samples,
        "occurrences": estimate.occurrences,
        "tree": estimate.tree.canonical(),
    }
    if estimate.document is not None:
        record["document"] = estimate.document
    return record


def estimate_response_body(rows: list[dict]) -> bytes:
    """The ``POST /query`` response body for the anytime estimate path.

    ``"estimate": true`` marks the rows as confidence-interval
    estimates (probability ± stderr), not exact probabilities.
    """
    return canonical_json({"count": len(rows), "estimate": True, "rows": rows})


def status_for(exc: BaseException) -> int:
    """The HTTP status for a library error (500 for anything unknown)."""
    if isinstance(exc, QueryCancelledError):
        return 504  # deadline expired mid-stream
    if isinstance(exc, SessionClosedError):
        return 503  # shutting down / handle gone
    if isinstance(exc, ShardUnavailableError):
        return 503  # worker died mid-request; retryable after respawn
    if isinstance(exc, WarehouseLockedError):
        return 423
    if isinstance(exc, WarehouseCorruptError):
        return 500
    if isinstance(exc, PatternSyntaxError):
        return 400
    if isinstance(exc, WarehouseError):
        return 500
    if isinstance(exc, ReproError):
        return 400  # invalid query/update/tree/event input
    return 500


def retry_after_headers(exc: BaseException, status: int) -> tuple:
    """Extra response headers telling a client when to come back.

    A 503 from a retry-exhausted :class:`ShardUnavailableError` gets
    ``Retry-After`` exactly like the 429 shed path: the shard is being
    respawned and will answer again in about a second — clients should
    back off, not hammer the recovering worker.
    """
    if status == 503 and isinstance(exc, ShardUnavailableError):
        return (("Retry-After", "1"),)
    return ()


def error_body(exc: BaseException, status: int | None = None) -> tuple[int, dict]:
    """(status, structured JSON error) for an exception.

    The payload reuses the CLI's family mapping: ``exit_code`` is what
    ``repro <command>`` would have exited with for the same error, so
    wire clients and shell scripts classify failures identically.
    """
    # Imported here: repro.cli imports repro.serve at module load; the
    # late import keeps the package graph acyclic.
    from repro.cli import exit_code_for

    if status is None:
        status = status_for(exc)
    payload = {
        "error": {
            "family": type(exc).__name__,
            "message": str(exc) or type(exc).__name__,
            "exit_code": exit_code_for(exc) if isinstance(exc, ReproError) else None,
            "status": status,
        }
    }
    if isinstance(exc, QueryOptionsError):
        # Every invalid field at once — a client fixing its request
        # sees the full list in one round trip.
        payload["error"]["fields"] = exc.errors
    return status, payload


class BadRequest(ReproError):
    """A malformed HTTP payload (missing field, wrong type, bad route use)."""


def _field(payload: dict, name: str, types, *, required: bool = False):
    value = payload.get(name)
    if value is None:
        if required:
            raise BadRequest(f"missing required field {name!r}")
        return None
    if isinstance(value, bool) or not isinstance(value, types):
        raise BadRequest(f"field {name!r} has the wrong type: {value!r}")
    return value


class Application:
    """Request execution over one served Session or Collection.

    All three execution methods (:meth:`query`, :meth:`update`,
    :meth:`stats`) are **worker-side**: the HTTP layer dispatches them
    to its :class:`~repro.serve.pool.SessionPool` so a document walk or
    an fsync never blocks the event loop.
    """

    def __init__(self, target, *, own_target: bool = False) -> None:
        self._target = target
        self._is_collection = isinstance(target, BaseCollection)
        self._own_target = own_target

    @property
    def target(self):
        return self._target

    @property
    def is_collection(self) -> bool:
        return self._is_collection

    @property
    def observability(self):
        return self._target.observability

    def close(self) -> None:
        """Close the served session/collection iff this app opened it."""
        if self._own_target:
            self._target.close()

    # ------------------------------------------------------------------
    # Worker-side request execution
    # ------------------------------------------------------------------

    def query(self, payload: dict, deadline: float | None, cancel) -> bytes:
        """Execute ``POST /query``; returns the exact response body.

        *deadline* is a :func:`time.monotonic` timestamp (or None);
        *cancel* is a :class:`threading.Event` the event loop sets when
        its own backstop timeout fires or the client vanishes.  Both
        feed one abort hook polled at every row boundary — on abort the
        stream closes (pins released) and
        :class:`~repro.errors.QueryCancelledError` propagates.

        The body validates through :meth:`QueryOptions.from_json`: one
        structured 400 lists **every** invalid field (``timeout_ms`` is
        transport-level and consumed by the route, so it is ignored
        here).
        """
        options = QueryOptions.from_json(payload, ignore=("timeout_ms",))

        if deadline is None and cancel is None:
            abort = None
        elif cancel is None:
            abort = lambda: monotonic() >= deadline  # noqa: E731
        elif deadline is None:
            abort = cancel.is_set
        else:
            abort = lambda: cancel.is_set() or monotonic() >= deadline  # noqa: E731
        if abort is not None and abort():
            # Queue wait already consumed the deadline: cancel before
            # touching the warehouse at all.
            raise QueryCancelledError("deadline expired before execution began")

        if self._is_collection:
            document = options.document
            if document is not None and document not in self._target:
                raise BadRequest(f"no document {document!r} in the collection")
        # A served session refuses ``document`` itself (QueryError: 400).
        results = self._target.query(options=options)
        if options.is_estimate:
            return estimate_response_body(
                [encode_estimate_row(e) for e in results.estimate()]
            )
        # closing(): an abort or an encode error still closes the stream,
        # which releases its pin or the fan-out's shard tasks.
        with closing(results.stream(abort=abort)) as stream:
            rows = [encode_row(row) for row in stream]
        return query_response_body(rows)

    def update(self, payload: dict) -> bytes:
        """Execute ``POST /update``: one transaction or an xu:batch."""
        text = _field(payload, "xupdate", str, required=True)
        confidence = _field(payload, "confidence", (int, float))
        document = _field(payload, "document", str)
        if self._is_collection:
            if document is None:
                raise BadRequest(
                    "collections route updates by key: pass 'document'"
                )
            if document not in self._target:
                raise BadRequest(f"no document {document!r} in the collection")
            # Both collection engines route by key; a served session
            # takes the same calls un-keyed.
            route = (document,)
        else:
            if document is not None:
                raise BadRequest("field 'document' only applies to collections")
            route = ()
        parsed = updates_from_string(text)
        if isinstance(parsed, TransactionBatch):
            reports = self._target.update_many(*route, list(parsed), confidence)
            return canonical_json(
                {"batch": True, "reports": [asdict(r) for r in reports]}
            )
        report = self._target.update(*route, parsed, confidence)
        return canonical_json({"batch": False, "report": asdict(report)})

    def stats(self) -> bytes:
        """Execute ``GET /stats`` (per-document + pool for collections)."""
        return canonical_json(self._target.stats())

    def health(self) -> dict:
        """The ``GET /healthz`` payload: status plus per-shard liveness.

        Collections (thread and process engines alike) report
        ``{"shards": {key: {"alive", "wal_depth", "respawns"}}}``; the
        overall status degrades to ``"degraded"`` when any shard is
        down (a process worker mid-respawn).  A single served session
        reports its one warehouse under its directory name.
        """
        if self._is_collection:
            payload = self._target.health()
        else:
            payload = {"shards": {"document": shard_record(self._target.warehouse.health())}}
        degraded = any(
            not shard["alive"] for shard in payload["shards"].values()
        )
        payload["status"] = "degraded" if degraded else "ok"
        return payload
