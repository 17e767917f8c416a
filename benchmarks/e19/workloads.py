"""The four E19 workloads, each behind the same small driving surface.

A workload owns one store directory and one *entry point* — the
public handle a caller of that deployment shape would hold.  The
driver in ``measure.py`` only ever calls :meth:`create`, :meth:`open`,
:meth:`close`, :meth:`prepare`, :meth:`execute` and the read-back
helpers the correctness gate needs; every call below goes through
the library's public functions, never into ``src/`` internals.

Stores are opened with the library-default commit policy
(``snapshot_every=64``, fsync on) except ``compact_on_close=False``,
so a close leaves the WAL for the next open to replay — that reopen
is what ``recovery_ms`` times.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
from pathlib import Path

import repro
from repro.serve import connect_collection
from repro.serve.http import ServerThread, encode_row, query_response_body
from repro.xmlio import transaction_to_string

from inputs import LIMIT

_JSON = {"Content-Type": "application/json"}


def query_body(pattern: str, key: str, limit: int | None = LIMIT) -> bytes:
    """A ``POST /query`` request body."""
    body = {"pattern": pattern, "document": key}
    if limit is not None:
        body["limit"] = limit
    return json.dumps(body).encode("utf-8")


def update_body(op) -> bytes:
    """The ``POST /update`` request body of an update op."""
    body = {
        "xupdate": transaction_to_string(op.transaction, indent=False),
        "confidence": op.transaction.confidence,
        "document": op.key,
    }
    return json.dumps(body).encode("utf-8")


def encode_answers(answers) -> list[dict]:
    return [
        {"probability": a.probability, "tree": a.tree.canonical()} for a in answers
    ]


def session_state(session) -> tuple:
    """What must survive a close/reopen: document, events, sequence."""
    document = session.document
    return (
        document.root.canonical(),
        tuple(sorted(document.events.items())),
        session.sequence,
    )


class Workload:
    """What the four have in common: a store directory, no worker
    processes and no second entry point unless they say so."""

    #: Timed reopens per run: a single one ranges ±20 %.
    recovery_repeats = 15

    def __init__(self, path: Path) -> None:
        self.path = path

    def worker_pids(self) -> list[int]:
        return []

    def byte_parity(self, key, pattern) -> bool:
        return True  # one entry point: nothing to compare bytes with


def create_collection(path: Path, documents) -> None:
    """Write *documents* as a collection store and close it."""
    with connect_collection(path, create=True, compact_on_close=False) as collection:
        for key, document in documents.items():
            collection.create_document(key, document=document)


class EmbeddedMatch(Workload):
    """In-process ``Session``; twig queries with ``limit``, rows read."""

    name = "embedded_match"

    def __init__(self, path: Path) -> None:
        super().__init__(path)
        self.session = None

    def create(self, documents) -> None:
        repro.connect(
            self.path, create=True, document=documents["doc"], compact_on_close=False
        ).close()

    def open(self) -> None:
        self.session = repro.connect(self.path, compact_on_close=False)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def prepare(self, op) -> None:
        op.request = op.transaction if op.is_update else op.pattern

    def execute(self, op) -> bool:
        if op.is_update:
            return self.session.update(op.request).applied
        rows = self.session.query(op.request).limit(LIMIT).all()
        for row in rows:
            row.probability
        return bool(rows)

    def rows(self, key, pattern, limit, planner=True) -> list[dict]:
        results = self.session.query(pattern, planner=planner)
        if limit is not None:
            results = results.limit(limit)
        return [encode_row(row) for row in results]

    def compact(self) -> None:
        self.session.compact()

    def states(self) -> dict:
        return {"doc": session_state(self.session)}


class EmbeddedProbability(EmbeddedMatch):
    """In-process ``Session``; ranked ``answers()`` over a directory."""

    name = "embedded_probability"

    def execute(self, op) -> bool:
        if op.is_update:
            return self.session.update(op.request).applied
        return bool(self.session.query(op.request).answers())

    def rows(self, key, pattern, limit, planner=True) -> list[dict]:
        return encode_answers(self.session.query(pattern, planner=planner).answers())


class HttpPoint(Workload):
    """``ServerThread`` over a thread-mode ``Collection``, one keep-alive
    caller.  The server runs in this process, not as a ``repro serve``
    subprocess: against a subprocess the same p50 ranged 1.75–2.55 ms
    over minutes, and there is no second process to reap."""

    name = "http_point"

    def __init__(self, path: Path) -> None:
        super().__init__(path)
        self.collection = None
        self.server = None
        self.conn = None

    def create(self, documents) -> None:
        create_collection(self.path, documents)

    def open(self) -> None:
        self.collection = connect_collection(
            self.path, workers=2, compact_on_close=False
        )
        self.server = ServerThread(self.collection, workers=2).start()
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", self.server.port, timeout=60
        )

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        try:
            if self.server is not None:
                self.server.stop()
                self.server = None
        finally:
            if self.collection is not None:
                self.collection.close()
                self.collection = None

    def prepare(self, op) -> None:
        if op.is_update:
            op.request = ("/update", update_body(op))
        else:
            op.request = ("/query", query_body(op.pattern, op.key))

    def _post(self, route: str, body: bytes) -> tuple[int, bytes]:
        self.conn.request("POST", route, body, _JSON)
        response = self.conn.getresponse()
        return response.status, response.read()

    def execute(self, op) -> bool:
        status, body = self._post(*op.request)
        if status != 200:
            return False
        marker = b'"applied":true' if op.is_update else b'"count":'
        return marker in body

    def rows(self, key, pattern, limit, planner=True) -> list[dict]:
        if not planner:
            results = self.collection.document(key).query(pattern, planner=False)
            return [dict(encode_row(row), document=key) for row in results]
        return json.loads(self._query_body(key, pattern, limit))["rows"]

    def _query_body(self, key, pattern, limit) -> bytes:
        status, payload = self._post("/query", query_body(pattern, key, limit))
        return payload if status == 200 else b'{"rows": []}'

    def byte_parity(self, key, pattern) -> bool:
        """The HTTP body equals the encoding of the in-process rows of
        the same store, byte for byte."""
        results = self.collection.query(pattern, keys=[key]).limit(LIMIT)
        expected = query_response_body([encode_row(row) for row in results])
        return self._query_body(key, pattern, LIMIT) == expected

    def compact(self) -> None:
        for key in self.collection.keys():
            self.collection.document(key).compact()

    def states(self) -> dict:
        return {
            key: session_state(self.collection.document(key))
            for key in self.collection.keys()
        }


class ClusterMixed(Workload):
    """``ProcessCollection`` (2 workers, R=2) driven directly: half
    routed updates, half 8-shard fan-out queries."""

    name = "cluster_mixed"
    #: A reopen spawns two workers (~0.5 s) and already repeats within
    #: 3 %; fifteen would double the length of a run.
    recovery_repeats = 5

    def __init__(self, path: Path) -> None:
        super().__init__(path)
        self.collection = None

    def create(self, documents) -> None:
        create_collection(self.path, documents)

    def open(self) -> None:
        self.collection = connect_collection(
            self.path,
            mode="process",
            shard_processes=2,
            force_processes=True,
            replication_factor=2,
            compact_on_close=False,
        )

    def close(self) -> None:
        if self.collection is not None:
            self.collection.close()
            self.collection = None

    def worker_pids(self) -> list[int]:
        return [child.pid for child in multiprocessing.active_children()]

    def prepare(self, op) -> None:
        op.request = op.transaction if op.is_update else op.pattern

    def execute(self, op) -> bool:
        if op.is_update:
            return self.collection.update(op.key, op.request).applied
        return len(self.collection.query(op.request).limit(LIMIT).all()) == LIMIT

    def rows(self, key, pattern, limit, planner=True) -> list[dict]:
        if not planner:
            return None  # no in-process handle on a worker's session
        results = self.collection.query(pattern)
        if limit is not None:
            results = results.limit(limit)
        return [encode_row(row) for row in results]

    def compact(self) -> None:
        pass  # opening the cluster folds every primary (replica resync)

    def states(self) -> dict:
        documents = self.collection.stats()["documents"]
        return {key: info["sequence"] for key, info in sorted(documents.items())}

    def stored_states(self) -> dict:
        """Every primary and replica copy, read back with plain sessions
        once the cluster is closed."""
        states = {}
        copies = [p.parent for p in sorted(self.path.glob("*/document.xml"))]
        copies += [
            p.parent for p in sorted(self.path.glob(".replicas/*/*/document.xml"))
        ]
        for directory in copies:
            with repro.connect(directory, compact_on_close=False) as session:
                states[str(directory.relative_to(self.path))] = session_state(session)
        return states


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (EmbeddedMatch, EmbeddedProbability, HttpPoint, ClusterMixed)
}
