"""Tests for the HTTP front end (repro.serve.http): app + asyncio server."""

from __future__ import annotations

import http.client
import itertools
import json
import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.fuzzy_tree import FuzzyNode, FuzzyTree
from repro.errors import QueryCancelledError, ReproError
from repro.obs.metrics import process_registry
from repro.serve.http import (
    Application,
    BadRequest,
    ServerThread,
    canonical_json,
    encode_estimate_row,
    encode_row,
    error_body,
    estimate_response_body,
    query_response_body,
    status_for,
)
from repro.serve.http import app as app_module

XU_TEMPLATE = (
    '<xu:modifications xmlns:xu="urn:repro:xupdate" '
    'query="/person[$p]" confidence="{confidence}">'
    '<xu:insert anchor="p"><email>{value}</email></xu:insert>'
    "</xu:modifications>"
)


def _insert_email_xml(value: str, confidence: float = 0.9) -> str:
    return XU_TEMPLATE.format(value=value, confidence=confidence)


def _request(port, method, path, payload=None, conn=None, headers=None):
    """One HTTP exchange; returns (status, headers dict, body bytes)."""
    own = conn is None
    if own:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    body = None
    send_headers = dict(headers or {})
    if payload is not None:
        body = json.dumps(payload).encode("utf-8")
        send_headers.setdefault("Content-Type", "application/json")
    conn.request(method, path, body, send_headers)
    response = conn.getresponse()
    data = response.read()
    result = (response.status, dict(response.getheaders()), data)
    if own:
        conn.close()
    return result


@pytest.fixture(scope="module")
def served_session(tmp_path_factory):
    """One warehouse session shared by the server and direct queries.

    Shared on purpose: the warehouse writer lock means a second
    ``connect`` would fail, and the byte-identity property needs both
    paths to read the same generation.
    """
    path = tmp_path_factory.mktemp("http") / "wh"
    with repro.connect(path, create=True, root="person") as session:
        for i in range(6):
            session.update(
                repro.update(
                    repro.pattern("person", variable="p", anchored=True)
                ).insert("p", repro.tree("email", f"user{i}@example.org")),
                confidence=0.35 + 0.1 * i,
            )
        with ServerThread(session) as handle:
            yield session, handle


@pytest.fixture(scope="module")
def served_collection(tmp_path_factory):
    path = tmp_path_factory.mktemp("http_coll") / "coll"
    with repro.connect_collection(path, create=True, workers=4) as collection:
        rng = random.Random(7)
        for key in ("alice", "bob", "carol"):
            collection.create_document(key, root="person")
            for i in range(rng.randint(2, 5)):
                collection.update(
                    key,
                    repro.update(
                        repro.pattern("person", variable="p", anchored=True)
                    ).insert("p", repro.tree("email", f"{key}{i}@x")),
                    confidence=round(rng.uniform(0.2, 0.95), 3),
                )
        with ServerThread(collection) as handle:
            yield collection, handle


PATTERNS = (
    "//email",
    "//person",
    "/person { email }",
    "/person { email[$e] }",
    "*",
    "//person { email[$e] }",
)


class TestQueryByteIdentity:
    """HTTP /query with limit=n is byte-identical to the in-process rows."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_session_rows_roundtrip(self, served_session, seed):
        session, handle = served_session
        rng = random.Random(seed)
        pattern = rng.choice(PATTERNS)
        limit = rng.randint(0, 8)
        status, _, body = _request(
            handle.port, "POST", "/query", {"pattern": pattern, "limit": limit}
        )
        assert status == 200
        with session.query(pattern).limit(limit).stream() as stream:
            expected = query_response_body([encode_row(row) for row in stream])
        assert body == expected

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_collection_rows_roundtrip(self, served_collection, seed):
        collection, handle = served_collection
        rng = random.Random(seed)
        pattern = rng.choice(PATTERNS)
        limit = rng.randint(0, 8)
        document = rng.choice((None, "alice", "bob", "carol"))
        payload = {"pattern": pattern, "limit": limit}
        if document is not None:
            payload["document"] = document
        status, _, body = _request(handle.port, "POST", "/query", payload)
        assert status == 200
        keys = None if document is None else [document]
        results = collection.query(pattern, keys=keys).limit(limit)
        rows = [encode_row(row) for row in results]
        assert body == query_response_body(rows)

    def test_rows_carry_document_keys(self, served_collection):
        _, handle = served_collection
        status, _, body = _request(
            handle.port, "POST", "/query", {"pattern": "//email", "limit": 3}
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["count"] == 3
        assert all(r["document"] == "alice" for r in payload["rows"])

    def test_canonical_json_is_deterministic(self):
        a = canonical_json({"b": 1.5, "a": [{"y": 2, "x": 1}]})
        b = canonical_json({"a": [{"x": 1, "y": 2}], "b": 1.5})
        assert a == b == b'{"a":[{"x":1,"y":2}],"b":1.5}'

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_session_topk_roundtrip(self, served_session, seed):
        """Probability-ordered HTTP rows == in-process bounded rows."""
        session, handle = served_session
        rng = random.Random(seed)
        pattern = rng.choice(PATTERNS)
        k = rng.randint(1, 5)
        floor = rng.choice((None, 0.4, 0.6))
        payload = {"pattern": pattern, "limit": k, "order_by": "probability"}
        results = session.query(pattern).order_by_probability().limit(k)
        if floor is not None:
            payload["min_probability"] = floor
            results = results.min_probability(floor)
        status, _, body = _request(handle.port, "POST", "/query", payload)
        assert status == 200
        with results.stream() as stream:
            expected = query_response_body([encode_row(row) for row in stream])
        assert body == expected

    def test_session_estimate_roundtrip(self, served_session):
        """HTTP anytime estimates == in-process estimates, byte for byte."""
        session, handle = served_session
        status, _, body = _request(
            handle.port,
            "POST",
            "/query",
            {"pattern": "//email", "epsilon": 0.05},
        )
        assert status == 200
        expected = estimate_response_body(
            [
                encode_estimate_row(e)
                for e in session.query("//email").estimate(epsilon=0.05)
            ]
        )
        assert body == expected
        payload = json.loads(body)
        assert payload["estimate"] is True
        assert all("stderr" in row for row in payload["rows"])

    def test_collection_estimate_roundtrip(self, served_collection):
        collection, handle = served_collection
        status, _, body = _request(
            handle.port,
            "POST",
            "/query",
            {"pattern": "//email", "epsilon": 0.05},
        )
        assert status == 200
        expected = estimate_response_body(
            [
                encode_estimate_row(e)
                for e in collection.query("//email").estimate(
                    epsilon=0.05
                )
            ]
        )
        assert body == expected

    def test_collection_estimate_honours_limit_across_shards(self, served_collection):
        """A limit below the shard count caps the merged estimates, not
        each shard's contribution (thread mode used to return up to
        shards x limit pairs; process mode capped)."""
        collection, handle = served_collection
        assert len(collection.keys()) > 2
        status, _, body = _request(
            handle.port,
            "POST",
            "/query",
            {"pattern": "//email", "epsilon": 0.05, "limit": 2},
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["estimate"] is True and payload["count"] == 2
        expected = estimate_response_body(
            [
                encode_estimate_row(e)
                for e in collection.query("//email").limit(2).estimate(
                    epsilon=0.05
                )
            ]
        )
        assert body == expected


class TestUpdateAndStats:
    def test_update_and_stats_roundtrip(self, tmp_path):
        path = tmp_path / "wh"
        repro.connect(path, create=True, root="person").close()
        with ServerThread(path) as handle:
            status, _, body = _request(
                handle.port,
                "POST",
                "/update",
                {"xupdate": _insert_email_xml("a@x"), "confidence": 0.8},
            )
            assert status == 200
            report = json.loads(body)
            assert report["batch"] is False
            assert report["report"]["applied"] is True
            status, _, body = _request(handle.port, "GET", "/stats")
            assert status == 200
            assert json.loads(body)["nodes"] == 2
        # The drain snapshot-closed the warehouse: the commit survives.
        with repro.connect(path) as session:
            assert session.query("//email").limit(1).all()

    def test_rejected_update_is_a_400_and_a_no_op(self, tmp_path):
        path = tmp_path / "wh"
        repro.connect(path, create=True, root="person").close()
        # Inserts, then asks to delete the root: refused as a whole.
        rejected = (
            '<xu:modifications xmlns:xu="urn:repro:xupdate" '
            'query="/person[$p]" confidence="0.5">'
            '<xu:insert anchor="p"><phantom /></xu:insert>'
            '<xu:delete target="p" /></xu:modifications>'
        )
        # A batch refused at member 2, after member 1 applied.
        rejected_batch = (
            '<xu:batch xmlns:xu="urn:repro:xupdate">'
            + _insert_email_xml("kept@x")
            + rejected
            + "</xu:batch>"
        )
        with ServerThread(path) as handle:
            for xupdate in (rejected, rejected_batch):
                status, _, body = _request(
                    handle.port, "POST", "/update", {"xupdate": xupdate}
                )
                assert status == 400
                assert json.loads(body)["error"]["family"] == "UpdateError"
            status, _, body = _request(
                handle.port, "POST", "/query", {"pattern": "//*"}
            )
            assert [row["tree"] for row in json.loads(body)["rows"]] == ["person"]
            status, _, body = _request(
                handle.port, "POST", "/update", {"xupdate": _insert_email_xml("a@x")}
            )
            # The refused transactions minted no confidence event.
            assert json.loads(body)["report"]["confidence_event"] == "w1"
        with repro.connect(path) as session:
            assert session.document.root.canonical() == "person(email='a@x'[w1])"
            assert [entry["kind"] for entry in session.history()] == ["create", "update"]

    def test_collection_update_routes_by_document(self, tmp_path):
        path = tmp_path / "coll"
        with repro.connect_collection(path, create=True) as collection:
            collection.create_document("d1", root="person")
            with ServerThread(collection) as handle:
                status, _, _ = _request(
                    handle.port,
                    "POST",
                    "/update",
                    {"xupdate": _insert_email_xml("d@x"), "document": "d1"},
                )
                assert status == 200
                # No document key on a collection: routing is ambiguous.
                status, _, body = _request(
                    handle.port,
                    "POST",
                    "/update",
                    {"xupdate": _insert_email_xml("d@x")},
                )
                assert status == 400
                assert json.loads(body)["error"]["family"] == "BadRequest"
            assert collection.query("//email", keys=["d1"]).limit(1).all()


class TestErrorMapping:
    def test_status_for_families(self):
        from repro.errors import (
            PatternSyntaxError,
            SessionClosedError,
            WarehouseCorruptError,
            WarehouseError,
            WarehouseLockedError,
        )

        assert status_for(QueryCancelledError("x")) == 504
        assert status_for(SessionClosedError("x")) == 503
        assert status_for(WarehouseLockedError("x")) == 423
        assert status_for(WarehouseCorruptError("x")) == 500
        assert status_for(PatternSyntaxError("x")) == 400
        assert status_for(WarehouseError("x")) == 500
        assert status_for(ReproError("x")) == 400
        assert status_for(ValueError("x")) == 500

    def test_error_body_carries_cli_exit_code(self):
        from repro.errors import PatternSyntaxError

        status, payload = error_body(PatternSyntaxError("bad"))
        assert status == 400
        assert payload["error"]["exit_code"] == 3
        assert payload["error"]["family"] == "PatternSyntaxError"
        status, payload = error_body(ValueError("boom"))
        assert status == 500
        assert payload["error"]["exit_code"] is None

    def test_wire_errors(self, served_session):
        _, handle = served_session
        # Pattern syntax error -> 400 with the CLI's exit code 3.
        status, _, body = _request(
            handle.port, "POST", "/query", {"pattern": "//person {{{"}
        )
        assert status == 400
        error = json.loads(body)["error"]
        assert error["family"] == "PatternSyntaxError"
        assert error["exit_code"] == 3
        # Malformed JSON -> 400.
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
        conn.request(
            "POST", "/query", b"{not json", {"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        assert response.status == 400
        response.read()
        conn.close()
        # Missing required field -> 400.
        status, _, _ = _request(handle.port, "POST", "/query", {})
        assert status == 400
        # Wrong field type (bool is not an int) -> 400.
        status, _, _ = _request(
            handle.port, "POST", "/query", {"pattern": "//email", "limit": True}
        )
        assert status == 400
        # 'document' is collection-only -> 400.
        status, _, _ = _request(
            handle.port,
            "POST",
            "/query",
            {"pattern": "//email", "document": "nope"},
        )
        assert status == 400
        # Unknown route -> 404; known route, wrong method -> 405 + Allow.
        status, _, _ = _request(handle.port, "GET", "/nope")
        assert status == 404
        status, headers, _ = _request(handle.port, "GET", "/query")
        assert status == 405
        assert headers.get("Allow") == "POST"

    def test_unknown_collection_document_is_400(self, served_collection):
        _, handle = served_collection
        status, _, body = _request(
            handle.port,
            "POST",
            "/query",
            {"pattern": "//email", "document": "mallory"},
        )
        assert status == 400
        assert "mallory" in json.loads(body)["error"]["message"]


class TestObservabilityEndpoints:
    def test_healthz(self, served_session):
        _, handle = served_session
        status, _, body = _request(handle.port, "GET", "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        (shard,) = payload["shards"].values()
        assert shard["alive"] is True
        assert shard["respawns"] == 0
        assert isinstance(shard["wal_depth"], int)

    def test_prometheus_exposition_is_valid(self, served_session):
        session, handle = served_session
        _request(handle.port, "POST", "/query", {"pattern": "//email"})
        status, headers, body = _request(handle.port, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        import re

        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le=\"[^\"]+\"\})? "
            r"[-+]?(\d+\.?\d*([eE][-+]?\d+)?|inf|nan)$"
        )
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            assert sample.match(line), f"invalid exposition line: {line!r}"
        # The new server families are present and moving.
        assert "# TYPE repro_http_requests_total counter" in text
        assert "# TYPE repro_http_request_seconds histogram" in text
        assert 'repro_http_request_seconds_bucket{le="+Inf"}' in text
        counters = {
            line.split(" ")[0]: float(line.split(" ")[1])
            for line in text.splitlines()
            if line and not line.startswith("#") and "{" not in line
        }
        assert counters["repro_http_requests_total"] >= 1
        assert counters["repro_http_connections_total"] >= 1

    def test_metrics_json_shape(self, served_session):
        _, handle = served_session
        status, headers, body = _request(handle.port, "GET", "/metrics.json")
        assert status == 200
        payload = json.loads(body)
        assert "counters" in payload and "histograms" in payload
        assert "http.request_seconds" in payload["histograms"]
        assert "slow_queries" in payload and "traces" in payload


class _StallingEncoder:
    """A monkeypatched encode_row that parks the worker thread.

    ``started`` fires when the worker reaches the first row (the request
    is provably mid-stream); the worker then waits for ``release``.
    """

    def __init__(self, inner):
        self.inner = inner
        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self, row):
        self.started.set()
        assert self.release.wait(30), "stalled row was never released"
        return self.inner(row)


def _async_request(port, method, path, payload):
    """Fire a request from a helper thread; returns a result-slot dict."""
    slot = {}

    def run():
        try:
            slot["result"] = _request(port, method, path, payload)
        except Exception as exc:  # pragma: no cover - surfaced by asserts
            slot["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    slot["thread"] = thread
    return slot


def _wait_until(predicate, timeout=10.0, message="condition never held"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(message)


@pytest.fixture
def tiny_server(tmp_path, monkeypatch):
    """workers=1, queue_depth=0 server with a stallable row encoder."""
    path = tmp_path / "wh"
    with repro.connect(path, create=True, root="person") as session:
        for i in range(4):
            session.update(
                repro.update(
                    repro.pattern("person", variable="p", anchored=True)
                ).insert("p", repro.tree("email", f"u{i}@x")),
                confidence=0.5,
            )
        stall = _StallingEncoder(app_module.encode_row)
        monkeypatch.setattr(app_module, "encode_row", stall)
        with ServerThread(
            session, workers=1, queue_depth=0, default_deadline=30.0
        ) as handle:
            yield session, handle, stall
            stall.release.set()


class TestLoadShedding:
    def test_queue_full_sheds_with_retry_after(self, tiny_server):
        session, handle, stall = tiny_server
        first = _async_request(
            handle.port, "POST", "/query", {"pattern": "//email"}
        )
        assert stall.started.wait(10), "first request never reached a worker"
        # Capacity (workers=1 + queue_depth=0) is taken: shed.
        status, headers, body = _request(
            handle.port, "POST", "/query", {"pattern": "//email", "limit": 1}
        )
        assert status == 429
        assert headers.get("Retry-After") == "1"
        assert json.loads(body)["error"]["status"] == 429
        # Health and metrics bypass admission control while saturated.
        status, _, _ = _request(handle.port, "GET", "/healthz")
        assert status == 200
        status, _, _ = _request(handle.port, "GET", "/metrics")
        assert status == 200
        obs = session.observability
        assert obs.metrics.counter("http.shed_requests") >= 1
        # Releasing the stall lets the admitted request finish normally.
        stall.release.set()
        first["thread"].join(30)
        assert first["result"][0] == 200


class TestDeadlines:
    def test_expired_deadline_is_504_before_execution(self, served_session):
        session, handle = served_session
        obs = session.observability
        before = obs.metrics.counter("http.deadline_timeouts")
        status, _, body = _request(
            handle.port,
            "POST",
            "/query",
            {"pattern": "//email", "timeout_ms": 0},
        )
        assert status == 504
        error = json.loads(body)["error"]
        assert error["family"] == "QueryCancelledError"
        assert obs.metrics.counter("http.deadline_timeouts") == before + 1

    def test_mid_stream_deadline_cancels_and_releases_pins(self, tiny_server):
        session, handle, stall = tiny_server
        slot = _async_request(
            handle.port,
            "POST",
            "/query",
            {"pattern": "//email", "timeout_ms": 150},
        )
        assert stall.started.wait(10)
        # Hold the worker past the deadline, then let it hit the next
        # row boundary, where the abort hook fires.
        time.sleep(0.3)
        stall.release.set()
        slot["thread"].join(30)
        status, _, body = slot["result"]
        assert status == 504
        assert json.loads(body)["error"]["family"] == "QueryCancelledError"
        # The abandoned stream released its iteration pin.
        _wait_until(
            lambda: session.stats()["read_sessions"] == 0,
            message="iteration pin was not released after the 504",
        )

    def test_fanout_cancel_stops_thread_shards(self, tmp_path):
        # Each shard's join has 35 716 matches (500 B children over 7
        # values); the abort hook turns true on its 5th call, and must
        # reach the shards' own streams rather than wait at the merge.
        def document():
            children = [FuzzyNode("B", value=f"v{i % 7}") for i in range(500)]
            return FuzzyTree(FuzzyNode("A", children=children), repro.EventTable({}))

        calls = itertools.count(1)

        class Cancel:
            @staticmethod
            def is_set():
                return next(calls) >= 5

        with repro.connect_collection(
            tmp_path / "coll", create=True, workers=2
        ) as collection:
            for key in ("d1", "d2"):
                collection.create_document(key, document=document())
            before = process_registry.counter("core.query.matches")
            with pytest.raises(QueryCancelledError):
                Application(collection).query(
                    {"pattern": "/A { B[$x], B[$x] }"}, None, Cancel()
                )
            enumerated = process_registry.counter("core.query.matches") - before
            assert enumerated < 35_716 // 100
            _wait_until(
                lambda: all(
                    info["read_sessions"] == 0
                    for info in collection.stats()["documents"].values()
                ),
                message="a cancelled shard kept its iteration pin",
            )

    def test_bad_timeout_ms_is_400(self, served_session):
        _, handle = served_session
        for bad in (-1, "fast", True):
            status, _, _ = _request(
                handle.port,
                "POST",
                "/query",
                {"pattern": "//email", "timeout_ms": bad},
            )
            assert status == 400


class TestKeepAliveAndDrain:
    def test_keep_alive_reuses_one_connection(self, served_session):
        _, handle = served_session
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
        try:
            for _ in range(3):
                status, _, _ = _request(
                    handle.port,
                    "POST",
                    "/query",
                    {"pattern": "//email", "limit": 1},
                    conn=conn,
                )
                assert status == 200
        finally:
            conn.close()

    def test_connection_close_is_honoured(self, served_session):
        _, handle = served_session
        status, headers, _ = _request(
            handle.port,
            "POST",
            "/query",
            {"pattern": "//email", "limit": 1},
            headers={"Connection": "close"},
        )
        assert status == 200
        assert headers.get("Connection") == "close"

    def test_graceful_drain(self, tmp_path, monkeypatch):
        path = tmp_path / "wh"
        repro.connect(path, create=True, root="person").close()
        stall = None
        with ServerThread(path, workers=2, drain_grace=30.0) as handle:
            # Commit an update, then park an in-flight query.
            status, _, _ = _request(
                handle.port,
                "POST",
                "/update",
                {"xupdate": _insert_email_xml("survivor@x"), "confidence": 0.9},
            )
            assert status == 200
            stall = _StallingEncoder(app_module.encode_row)
            monkeypatch.setattr(app_module, "encode_row", stall)
            inflight = _async_request(
                handle.port, "POST", "/query", {"pattern": "//email"}
            )
            assert stall.started.wait(10)
            # A pre-drain keep-alive connection observes the drain.
            probe = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=30
            )
            status, _, _ = _request(handle.port, "GET", "/healthz", conn=probe)
            assert status == 200
            handle._loop.call_soon_threadsafe(handle.server.begin_drain)
            _wait_until(lambda: handle.server.draining)
            # New requests on the surviving connection are refused...
            status, _, body = _request(handle.port, "GET", "/healthz", conn=probe)
            assert status == 503
            assert json.loads(body) == {"status": "draining"}
            probe.close()
            # ...new connections are refused outright...
            with pytest.raises(OSError):
                _request(handle.port, "GET", "/healthz")
            # ...but the in-flight request still completes.
            stall.release.set()
            inflight["thread"].join(30)
            assert inflight["result"][0] == 200
            handle.stop()
            assert not handle._thread.is_alive()
        # The drain snapshot-closed the warehouse: reopen and find the
        # committed update.
        with repro.connect(path) as session:
            rows = session.query("//email").all()
            assert len(rows) == 1

    def test_stop_is_idempotent(self, tmp_path):
        path = tmp_path / "wh"
        repro.connect(path, create=True, root="person").close()
        handle = ServerThread(path).start()
        handle.stop()
        handle.stop()
        assert not handle._thread.is_alive()


class TestServerThreadLifecycle:
    def test_start_surfaces_open_errors(self, tmp_path):
        with pytest.raises(ReproError):
            ServerThread(tmp_path / "missing").start()

    def test_bad_config_is_rejected(self, tmp_path):
        path = tmp_path / "wh"
        repro.connect(path, create=True, root="person").close()
        with pytest.raises(ReproError):
            ServerThread(path, queue_depth=-1).start()


class TestApplicationDirect:
    """Worker-layer checks that need no socket."""

    def test_bad_request_is_a_repro_error(self):
        assert isinstance(BadRequest("x"), ReproError)

    def test_query_payload_validation(self, tmp_path):
        from repro.api import QueryOptionsError

        path = tmp_path / "wh"
        with repro.connect(path, create=True, root="person") as session:
            app = Application(session)
            with pytest.raises(QueryOptionsError):
                app.query({}, None, None)
            with pytest.raises(QueryOptionsError):
                app.query({"pattern": 7}, None, None)
            with pytest.raises(QueryOptionsError):
                app.query({"pattern": "//x", "limit": "many"}, None, None)
            # One aggregated 400: every invalid field reported at once.
            with pytest.raises(QueryOptionsError) as excinfo:
                app.query(
                    {"limit": "many", "order_by": "size", "epsilon": 2},
                    None,
                    None,
                )
            fields = {e["field"] for e in excinfo.value.errors}
            assert {"pattern", "limit", "order_by", "epsilon"} <= fields
            status, payload = error_body(excinfo.value)
            assert status == 400
            assert payload["error"]["fields"] == excinfo.value.errors
            body = app.query({"pattern": "//email"}, None, None)
            assert json.loads(body) == {"count": 0, "rows": []}

    def test_own_target_close(self, tmp_path):
        path = tmp_path / "wh"
        session = repro.connect(path, create=True, root="person")
        app = Application(session, own_target=True)
        app.close()
        with pytest.raises(ReproError):
            session.query("//x").all()
