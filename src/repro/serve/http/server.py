"""A stdlib-only asyncio HTTP/1.1 front door for a served warehouse.

``repro serve --port N`` exposes a :class:`~repro.api.session.Session`
or :class:`~repro.serve.collection.Collection` over the wire::

    POST /query         {"pattern": "//person", "limit": 5,
                         "timeout_ms": 2000, "document": "alice"}
    POST /update        {"xupdate": "<xu:modifications>…", "confidence": 0.9,
                         "document": "alice"}
    GET  /stats         document/WAL/pin statistics (per-shard for collections)
    GET  /metrics       Prometheus text exposition (repro.obs.export)
    GET  /metrics.json  structured dashboard: metrics + slow queries + traces
    GET  /healthz       {"status": "ok", "shards": {key: {alive, wal_depth,
                         respawns}}} — 503 when draining or any shard is down

Production concerns, each load-bearing:

* **The event loop never blocks on a document walk.**  Query, update
  and stats execution is dispatched to a
  :class:`~repro.serve.pool.SessionPool`; the loop only parses bytes,
  checks admission and awaits futures.
* **Bounded queue with load-shedding.**  At most ``workers +
  queue_depth`` requests are admitted at once; past that the server
  answers ``429`` with a ``Retry-After`` header instead of building an
  unbounded backlog (the open-loop half of E15 measures this).
* **Per-request deadlines cancel real work.**  Every ``/query``
  carries a deadline (server default, per-request ``timeout_ms``
  override).  The worker polls it at every row boundary through the
  stream's abort hook (:meth:`~repro.api.results.ResultSet.stream`,
  one class for every target), so a past-deadline request closes
  its row stream — iteration pins drain to zero — and the client gets
  a structured ``504``.  On a thread collection the hook reaches every
  shard's own stream; a process collection's workers run their
  enumeration out of its reach, so there it is polled at the merge.
  An event-loop backstop (deadline + grace) answers even if a single
  row wedges the worker.
* **HTTP keep-alive with an idle timeout.**  Connections persist
  across requests; one idle past ``idle_timeout`` is closed.
* **Graceful drain.**  SIGTERM (wired by the CLI) stops accepting,
  lets in-flight responses finish, then closes the pool and
  snapshot-closes the warehouse — committed updates are on disk before
  the process exits.

The server is deliberately HTTP/1.1-minimal: ``Content-Length`` bodies
only (no chunked uploads), no TLS, no auth — it is the paper's
warehouse service on a socket, not a reverse proxy.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from pathlib import Path
from time import monotonic, perf_counter

from repro.errors import QueryCancelledError, ReproError, WarehouseError
from repro.obs.export import render_json, render_prometheus
from repro.serve.collection import Collection, connect_collection
from repro.serve.http.app import (
    Application,
    BadRequest,
    canonical_json,
    error_body,
    retry_after_headers,
)
from repro.serve.pool import SessionPool

__all__ = ["HTTPServer", "ServerThread", "run_server"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    423: "Locked",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Seconds past a request's deadline before the event-loop backstop
#: stops waiting for the worker (which polls the same deadline at every
#: row boundary and normally answers long before this fires).
DEADLINE_GRACE = 2.0

#: Routes executed on the worker pool (and therefore subject to
#: admission control), keyed by (method, path).
_POOLED = {("POST", "/query"), ("POST", "/update"), ("GET", "/stats")}

_KNOWN_PATHS = {
    "/query": ("POST",),
    "/update": ("POST",),
    "/stats": ("GET",),
    "/metrics": ("GET",),
    "/metrics.json": ("GET",),
    "/healthz": ("GET",),
}


class _Request:
    __slots__ = ("method", "path", "headers", "body", "keep_alive")

    def __init__(self, method, path, headers, body, keep_alive) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive


class _ParseError(Exception):
    """Malformed request bytes; carries the status to answer with."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _render_response(
    status: int, body: bytes, content_type: str, keep_alive: bool, extra=()
) -> bytes:
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in extra:
        head.append(f"{name}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body


class HTTPServer:
    """The asyncio front end over an :class:`Application` (see module docs).

    Lifecycle: ``await start()`` binds the socket (``port`` 0 picks a
    free one — read it back from :attr:`port`), :meth:`begin_drain`
    initiates the graceful shutdown (idempotent; callable from a signal
    handler), ``await wait_drained()`` returns once the last in-flight
    response is flushed and the warehouse is closed.
    """

    def __init__(
        self,
        app: Application,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int | None = None,
        queue_depth: int = 16,
        default_deadline: float = 30.0,
        max_deadline: float = 300.0,
        idle_timeout: float = 30.0,
        drain_grace: float = 10.0,
        max_body_bytes: int = 8 * 1024 * 1024,
        max_header_bytes: int = 32 * 1024,
    ) -> None:
        if queue_depth < 0:
            raise WarehouseError(f"queue_depth must be >= 0, got {queue_depth!r}")
        if default_deadline <= 0 or max_deadline <= 0:
            raise WarehouseError("deadlines must be positive")
        self._app = app
        self._host = host
        self._port = port
        self._pool = SessionPool(workers, observability=app.observability)
        self._capacity = self._pool.workers + queue_depth
        self._default_deadline = min(default_deadline, max_deadline)
        self._max_deadline = max_deadline
        self._idle_timeout = idle_timeout
        self._drain_grace = drain_grace
        self._max_body = max_body_bytes
        self._max_header = max_header_bytes
        self._obs = app.observability
        self._active = 0  # requests parsed and not yet responded
        self._draining = False
        self._connections: set[asyncio.StreamWriter] = set()
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._drain_task: asyncio.Task | None = None
        self._drained: asyncio.Event | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolved after :meth:`start` when 0 was asked)."""
        return self._port

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._drained = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]

    def begin_drain(self) -> None:
        """Start the graceful shutdown; idempotent, event-loop thread only.

        (From another thread use
        ``loop.call_soon_threadsafe(server.begin_drain)`` — exactly what
        :meth:`ServerThread.stop` and the CLI's signal handlers do.)
        """
        if self._drain_task is None:
            self._drain_task = self._loop.create_task(self._drain())

    async def wait_drained(self) -> None:
        await self._drained.wait()

    async def _drain(self) -> None:
        # 1. Stop accepting: new connections are refused from here on;
        #    requests already parsed keep running, new requests on
        #    kept-alive connections get 503 (see _respond).
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        # 2. Finish in-flight responses, bounded by the grace period.
        deadline = self._loop.time() + self._drain_grace
        while self._active > 0 and self._loop.time() < deadline:
            await asyncio.sleep(0.005)
        # 3. Close lingering connections (idle keep-alives, stragglers
        #    past the grace period).
        for writer in list(self._connections):
            writer.close()
        # 4. Tear down execution: pool join and warehouse close both
        #    block (thread joins, compaction fsync) — off the loop.
        await asyncio.to_thread(self._pool.shutdown)
        await asyncio.to_thread(self._app.close)
        self._drained.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        obs = self._obs
        metrics = obs is not None and obs.metrics.enabled
        if metrics:
            obs.metrics.incr("http.connections")
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _ParseError as exc:
                    _, payload = error_body(BadRequest(str(exc)), exc.status)
                    writer.write(
                        _render_response(
                            exc.status,
                            canonical_json(payload),
                            "application/json",
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break  # clean EOF or idle timeout
                t0 = perf_counter()
                self._active += 1
                try:
                    status, body, ctype, extra = await self._respond(request)
                finally:
                    self._active -= 1
                keep = request.keep_alive and not self._draining
                writer.write(_render_response(status, body, ctype, keep, extra))
                await writer.drain()
                if metrics:
                    registry = obs.metrics
                    registry.incr("http.requests")
                    registry.observe("http.request_seconds", perf_counter() - t0)
                    if status >= 400:
                        registry.incr("http.error_responses")
                if not keep:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass  # client went away mid-request/response
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader) -> _Request | None:
        """Parse one request; None on clean EOF or idle timeout."""
        try:
            line = await asyncio.wait_for(reader.readline(), self._idle_timeout)
        except asyncio.TimeoutError:
            return None
        except (ConnectionResetError, BrokenPipeError):
            return None
        if not line:
            return None
        try:
            parts = line.decode("latin-1").split()
        except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
            raise _ParseError(400, "undecodable request line")
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _ParseError(400, "malformed request line")
        method, target, version = parts
        path = target.split("?", 1)[0]
        headers: dict[str, str] = {}
        header_bytes = 0
        while True:
            try:
                hline = await asyncio.wait_for(reader.readline(), self._idle_timeout)
            except asyncio.TimeoutError:
                raise _ParseError(400, "timed out reading headers") from None
            if hline in (b"\r\n", b"\n", b""):
                break
            header_bytes += len(hline)
            if header_bytes > self._max_header:
                raise _ParseError(431, "request headers too large")
            name, sep, value = hline.decode("latin-1").partition(":")
            if not sep:
                raise _ParseError(400, f"malformed header line {hline!r}")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise _ParseError(501, "chunked request bodies are not supported")
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError:
                raise _ParseError(400, "malformed Content-Length") from None
            if n < 0:
                raise _ParseError(400, "malformed Content-Length")
            if n > self._max_body:
                raise _ParseError(413, "request body too large")
            if n:
                body = await reader.readexactly(n)
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.0":
            keep_alive = connection == "keep-alive"
        else:
            keep_alive = connection != "close"
        return _Request(method, path, headers, body, keep_alive)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _respond(self, request) -> tuple[int, bytes, str, tuple]:
        """(status, body, content type, extra headers) for one request.

        ``/healthz`` and the metrics endpoints are answered inline and
        bypass admission control — observability must keep working
        while the serving queue is saturated.
        """
        path, method = request.path, request.method
        allowed = _KNOWN_PATHS.get(path)
        if allowed is None:
            status, payload = error_body(BadRequest(f"no route {path!r}"), 404)
            return status, canonical_json(payload), "application/json", ()
        if method not in allowed:
            status, payload = error_body(
                BadRequest(f"{method} not allowed on {path}"), 405
            )
            extra = (("Allow", ", ".join(allowed)),)
            return status, canonical_json(payload), "application/json", extra

        if path == "/healthz":
            if self._draining:
                return (
                    503,
                    canonical_json({"status": "draining"}),
                    "application/json",
                    (),
                )
            # Off the loop (process collections do a short IPC fan-out)
            # but NOT on the pool: health must answer while the serving
            # queue is saturated.
            try:
                payload = await asyncio.to_thread(self._app.health)
            except BaseException as exc:
                if isinstance(exc, (asyncio.CancelledError, KeyboardInterrupt)):
                    raise
                status, payload = error_body(exc, 503)
                return status, canonical_json(payload), "application/json", ()
            status = 200 if payload.get("status") == "ok" else 503
            return status, canonical_json(payload), "application/json", ()

        if path in ("/metrics", "/metrics.json"):
            obs = self._obs
            if obs is None:
                status, payload = error_body(
                    ReproError("no observability panel attached"), 503
                )
                return status, canonical_json(payload), "application/json", ()
            if path == "/metrics":
                text = render_prometheus(obs.metrics)
                return (
                    200,
                    text.encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                    (),
                )
            text = render_json(obs.metrics, obs)
            return 200, text.encode("utf-8"), "application/json", ()

        return await self._dispatch_pooled(request)

    async def _dispatch_pooled(self, request) -> tuple[int, bytes, str, tuple]:
        obs = self._obs
        metrics = obs is not None and obs.metrics.enabled
        if self._draining:
            status, payload = error_body(
                WarehouseError("server is draining"), 503
            )
            return status, canonical_json(payload), "application/json", ()
        if self._active > self._capacity:
            # Load shed: _active counts this request too, so the bound
            # admits capacity requests and rejects the capacity+1-th.
            if metrics:
                obs.metrics.incr("http.shed_requests")
            status, payload = error_body(
                WarehouseError(
                    f"request queue is full ({self._capacity} in flight)"
                ),
                429,
            )
            extra = (("Retry-After", "1"),)
            return status, canonical_json(payload), "application/json", extra
        if metrics:
            obs.metrics.set_gauge("http.inflight_requests", self._active)

        try:
            payload = json.loads(request.body) if request.body else {}
        except json.JSONDecodeError as exc:
            status, body = error_body(BadRequest(f"invalid JSON body: {exc}"))
            return status, canonical_json(body), "application/json", ()
        if not isinstance(payload, dict):
            status, body = error_body(BadRequest("JSON body must be an object"))
            return status, canonical_json(body), "application/json", ()

        route = request.path
        t0 = perf_counter()
        try:
            if route == "/query":
                timeout_ms = payload.get("timeout_ms")
                if timeout_ms is not None and (
                    isinstance(timeout_ms, bool)
                    or not isinstance(timeout_ms, (int, float))
                    or timeout_ms < 0
                ):
                    raise BadRequest(
                        f"field 'timeout_ms' must be a number >= 0, "
                        f"got {timeout_ms!r}"
                    )
                timeout = (
                    self._default_deadline
                    if timeout_ms is None
                    else min(timeout_ms / 1000.0, self._max_deadline)
                )
                deadline = monotonic() + timeout
                cancel = threading.Event()
                future = self._pool.submit(
                    self._app.query, payload, deadline, cancel
                )
                try:
                    body = await asyncio.wait_for(
                        asyncio.wrap_future(future),
                        timeout + DEADLINE_GRACE,
                    )
                except asyncio.TimeoutError:
                    # Backstop: the worker wedged inside one row.  Tell
                    # it to stop at the next boundary and answer now.
                    cancel.set()
                    raise QueryCancelledError(
                        f"deadline of {timeout:.3f}s expired"
                    ) from None
                finally:
                    if metrics:
                        obs.metrics.observe(
                            "http.query_seconds", perf_counter() - t0
                        )
            elif route == "/update":
                future = self._pool.submit(self._app.update, payload)
                body = await asyncio.wrap_future(future)
            else:  # /stats
                future = self._pool.submit(self._app.stats)
                body = await asyncio.wrap_future(future)
        except BaseException as exc:
            if isinstance(exc, (asyncio.CancelledError, KeyboardInterrupt)):
                raise
            if metrics and isinstance(exc, QueryCancelledError):
                obs.metrics.incr("http.deadline_timeouts")
            status, payload = error_body(exc)
            extra = retry_after_headers(exc, status)
            return status, canonical_json(payload), "application/json", extra
        return 200, body, "application/json", ()


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def _open_target(
    path: str | Path,
    *,
    workers: int | None = None,
    shard_processes: int | None = None,
    replication_factor: int = 1,
):
    """Session or Collection for *path*, collection auto-detected.

    *shard_processes* selects the process-per-shard engine for
    collections (ignored for single warehouses); on a single-core host
    it degrades back to the thread pool — see
    :func:`~repro.serve.collection.connect_collection`.
    *replication_factor* applies in process mode only.
    """
    if Collection.is_collection(path):
        return connect_collection(
            path,
            workers=workers,
            mode="thread" if shard_processes is None else "process",
            shard_processes=shard_processes,
            replication_factor=replication_factor,
        )
    from repro.api import connect

    return connect(path)


def run_server(
    path: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
    workers: int | None = None,
    shard_processes: int | None = None,
    replication_factor: int = 1,
    queue_depth: int = 16,
    default_deadline: float = 30.0,
    idle_timeout: float = 30.0,
    drain_grace: float = 10.0,
    quiet: bool = False,
) -> int:
    """Blocking entry point behind ``repro serve`` (see module docs).

    Opens the warehouse (or collection) at *path*, serves until SIGTERM
    or SIGINT, drains gracefully, closes the store, returns 0.
    ``shard_processes=N`` serves a collection with N worker processes
    behind the consistent-hash ring instead of the in-process pool;
    ``replication_factor=R`` keeps every document on R of them.
    """
    target = _open_target(
        path,
        workers=workers,
        shard_processes=shard_processes,
        replication_factor=replication_factor,
    )
    app = Application(target, own_target=True)
    try:
        server = HTTPServer(
            app,
            host=host,
            port=port,
            workers=workers,
            queue_depth=queue_depth,
            default_deadline=default_deadline,
            idle_timeout=idle_timeout,
            drain_grace=drain_grace,
        )
    except BaseException:
        app.close()
        raise

    async def _main() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, server.begin_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix loops: Ctrl-C still raises KeyboardInterrupt
        if not quiet:
            kind = "collection" if app.is_collection else "warehouse"
            print(
                f"serving {kind} {path} at http://{host}:{server.port} "
                "(SIGTERM drains gracefully)",
                flush=True,
            )
        await server.wait_drained()

    asyncio.run(_main())
    return 0


class ServerThread:
    """An :class:`HTTPServer` on a private event loop in a daemon thread.

    The in-process harness tests and E15 use: pass an open Session or
    Collection (not closed on exit — the caller owns it) or a path
    (opened and closed by the server), enter the context manager, talk
    to ``http://127.0.0.1:{port}``, and :meth:`stop` to drain::

        with repro.connect(path) as session:
            with ServerThread(session, queue_depth=4) as handle:
                requests_go_to(handle.url)
    """

    def __init__(self, target, *, shard_processes: int | None = None, **server_kwargs) -> None:
        if isinstance(target, (str, Path)):
            self._path = Path(target)
            self._app = None
        else:
            self._path = None
            self._app = Application(target)
        self._shard_processes = shard_processes
        self._kwargs = server_kwargs
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.server: HTTPServer | None = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.port}"

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-http", daemon=True
        )
        self._thread.start()
        if not self._started.wait(30):  # pragma: no cover - hang guard
            raise WarehouseError("HTTP server failed to start in 30s")
        if self._error is not None:
            raise self._error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surfaced to the starting thread
            self._error = exc
            self._started.set()

    async def _amain(self) -> None:
        app = self._app
        if app is None:
            app = Application(
                _open_target(self._path, shard_processes=self._shard_processes),
                own_target=True,
            )
        self.server = HTTPServer(app, **self._kwargs)
        await self.server.start()
        self._loop = asyncio.get_running_loop()
        self._started.set()
        await self.server.wait_drained()

    def stop(self, timeout: float = 30.0) -> None:
        """Drain the server and join the thread; idempotent."""
        loop, server = self._loop, self.server
        if loop is not None and server is not None:
            try:
                loop.call_soon_threadsafe(server.begin_drain)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
