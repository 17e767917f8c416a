"""A bounded worker pool shared by a collection's shards.

The serving layer's unit of parallelism: a :class:`SessionPool` runs
its own worker threads over a shared task queue with a hard worker
bound, submission accounting (how many tasks are in flight, how many
ever ran) and an idempotent, *hang-proof* shutdown.  One pool serves
*all* shards of a collection, so a collection of a hundred documents
still runs at most ``workers`` concurrent shard queries — fan-out is
bounded by the pool, not by the shard count.  Both engines fan out on
one: a thread :class:`~repro.serve.collection.Collection` runs a task
per shard, a :class:`~repro.serve.cluster.ProcessCollection` (a pool
``shard_processes`` wide) a task per worker process.

The pool deliberately does not use
:class:`~concurrent.futures.ThreadPoolExecutor`: executor threads are
non-daemon and joined by an atexit hook, so one shard task wedged
inside a document walk would hang interpreter exit forever — exactly
the failure mode :class:`~repro.serve.http.server.ServerThread`
teardown paths used to hit.  Here the workers are daemon threads,
:meth:`shutdown` joins them with a deadline, and a straggler is
*logged* (``repro.serve`` logger) and abandoned instead of wedging the
process.
"""

from __future__ import annotations

import logging
import os
import queue
import threading
from concurrent.futures import Future
from time import monotonic, perf_counter

from repro.errors import WarehouseError

__all__ = ["SessionPool", "check_count", "default_workers"]

_logger = logging.getLogger("repro.serve")

#: The sentinel a worker thread exits on (re-queued so one sentinel per
#: worker suffices no matter which worker dequeues it first).
_SHUTDOWN = object()


def check_count(name: str, value) -> int:
    """*value* when it is an int >= 1 (bools refused), else a
    :class:`~repro.errors.WarehouseError` naming *name*."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise WarehouseError(f"{name} must be an int >= 1, got {value!r}")
    return value


def default_workers() -> int:
    """The default pool width: the machine's cores, clamped to [2, 8].

    Reader work is CPU-bound Python, so very wide pools only add GIL
    contention; very narrow ones serialize multi-shard fan-out.
    """
    return max(2, min(8, os.cpu_count() or 2))


class SessionPool:
    """Bounded worker threads executing shard work for a collection.

    Parameters
    ----------
    workers:
        Maximum concurrent worker threads (default
        :func:`default_workers`).
    observability:
        An :class:`~repro.obs.Observability` panel, or None.  When its
        metrics are enabled, every submitted task feeds the
        ``serve.queue_wait_seconds`` (submission to worker pickup) and
        ``serve.execute_seconds`` (task body) histograms.

    The pool is thread-safe; tasks may be submitted from any thread
    until :meth:`shutdown`.  Futures honour
    :meth:`~concurrent.futures.Future.cancel` for tasks a worker has
    not picked up yet.
    """

    def __init__(self, workers: int | None = None, observability=None) -> None:
        if workers is None:
            workers = default_workers()
        self._workers = check_count("workers", workers)
        self._obs = observability
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._active = 0
        self._submitted = 0
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    @property
    def workers(self) -> int:
        """The maximum number of concurrent worker threads."""
        return self._workers

    @property
    def observability(self):
        """The attached :class:`~repro.obs.Observability` panel (or None)."""
        return self._obs

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                # Pass the pill on: one per worker is queued, but any
                # worker may dequeue any of them.
                self._queue.put(_SHUTDOWN)
                return
            future, fn, args, kwargs = item
            if not future.set_running_or_notify_cancel():
                with self._lock:
                    self._active -= 1
                continue
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                future.set_exception(exc)
            else:
                future.set_result(result)
            finally:
                with self._lock:
                    self._active -= 1

    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Schedule ``fn(*args, **kwargs)`` on a worker; returns a Future."""
        obs = self._obs
        if obs is not None and obs.metrics.enabled:
            registry = obs.metrics
            inner, submitted = fn, perf_counter()

            def fn(*args, **kwargs):  # noqa: F811 — instrumented shim
                started = perf_counter()
                registry.observe("serve.queue_wait_seconds", started - submitted)
                try:
                    return inner(*args, **kwargs)
                finally:
                    registry.observe(
                        "serve.execute_seconds", perf_counter() - started
                    )

        future: Future = Future()
        with self._lock:
            if self._closed:
                raise WarehouseError("session pool is shut down")
            self._active += 1
            self._submitted += 1
            # Enqueue under the lock: every accepted task is queued
            # *before* shutdown's sentinel, so no future can be
            # stranded behind the poison pill.
            self._queue.put((future, fn, args, kwargs))
        return future

    def stats(self) -> dict:
        """Pool accounting: worker bound, in-flight and lifetime tasks."""
        with self._lock:
            return {
                "workers": self._workers,
                "active_tasks": self._active,
                "submitted_tasks": self._submitted,
                "closed": self._closed,
            }

    def shutdown(self, wait: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting work and (by default) join the workers.

        Joining is bounded by *timeout* seconds across all workers: a
        thread still busy past the deadline is logged as a straggler
        and abandoned (the threads are daemonic, so it can never hang
        interpreter exit).  Idempotent.
        """
        with self._lock:
            already = self._closed
            if not already:
                self._closed = True
                self._queue.put(_SHUTDOWN)
        if not wait:
            return
        deadline = monotonic() + timeout
        stragglers = []
        for thread in self._threads:
            thread.join(max(0.0, deadline - monotonic()))
            if thread.is_alive():
                stragglers.append(thread.name)
        if stragglers:
            _logger.warning(
                "session pool shutdown abandoned %d straggler worker(s) "
                "after %.1fs: %s (daemon threads; they cannot block exit)",
                len(stragglers),
                timeout,
                ", ".join(stragglers),
            )

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        info = self.stats()
        state = "closed" if info["closed"] else f"{info['active_tasks']} active"
        return f"SessionPool({info['workers']} workers, {state})"
