"""Deterministic chaos harness for the process-per-shard cluster.

Fault-tolerance claims are only as good as the faults they were tested
against, and ad-hoc ``kill``-from-a-shell tests neither cover the
interesting windows nor reproduce.  This module makes fault injection a
*seeded plan*: :class:`FaultPlan` expands a seed into a fixed sequence
of :class:`Fault` events, and :class:`ChaosMonkey` applies them to a
live :class:`~repro.serve.cluster.ProcessCollection` — one per call
(:meth:`ChaosMonkey.apply_next`) for step-debuggable tests, or on a
timer (:meth:`ChaosMonkey.start`) for sustained-load benchmarks.  The
same seed replays the same schedule.

Fault kinds:

``kill``
    SIGKILL the victim worker process — the supervisor sees EOF on the
    pipe, in-flight requests fail retryably, the monitor respawns.
``drop_pipe``
    Close the supervisor side of the victim's pipe: both ends observe
    a clean EOF with the process still healthy — the "half-open
    channel" failure, distinct from a process death.
``corrupt_frame``
    Flip one random bit in the next response frame received from the
    victim, exercising the :class:`~repro.serve.cluster.wire.WireError`
    failure family (damage ≠ death: the worker stays up and the next
    request must succeed without a respawn).
``slow``
    Delay the next response from the victim by ``delay_s`` seconds —
    a slow worker, which only an attempt timeout can distinguish from
    a dead one.

Worker UPDATE-window kills (``before_commit`` / ``after_commit``) stay
where PR 8 put them — the ``fault=`` argument of
``ProcessCollection.update`` — because they must fire at an exact
point *inside* the commit, which no external scheduler can hit;
:class:`FaultPlan` covers everything that happens *to the channel and
the process*, the update faults cover the commit window itself.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from repro.errors import WarehouseError
from repro.serve.cluster.wire import decode_frame

__all__ = [
    "ChaosMonkey",
    "ChaosTransport",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "kill_worker",
]

FAULT_KINDS = ("kill", "drop_pipe", "corrupt_frame", "slow")


@dataclass(frozen=True)
class Fault:
    """One planned fault: *victim* indexes the sorted list of live
    workers at apply time (modulo its length, so a plan still applies
    while a worker is down)."""

    kind: str
    victim: int
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise WarehouseError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )


class FaultPlan:
    """A seeded, finite fault schedule; the same seed gives the same
    plan on every run and machine."""

    def __init__(
        self,
        seed: int,
        *,
        length: int = 8,
        kinds: tuple[str, ...] = FAULT_KINDS,
        slow_s: float = 0.05,
    ) -> None:
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise WarehouseError(f"unknown fault kind {kind!r}")
        self.seed = seed
        rng = random.Random(seed)
        self.faults: tuple[Fault, ...] = tuple(
            Fault(
                kind=rng.choice(list(kinds)),
                victim=rng.randrange(1 << 16),
                delay_s=slow_s,
            )
            for _ in range(length)
        )

    @classmethod
    def kills(cls, seed: int, *, length: int = 8) -> "FaultPlan":
        """A kill-only plan — the E17 availability schedule."""
        return cls(seed, length=length, kinds=("kill",))

    def __iter__(self):
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __getitem__(self, index: int) -> Fault:
        return self.faults[index]

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, {len(self.faults)} faults)"


class ChaosTransport:
    """A transport wrapper that can damage or delay the next response.

    Wraps the supervisor side of a worker pipe; ``arm_corrupt()`` makes
    the next received frame arrive with one bit flipped (decode raises
    ``WireError``), ``arm_delay(s)`` makes it arrive *s* seconds late.
    Unarmed, it is a transparent proxy.
    """

    def __init__(self, inner, rng: random.Random) -> None:
        self._inner = inner
        self._rng = rng
        self._lock = threading.Lock()
        self._corrupt_next = 0
        self._delay_next = 0.0

    def arm_corrupt(self) -> None:
        with self._lock:
            self._corrupt_next += 1

    def arm_delay(self, seconds: float) -> None:
        with self._lock:
            self._delay_next = max(self._delay_next, float(seconds))

    def send(self, verb, request_id, payload) -> None:
        self._inner.send(verb, request_id, payload)

    def recv(self, timeout: float | None = None):
        with self._lock:
            delay, self._delay_next = self._delay_next, 0.0
            corrupt = self._corrupt_next > 0
            if corrupt:
                self._corrupt_next -= 1
        if delay:
            time.sleep(delay)
            if timeout is not None:
                timeout = max(0.0, timeout - delay)
        raw = self._inner.recv_bytes(timeout)
        if corrupt:
            flipped = bytearray(raw)
            bit = self._rng.randrange(len(flipped) * 8)
            flipped[bit // 8] ^= 1 << (bit % 8)
            raw = bytes(flipped)
        return decode_frame(raw)

    def recv_bytes(self, timeout: float | None = None) -> bytes:
        return self._inner.recv_bytes(timeout)

    def poll(self, timeout: float = 0.0) -> bool:
        return self._inner.poll(timeout)

    def close(self) -> None:
        self._inner.close()

    @property
    def closed(self) -> bool:
        return self._inner.closed


def kill_worker(collection, name: str) -> None:
    """SIGKILL worker *name* of a :class:`ProcessCollection` — the
    external-killer path (the in-commit windows are ``fault=`` on
    ``update``)."""
    handle = collection._handles.get(name)
    if handle is None:
        raise WarehouseError(f"no worker {name!r}")
    process = handle.process
    if process is not None and process.is_alive():
        process.kill()


class ChaosMonkey:
    """Applies a :class:`FaultPlan` to a live collection.

    ``apply_next()`` applies exactly one fault and returns it (None
    when the plan is exhausted); ``start(interval)`` runs the plan on
    a background thread, one fault per interval.  With
    ``wait_healthy=True`` (the default) a fault only fires while every
    worker is alive and no replica is stale — the "kill one worker per
    interval" schedule, never two concurrent failures, which is the
    regime an R=2 cluster is expected to survive with zero errors.
    """

    def __init__(self, collection, plan: FaultPlan, *, wait_healthy: bool = True) -> None:
        self._collection = collection
        self._plan = list(plan)
        self._next = 0
        self._rng = random.Random(plan.seed ^ 0x5EED)
        self._wait_healthy = wait_healthy
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.applied: list[tuple[Fault, str]] = []

    # -- plan execution ------------------------------------------------

    def _healthy(self) -> bool:
        collection = self._collection
        if any(
            not info["alive"] for info in collection.workers().values()
        ):
            return False
        return not collection._stale_pairs()

    def _victim(self, fault: Fault):
        handles = self._collection._handles
        names = sorted(
            name
            for name, handle in handles.items()
            if handle.alive and not handle.draining
        )
        if not names:
            return None, None
        name = names[fault.victim % len(names)]
        return name, handles[name]

    def apply_next(self) -> Fault | None:
        """Apply the next planned fault; None when the plan is done."""
        if self._next >= len(self._plan):
            return None
        fault = self._plan[self._next]
        name, handle = self._victim(fault)
        if handle is None:
            return None  # nothing alive to hurt; keep the fault queued
        self._next += 1
        if fault.kind == "kill":
            kill_worker(self._collection, name)
        elif fault.kind == "drop_pipe":
            with handle.lock:
                if handle.transport is not None:
                    handle.transport.close()
                handle.alive = False
        elif fault.kind in ("corrupt_frame", "slow"):
            with handle.lock:
                transport = handle.transport
                if transport is None:
                    return self.apply_next()
                if not isinstance(transport, ChaosTransport):
                    transport = ChaosTransport(transport, self._rng)
                    handle.transport = transport
                if fault.kind == "corrupt_frame":
                    transport.arm_corrupt()
                else:
                    transport.arm_delay(fault.delay_s)
        self.applied.append((fault, name))
        return fault

    # -- background schedule -------------------------------------------

    def start(self, interval: float = 1.0) -> None:
        if self._thread is not None:
            raise WarehouseError("chaos monkey already started")
        self._stop.clear()

        def run() -> None:
            while not self._stop.wait(interval):
                if self._next >= len(self._plan):
                    return
                if self._wait_healthy and not self._healthy():
                    continue  # let the respawn/resync finish first
                try:
                    self.apply_next()
                except Exception:
                    continue  # a racing respawn swapped state under us

        self._thread = threading.Thread(
            target=run, name="repro-chaos-monkey", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(5.0)
            self._thread = None

    def __repr__(self) -> str:
        return (
            f"ChaosMonkey({self._next}/{len(self._plan)} faults applied)"
        )
