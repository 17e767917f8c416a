"""Process-per-shard serving: supervisor, workers, ring, wire protocol.

The package behind ``connect_collection(..., mode="process")`` and
``repro serve --shard-processes N``: a supervisor process routes
document keys over a consistent-hash ring to worker processes, each
owning its shards' warehouses and recovering from its own WAL on crash.
With ``replication_factor=R`` every document also lives on R−1 replica
workers: writes are acknowledged by the primary and written through,
reads fail over between copies with budgeted retries (:mod:`.retry`),
and :mod:`.chaos` provides the seeded fault harness that proves it.
"""

from repro.serve.cluster.chaos import (
    FAULT_KINDS,
    ChaosMonkey,
    ChaosTransport,
    Fault,
    FaultPlan,
    kill_worker,
)
from repro.serve.cluster.retry import (
    DEFAULT_POLICY,
    RetryPolicy,
    call_with_retry,
    is_retryable,
)
from repro.serve.cluster.ring import HashRing
from repro.serve.cluster.supervisor import (
    ClusterRow,
    ProcessCollection,
)
from repro.serve.cluster.wire import (
    FRAME_FORMAT_VERSION,
    PipeTransport,
    Verb,
    WireError,
    decode_frame,
    encode_frame,
)
from repro.serve.cluster.worker import worker_main

__all__ = [
    "ChaosMonkey",
    "ChaosTransport",
    "ClusterRow",
    "DEFAULT_POLICY",
    "FAULT_KINDS",
    "FRAME_FORMAT_VERSION",
    "Fault",
    "FaultPlan",
    "HashRing",
    "PipeTransport",
    "ProcessCollection",
    "RetryPolicy",
    "Verb",
    "WireError",
    "call_with_retry",
    "decode_frame",
    "encode_frame",
    "is_retryable",
    "kill_worker",
    "worker_main",
]
