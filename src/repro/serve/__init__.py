"""The concurrent serving layer: thread-safe sessions at scale.

The paper's warehouse is meant to be queried and updated continuously
by many imprecise modules at once (slides 14–19); this package is the
piece that puts threads on top of the storage and session layers:

* one **warehouse** is already safe to share across threads in a
  single-writer / multi-reader shape — writers serialize on the
  handle's write lock while readers pin a document generation and run
  lock-free on the frozen tree (see :mod:`repro.warehouse.warehouse`
  and :mod:`repro.engine` for the locking contracts);
* a :class:`Collection` (:func:`connect_collection`) serves **many
  documents** as one store: one warehouse per document key, updates
  routed by key, queries fanned out across shards on a bounded
  :class:`SessionPool` and merged lazily in deterministic
  (shard, row) order with ``limit(n)`` short-circuiting the fan-out;
* ``connect_collection(..., mode="process")`` hosts the shards in
  **worker processes** instead (:class:`ProcessCollection`): a
  supervisor routes document keys over a consistent-hash ring to
  processes that each own their shards' warehouses, recover from their
  own WAL on crash and are respawned automatically — shard work runs
  outside this process's GIL, at one IPC round trip per query (see
  :mod:`repro.serve.cluster`).

Both engines are one front (:class:`~repro.serve.collection.BaseCollection`):
keys, create, update, query, stats, health and close are written once,
under one document-key rule, and both fan out on a :class:`SessionPool`.

::

    import repro

    with repro.connect_collection("people", create=True) as collection:
        collection.create_document("alice", root="person")
        collection.create_document("bob", root="person")
        collection.update("alice", some_transaction, confidence=0.9)
        for row in collection.query("//email").limit(10):
            print(row.document, row.probability, row.tree.canonical())
"""

from repro.serve.cluster import (
    ChaosMonkey,
    ClusterRow,
    FaultPlan,
    HashRing,
    ProcessCollection,
    RetryPolicy,
)
from repro.serve.collection import (
    Collection,
    connect_collection,
)
from repro.serve.pool import SessionPool, default_workers

__all__ = [
    "ChaosMonkey",
    "Collection",
    "ClusterRow",
    "FaultPlan",
    "HashRing",
    "ProcessCollection",
    "RetryPolicy",
    "SessionPool",
    "connect_collection",
    "default_workers",
]
