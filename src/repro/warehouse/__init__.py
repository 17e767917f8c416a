"""Probabilistic XML warehouse — substrate S8 (paper, slides 3 and 16).

* :class:`Warehouse` — the storage-level handle (the public query/update
  surface is the session API, :mod:`repro.api`);
* :class:`CommitPolicy` — when the WAL folds into a fresh snapshot;
* :class:`DocumentPin` — a pinned document generation for
  snapshot-isolated readers (copy-on-write on the first later commit);
* :class:`Storage` — atomic snapshots, checksums, single-writer locking;
* :class:`WriteAheadLog` — checksummed redo log for incremental commits;
* :class:`TransactionLog` — append-only audit log.
"""

from repro.warehouse.log import TransactionLog, WriteAheadLog
from repro.warehouse.storage import Storage
from repro.warehouse.warehouse import CommitPolicy, DocumentPin, Warehouse

__all__ = [
    "Warehouse",
    "CommitPolicy",
    "DocumentPin",
    "Storage",
    "TransactionLog",
    "WriteAheadLog",
]
