"""Public session API: ``repro.connect`` and the fluent query surface.

One coherent, concurrency-ready entry point over the warehouse (the
paper's "system" architecture — modules connect, query and update a
shared probabilistic store):

* :func:`connect` — open (or create) a warehouse, returning a
  :class:`Session`;
* :class:`Session` — fluent queries (:meth:`Session.query` returns a
  lazy :class:`ResultSet`), updates, batches, snapshots, statistics;
* :func:`pattern` / :class:`PatternBuilder` and :func:`update` /
  :class:`UpdateBuilder` — programmatic construction compiling to the
  same objects as the text parsers;
* :class:`Snapshot` — snapshot-isolated reads pinned at a commit
  sequence while writers keep committing.
"""

from repro.api.builders import (
    PatternBuilder,
    UpdateBuilder,
    compile_pattern,
    compile_transaction,
    pattern,
    update,
)
from repro.api.options import QueryOptions, QueryOptionsError
from repro.api.results import ResultSet, RowStream
from repro.api.session import Session, SessionBatch, Snapshot, connect
from repro.core.query import Row

__all__ = [
    "connect",
    "Session",
    "SessionBatch",
    "Snapshot",
    "QueryOptions",
    "QueryOptionsError",
    "ResultSet",
    "Row",
    "RowStream",
    "PatternBuilder",
    "UpdateBuilder",
    "pattern",
    "update",
    "compile_pattern",
    "compile_transaction",
]
