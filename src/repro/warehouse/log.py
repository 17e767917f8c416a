"""Append-only logs for the warehouse: the audit log and the WAL.

Two logs live next to the document, with different jobs:

* :class:`TransactionLog` (``log.jsonl``) — the human-facing audit
  trail: one JSON line per committed operation recording what happened
  (the serialized transaction, the confidence, the report counters).
  It supports the E8 benchmark's throughput accounting, ``history`` and
  ``provenance``; it is **not** required for recovery.

* :class:`WriteAheadLog` (``wal.jsonl``) — the redo log of the
  incremental commit pipeline.  Each record carries a replayable
  payload (the XUpdate document of the commit), its sequence number and
  a SHA-256 over the record body, and is fsynced on append.  Recovery
  replays the records past the snapshot's sequence; a torn record at
  the tail (the classic crash-mid-append) is discarded, while a bad
  record *before* the tail raises
  :class:`~repro.errors.WarehouseCorruptError` — data that was
  acknowledged durable must never be silently dropped.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

from repro.errors import WarehouseCorruptError

__all__ = ["TransactionLog", "WriteAheadLog"]

_LOG_FILE = "log.jsonl"
_WAL_FILE = "wal.jsonl"


class TransactionLog:
    """A JSON-lines audit log stored next to the document."""

    def __init__(self, directory: str | Path) -> None:
        self.path = Path(directory) / _LOG_FILE

    def append(
        self, kind: str, sequence: int, payload: dict, fsync: bool = True
    ) -> dict:
        """Append one entry; returns the full record written.

        *fsync* is on by default; the warehouse turns it off when the
        WAL already made the commit durable (the audit log is then a
        best-effort convenience, reconstructed from the WAL on
        recovery).
        """
        record = {
            "kind": kind,
            "sequence": sequence,
            "timestamp": time.time(),
            **payload,
        }
        line = json.dumps(record, sort_keys=True)
        fd = os.open(self.path, os.O_CREAT | os.O_APPEND | os.O_WRONLY, 0o644)
        try:
            os.write(fd, line.encode("utf-8") + b"\n")
            if fsync:
                os.fsync(fd)
        finally:
            os.close(fd)
        return record

    def entries(self) -> list[dict]:
        """All log records, oldest first."""
        if not self.path.exists():
            return []
        records: list[dict] = []
        with open(self.path, encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise WarehouseCorruptError(
                        f"corrupt log line {line_number} in {self.path}: {exc}"
                    ) from exc
        return records

    def last_sequence(self) -> int:
        entries = self.entries()
        return max((entry.get("sequence", 0) for entry in entries), default=0)

    def discard_torn_tail(self) -> bool:
        """Drop a partial final line left by a crash mid-append.

        Under the WAL pipeline audit appends are not fsynced, so after a
        crash the file commonly ends in a torn line.  The audit log is
        best-effort (recovery reconstructs its missing entries from the
        WAL), so the torn tail is simply truncated away; damage anywhere
        before the tail is left for :meth:`entries` to report.  Returns
        True when a tail was discarded.
        """
        return _discard_torn_tail(self.path, unparseable_is_torn=True)


class WriteAheadLog:
    """Checksummed, fsynced redo log of committed update transactions."""

    def __init__(self, directory: str | Path) -> None:
        self.path = Path(directory) / _WAL_FILE

    def append(self, kind: str, sequence: int, payload: dict) -> dict:
        """Durably append one replayable record; returns it."""
        record = {"kind": kind, "sequence": sequence, "payload": payload}
        record["sha256"] = _record_digest(record)
        line = json.dumps(record, sort_keys=True)
        created = not self.path.exists()
        fd = os.open(self.path, os.O_CREAT | os.O_APPEND | os.O_WRONLY, 0o644)
        try:
            os.write(fd, line.encode("utf-8") + b"\n")
            os.fsync(fd)
        finally:
            os.close(fd)
        if created:
            # A new directory entry is not durable until the directory
            # itself is synced; without this a power loss could forget
            # the whole file despite the fsynced append.
            _fsync_directory(self.path.parent)
        return record

    def records(self) -> tuple[list[dict], str | None]:
        """All intact records plus a note when a torn tail was discarded.

        A record's newline is its last byte, written with the record in
        one append: bytes after the last newline are a partial write
        from a crash mid-append, dropped (the commit never finished, so
        it was never acknowledged).  A newline-terminated record that
        fails to verify is acknowledged data gone bad and raises
        :class:`WarehouseCorruptError` wherever it sits.
        """
        if not self.path.exists():
            return [], None
        with open(self.path, "rb") as handle:
            raw = handle.read()
        lines = raw.split(b"\n")
        tail = lines.pop()
        torn = f"discarded torn WAL tail (line {len(lines) + 1})" if tail else None
        records: list[dict] = []
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            problem = None
            record = None
            try:
                record = json.loads(line.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                problem = f"unparseable record: {exc}"
            if record is not None:
                if not isinstance(record, dict) or not {
                    "kind",
                    "sequence",
                    "payload",
                    "sha256",
                }.issubset(record):
                    problem = "record missing required fields"
                elif record["sha256"] != _record_digest(
                    {k: v for k, v in record.items() if k != "sha256"}
                ):
                    problem = "record checksum mismatch"
            if problem is not None:
                raise WarehouseCorruptError(
                    f"corrupt WAL record at line {index + 1} in {self.path}: {problem}"
                )
            records.append(record)
        return records, torn

    def replayable(self, after_sequence: int) -> tuple[list[dict], str | None]:
        """Records to replay on top of a snapshot at *after_sequence*.

        Records at or before the snapshot's sequence are skipped (they
        were already folded in — the compaction-crash case).  The
        remainder must be the contiguous run ``after_sequence + 1,
        after_sequence + 2, ...``; a gap means a durable commit went
        missing and raises :class:`WarehouseCorruptError`.
        """
        records, torn = self.records()
        keep = [r for r in records if r["sequence"] > after_sequence]
        for offset, record in enumerate(keep):
            expected = after_sequence + 1 + offset
            if record["sequence"] != expected:
                raise WarehouseCorruptError(
                    f"WAL sequence gap in {self.path}: expected {expected}, "
                    f"found {record['sequence']}"
                )
        return keep, torn

    def size_bytes(self) -> int:
        try:
            return self.path.stat().st_size
        except FileNotFoundError:
            return 0

    def discard_torn_tail(self) -> bool:
        """Truncate a torn final record (see :meth:`records`); True when
        one was dropped.  Otherwise the next append would land behind
        the torn bytes, on their line, and read back as mid-file damage."""
        return _discard_torn_tail(self.path)

    def reset(self) -> None:
        """Atomically empty the log (after its records were folded into
        a snapshot)."""
        _atomic_write(self.path, b"")


def _record_digest(body: dict) -> str:
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _fsync_directory(path: Path) -> None:
    """Make directory-entry changes (creations, renames) durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds: best effort
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write(path: Path, payload: bytes) -> None:
    """Replace *path* with *payload* durably: write and fsync a temporary
    file, rename it over *path*, then sync the directory entry."""
    tmp_path = path.with_suffix(path.suffix + ".tmp")
    fd = os.open(tmp_path, os.O_CREAT | os.O_TRUNC | os.O_WRONLY, 0o644)
    try:
        os.write(fd, payload)
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp_path, path)
    # The rename is not durable until the directory entry is synced.
    _fsync_directory(path.parent)


def _discard_torn_tail(path: Path, unparseable_is_torn: bool = False) -> bool:
    """Cut *path* back to before its torn final line; True when cut.

    An append writes its newline last, so bytes after the last newline
    are always torn; with *unparseable_is_torn* a complete final line
    that is not JSON is torn too.
    """
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return False
    if not raw:
        return False
    if raw.endswith(b"\n"):
        keep = raw[: raw.rfind(b"\n", 0, len(raw) - 1) + 1]
        tail = raw[len(keep) :].strip()
        if not (unparseable_is_torn and tail and not _parses(tail)):
            return False
    else:
        keep = raw[: raw.rfind(b"\n") + 1]
    _atomic_write(path, keep)
    return True


def _parses(line: bytes) -> bool:
    try:
        json.loads(line.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return False
    return True
