"""Filesystem storage for the probabilistic XML warehouse.

The paper's system stores fuzzy documents on the file system
(slide 16).  This layer provides the durability primitives the
warehouse needs:

* **atomic snapshots** — the document is written to a temporary file,
  fsynced, then renamed over the live copy, so a crash can never leave
  a half-written document;
* **integrity checking** — a sidecar metadata file records the SHA-256
  of the committed document; a mismatch on read raises
  :class:`~repro.errors.WarehouseCorruptError`;
* **single-writer locking** — a lock file holding the owner pid plus a
  process-identity token, created atomically with its payload via a
  hard link; a held lock raises
  :class:`~repro.errors.WarehouseLockedError`.

The stale-lock breaking rule is explicit: a lock is broken iff

1. its owner pid is dead, **or**
2. its owner pid is alive but its recorded process-start token differs
   from the live process's — the pid was recycled by an unrelated
   process (on Linux the token is the kernel's per-process start time
   from ``/proc/<pid>/stat``).

A live pid whose token matches — or cannot be compared (legacy integer
lock files, platforms without ``/proc``) — keeps the lock: when in
doubt, refuse to steal.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.errors import WarehouseCorruptError, WarehouseError, WarehouseLockedError
from repro.warehouse.log import _atomic_write

__all__ = ["Storage"]

_DOCUMENT_FILE = "document.xml"
_BINARY_FILE = "document.bin"
_META_FILE = "meta.json"
_LOCK_FILE = "lock"


class Storage:
    """Durable storage rooted at a warehouse directory."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock_fd: int | None = None

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------

    @property
    def document_path(self) -> Path:
        return self.path / _DOCUMENT_FILE

    @property
    def binary_path(self) -> Path:
        return self.path / _BINARY_FILE

    @property
    def meta_path(self) -> Path:
        return self.path / _META_FILE

    @property
    def lock_path(self) -> Path:
        return self.path / _LOCK_FILE

    def initialize(self) -> None:
        """Create the warehouse directory (idempotent)."""
        self.path.mkdir(parents=True, exist_ok=True)

    def exists(self) -> bool:
        return self.document_path.exists()

    # ------------------------------------------------------------------
    # Locking
    # ------------------------------------------------------------------

    def acquire_lock(self) -> None:
        """Take the single-writer lock, breaking stale locks (see module
        docstring for the explicit breaking rule).

        The lock file appears atomically *with* its pid/token payload
        (written to a staging file, then hard-linked into place): a
        concurrent acquirer can never observe a half-written lock and
        mistake a live owner for a stale one.  Breaking a stale lock is
        not atomic with re-acquiring it, so after linking the acquirer
        verifies the directory entry is still its own and backs off
        (``WarehouseLockedError``) when a concurrent breaker won the
        race; the unavoidable residue is the window between a breaker
        reading stale content and unlinking, which the verification
        narrows but plain files cannot fully close.
        """
        if self._lock_fd is not None:
            return
        self.initialize()
        payload = json.dumps(
            {"pid": os.getpid(), "token": _process_token(os.getpid())}
        ).encode("ascii")
        staging = self.path / f"{_LOCK_FILE}.{os.getpid()}.tmp"
        fd = os.open(staging, os.O_CREAT | os.O_TRUNC | os.O_WRONLY, 0o644)
        try:
            os.write(fd, payload)
            os.fsync(fd)
        finally:
            os.close(fd)
        try:
            for _attempt in range(2):
                try:
                    os.link(staging, self.lock_path)
                except FileExistsError:
                    owner = self._lock_owner()
                    if owner is not None:
                        pid, token = owner
                        if _pid_alive(pid) and not _pid_was_recycled(pid, token):
                            raise WarehouseLockedError(
                                f"warehouse {self.path} is locked by pid {pid}"
                            ) from None
                    # Stale lock: the owner is gone (or the pid was
                    # reused by an unrelated process); break it and
                    # retry once.
                    try:
                        self.lock_path.unlink()
                    except FileNotFoundError:
                        pass
                    continue
                fd = os.open(self.lock_path, os.O_RDONLY)
                # Verify the directory entry is still *our* link: a
                # concurrent acquirer that observed the same stale lock
                # may have unlinked ours in the break window.  Losing
                # the race here means backing off, not stealing.
                if os.fstat(fd).st_ino != os.stat(staging).st_ino:
                    os.close(fd)
                    raise WarehouseLockedError(
                        f"lost the lock race on {self.path}"
                    )
                self._lock_fd = fd
                return
            raise WarehouseLockedError(f"could not acquire lock on {self.path}")
        finally:
            try:
                staging.unlink()
            except FileNotFoundError:
                pass

    def release_lock(self) -> None:
        if self._lock_fd is None:
            return
        os.close(self._lock_fd)
        self._lock_fd = None
        try:
            self.lock_path.unlink()
        except FileNotFoundError:
            pass

    def _lock_owner(self) -> tuple[int, str | None] | None:
        """The recorded (pid, process token); None when unreadable.

        Accepts both the JSON layout and legacy plain-integer lock
        files (which carry no token — their live owners are always
        respected).
        """
        try:
            text = self.lock_path.read_text(encoding="ascii").strip()
        except (FileNotFoundError, UnicodeDecodeError):
            return None
        if not text:
            return None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None
        if isinstance(payload, dict) and isinstance(payload.get("pid"), int):
            token = payload.get("token")
            return payload["pid"], token if isinstance(token, str) else None
        try:
            return int(text), None
        except ValueError:
            return None

    # ------------------------------------------------------------------
    # Document I/O
    # ------------------------------------------------------------------

    def write_document(
        self,
        xml_text: str,
        sequence: int,
        extra_meta: dict | None = None,
        binary: bytes | None = None,
    ) -> None:
        """Atomically commit the document snapshot and its metadata.

        *extra_meta* entries (e.g. the event table's fresh-name counter,
        which WAL replay needs to re-mint identical event names) are
        merged into the metadata file.

        *binary* is the optional compact binary image of the same
        snapshot (see :mod:`repro.warehouse.snapshot_binary`): written
        with its own checksum recorded in the metadata, removed when
        None so a stale image can never outlive the XML snapshot it
        mirrored.  The XML stays the authoritative copy — readers fall
        back to it whenever the binary image is missing or damaged.

        ``meta.json`` is the commit point: the XML is written before it
        and the image after it.  A crash before the metadata lands
        leaves the old metadata matching the old image (the warehouse
        writes one with every snapshot); once it lands, the new
        metadata rejects the old image and the new XML is read.  Either
        way a reopen finds one consistent snapshot.
        """
        self.initialize()
        payload = xml_text.encode("utf-8")
        meta = {
            "sha256": hashlib.sha256(payload).hexdigest(),
            "sequence": sequence,
            "bytes": len(payload),
            "format": "repro-probabilistic-xml-v1",
        }
        if binary is not None:
            meta["binary"] = {
                "sha256": hashlib.sha256(binary).hexdigest(),
                "bytes": len(binary),
            }
        if extra_meta:
            meta.update(extra_meta)
        _atomic_write(self.document_path, payload)
        _atomic_write(
            self.meta_path, json.dumps(meta, indent=2, sort_keys=True).encode("utf-8")
        )
        if binary is not None:
            _atomic_write(self.binary_path, binary)
        else:
            try:
                self.binary_path.unlink()
            except FileNotFoundError:
                pass

    def read_document(self) -> tuple[str, int]:
        """Read and verify the committed document; returns (xml, sequence)."""
        if not self.document_path.exists():
            raise WarehouseError(f"no document at {self.document_path}")
        payload = self.document_path.read_bytes()
        meta = self.read_meta()
        digest = hashlib.sha256(payload).hexdigest()
        if meta.get("sha256") != digest:
            raise WarehouseCorruptError(
                f"document checksum mismatch in {self.path} "
                f"(expected {meta.get('sha256')}, found {digest})"
            )
        return payload.decode("utf-8"), int(meta.get("sequence", 0))

    def read_binary(self) -> bytes | None:
        """The binary snapshot image, verified against its recorded
        checksum; None when no image was written with the snapshot.

        Raises :class:`~repro.errors.WarehouseCorruptError` when the
        metadata advertises an image that is missing or damaged — the
        caller decides whether to fall back to the XML copy.
        """
        meta = self.read_meta()
        recorded = meta.get("binary")
        if not isinstance(recorded, dict):
            return None
        try:
            payload = self.binary_path.read_bytes()
        except FileNotFoundError:
            raise WarehouseCorruptError(
                f"metadata records a binary snapshot but {self.binary_path} is missing"
            ) from None
        digest = hashlib.sha256(payload).hexdigest()
        if recorded.get("sha256") != digest:
            raise WarehouseCorruptError(
                f"binary snapshot checksum mismatch in {self.path} "
                f"(expected {recorded.get('sha256')}, found {digest})"
            )
        return payload

    def read_meta(self) -> dict:
        """The snapshot's metadata record."""
        try:
            return json.loads(self.meta_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise WarehouseCorruptError(
                f"missing metadata file {self.meta_path}"
            ) from None
        except json.JSONDecodeError as exc:
            raise WarehouseCorruptError(f"corrupt metadata file: {exc}") from exc


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _process_token(pid: int) -> str | None:
    """A stable identity token for a live process (None when unavailable).

    On Linux this is the process start time (clock ticks since boot,
    field 22 of ``/proc/<pid>/stat``): two processes sharing a pid
    across a recycle necessarily differ in it.
    """
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="ascii", errors="replace")
    except OSError:
        return None
    # The comm field (2) may contain spaces/parens; fields resume after
    # the last ')'.  starttime is overall field 22 → index 19 there.
    _, _, tail = stat.rpartition(")")
    fields = tail.split()
    if len(fields) <= 19:
        return None
    return fields[19]


def _pid_was_recycled(pid: int, token: str | None) -> bool:
    """True when the live *pid* is provably a different process than the
    lock's recorder (recorded token present and differing from the live
    one); False when in doubt."""
    if token is None:
        return False
    live = _process_token(pid)
    if live is None:
        return False
    return live != token
