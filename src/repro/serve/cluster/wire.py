"""Length-prefixed binary frame protocol between supervisor and workers.

One frame is one request or one response::

    u32  frame length (bytes past this field)
    u8   frame format version (:data:`FRAME_FORMAT_VERSION`; a peer
         speaking another revision gets a clean :class:`WireError`,
         not a decode crash)
    u8   verb (:class:`Verb`)
    u64  request id (echoed by the response; lets a receiver discard a
         stale response after a timed-out request)
    u32  CRC-32 of the version, verb, request-id and payload bytes —
         the whole frame past the length prefix, so a bit flip in any
         header field is detected, not just payload damage
    ...  payload (see below)

The payload is self-describing stdlib data, not pickle: a JSON document
for the structured part plus a struct-framed blob table for binary
values (snapshot bytes, tree payloads).  ``bytes`` values anywhere in
the object tree are replaced by ``{"__blob__": i}`` references into the
table; real dicts that happen to use a reserved key are escaped as
``{"__esc__": {...}}``.  Layout after the header::

    u32  JSON length, then the UTF-8 JSON bytes
    u32  blob count, then per blob: u32 length + raw bytes

Frames travel over a :class:`multiprocessing.Pipe` connection
(:class:`PipeTransport` — the connection's own message framing carries
whole frames; the length prefix is kept so a frame is self-delimiting
on any byte stream).
A checksum mismatch, a truncated frame, a version mismatch or an
unknown verb raises :class:`WireError`; EOF on the underlying channel
raises plain :class:`EOFError` so the supervisor can tell "peer died"
from "peer sent garbage" — the two failure families drive different
recovery (respawn vs retry on the same pipe).
"""

from __future__ import annotations

import json
import struct
import zlib
from enum import IntEnum

from repro.errors import WarehouseError

__all__ = [
    "FRAME_FORMAT_VERSION",
    "PipeTransport",
    "Verb",
    "WireError",
    "decode_frame",
    "encode_frame",
]

#: Bumped whenever the header or payload layout changes; a decoder
#: rejects other revisions instead of misreading their bytes.
FRAME_FORMAT_VERSION = 2


class WireError(WarehouseError):
    """A malformed frame: bad checksum, truncation, version or verb."""


class Verb(IntEnum):
    """Frame kinds.  Requests flow supervisor → worker; every request
    is answered by exactly one OK or ERR frame with the same id."""

    # requests
    QUERY = 1
    UPDATE = 2
    CREATE = 3
    STATS = 4
    HEALTH = 5
    DRAIN = 6
    SYNC_PULL = 9
    SYNC_PUSH = 10
    # responses / lifecycle
    READY = 16
    OK = 17
    ERR = 18


_HEADER = struct.Struct("<BBQ")  # format version, verb, request id
_CRC = struct.Struct("<I")
_LENGTH = struct.Struct("<I")
_BLOB_KEY = "__blob__"
_ESCAPE_KEY = "__esc__"


def _to_wire(value, blobs: list[bytes]):
    """*value* as JSON-encodable data; bytes move into the blob table."""
    if isinstance(value, bool) or value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        blobs.append(bytes(value))
        return {_BLOB_KEY: len(blobs) - 1}
    if isinstance(value, (list, tuple)):
        return [_to_wire(item, blobs) for item in value]
    if isinstance(value, dict):
        converted = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise WireError(
                    f"frame payload keys must be strings, got {key!r}"
                )
            converted[key] = _to_wire(item, blobs)
        if _BLOB_KEY in converted or _ESCAPE_KEY in converted:
            return {_ESCAPE_KEY: converted}
        return converted
    raise WireError(
        f"frame payload value of type {type(value).__name__} is not encodable"
    )


def _from_wire(value, blobs: list[bytes]):
    if isinstance(value, list):
        return [_from_wire(item, blobs) for item in value]
    if isinstance(value, dict):
        if len(value) == 1:
            if _BLOB_KEY in value:
                index = value[_BLOB_KEY]
                if not isinstance(index, int) or not 0 <= index < len(blobs):
                    raise WireError(f"frame blob reference {index!r} out of range")
                return blobs[index]
            if _ESCAPE_KEY in value:
                inner = value[_ESCAPE_KEY]
                if not isinstance(inner, dict):
                    raise WireError("frame escape marker must wrap an object")
                return {k: _from_wire(v, blobs) for k, v in inner.items()}
        return {k: _from_wire(v, blobs) for k, v in value.items()}
    return value


def _pack_payload(payload: object) -> bytes:
    blobs: list[bytes] = []
    try:
        text = json.dumps(
            _to_wire(payload, blobs),
            separators=(",", ":"),
            allow_nan=False,
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireError(f"frame payload is not JSON-encodable: {exc}") from exc
    parts = [_LENGTH.pack(len(text)), text, _LENGTH.pack(len(blobs))]
    for blob in blobs:
        parts.append(_LENGTH.pack(len(blob)))
        parts.append(blob)
    return b"".join(parts)


def _unpack_payload(body: bytes) -> object:
    view = memoryview(body)
    offset = 0

    def take(n: int) -> memoryview:
        nonlocal offset
        if offset + n > len(view):
            raise WireError("frame payload truncated")
        chunk = view[offset : offset + n]
        offset += n
        return chunk

    (json_length,) = _LENGTH.unpack(take(_LENGTH.size))
    try:
        decoded = json.loads(bytes(take(json_length)).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"frame payload is not valid JSON: {exc}") from exc
    (blob_count,) = _LENGTH.unpack(take(_LENGTH.size))
    blobs: list[bytes] = []
    for _ in range(blob_count):
        (blob_length,) = _LENGTH.unpack(take(_LENGTH.size))
        blobs.append(bytes(take(blob_length)))
    if offset != len(view):
        raise WireError(
            f"frame payload has {len(view) - offset} trailing bytes"
        )
    return _from_wire(decoded, blobs)


def encode_frame(verb: Verb, request_id: int, payload: object) -> bytes:
    """One wire frame, length prefix included."""
    body = _pack_payload(payload)
    header = _HEADER.pack(FRAME_FORMAT_VERSION, int(verb), request_id)
    checksum = zlib.crc32(body, zlib.crc32(header))
    return b"".join(
        (
            _LENGTH.pack(_HEADER.size + _CRC.size + len(body)),
            header,
            _CRC.pack(checksum),
            body,
        )
    )


def decode_frame(frame: bytes) -> tuple[Verb, int, object]:
    """Decode one frame (length prefix included); verifies the checksum."""
    prefix = _LENGTH.size
    if len(frame) < prefix + _HEADER.size + _CRC.size:
        raise WireError(f"frame too short ({len(frame)} bytes)")
    (length,) = _LENGTH.unpack_from(frame)
    if length != len(frame) - prefix:
        raise WireError(
            f"frame length mismatch: prefix says {length}, got {len(frame) - prefix}"
        )
    version, verb_value, request_id = _HEADER.unpack_from(frame, prefix)
    if version != FRAME_FORMAT_VERSION:
        raise WireError(
            f"frame format version {version} != {FRAME_FORMAT_VERSION} "
            "(mismatched peer?)"
        )
    (checksum,) = _CRC.unpack_from(frame, prefix + _HEADER.size)
    body = frame[prefix + _HEADER.size + _CRC.size :]
    if zlib.crc32(body, zlib.crc32(frame[prefix : prefix + _HEADER.size])) != checksum:
        raise WireError("frame failed its checksum")
    try:
        verb = Verb(verb_value)
    except ValueError:
        raise WireError(f"unknown verb {verb_value}") from None
    return verb, request_id, _unpack_payload(body)


class PipeTransport:
    """Frames over a :class:`multiprocessing.connection.Connection`.

    The connection's message framing delivers whole frames; ``recv``
    honours an optional timeout via ``poll`` and raises
    :class:`TimeoutError` without consuming anything.
    """

    __slots__ = ("_conn",)

    def __init__(self, conn) -> None:
        self._conn = conn

    def send(self, verb: Verb, request_id: int, payload: object) -> None:
        self._conn.send_bytes(encode_frame(verb, request_id, payload))

    def recv_bytes(self, timeout: float | None = None) -> bytes:
        """The next raw frame; raises EOFError when the peer is gone and
        TimeoutError when *timeout* elapses first."""
        if timeout is not None and not self._conn.poll(timeout):
            raise TimeoutError("no frame within the timeout")
        return self._conn.recv_bytes()

    def recv(self, timeout: float | None = None) -> tuple[Verb, int, object]:
        return decode_frame(self.recv_bytes(timeout))

    def poll(self, timeout: float = 0.0) -> bool:
        return self._conn.poll(timeout)

    def close(self) -> None:
        self._conn.close()

    @property
    def closed(self) -> bool:
        return self._conn.closed
