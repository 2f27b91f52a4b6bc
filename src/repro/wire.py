"""The one frame format: evolution log records, socket and pipe messages.

The WAL on disk (:mod:`repro.storage.wal`), node requests and log
shipping over sockets (:mod:`repro.node`, used by the farm and by
replication) and the ready handshake a node process sends over a
multiprocessing pipe (:func:`repro.node.spawn`) are all sequences of
frames (little-endian):

    +--------+--------+----------------------+
    | length | crc32  | payload (JSON bytes) |
    | 4 bytes| 4 bytes| *length* bytes       |
    +--------+--------+----------------------+

The payload is canonical JSON (compact, sorted keys), so one message
always encodes to one byte string: a replica re-encoding a decoded log
record reproduces the primary's bytes, which keeps replica logs
byte-identical prefixes of the primary's.  :data:`MAX_FRAME_BYTES`
caps a payload on both sides — an oversize message is refused before a
byte is written, and an oversize length in a header is corruption.
Pipes keep message boundaries; on sockets the length delimits frames.
A peer hanging up surfaces as :class:`WorkerDied`, anything malformed
as :class:`ProtocolError`.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import zlib
from typing import Dict, Optional, Tuple

from repro.errors import ReproError

__all__ = ["HEADER", "MAX_FRAME_BYTES", "ProtocolError", "WorkerDied",
           "decode", "decode_frame", "encode", "recv_frame",
           "recv_frame_sync", "recv_message", "send_frame",
           "send_frame_sync", "send_message"]

HEADER = struct.Struct("<II")  # payload length, payload crc32

#: Hard cap on one payload.  A whole-EDB farm excerpt of a large shard
#: is a few MB; anything near this is a runaway, not a workload.
MAX_FRAME_BYTES = 256 * 1024 * 1024


class ProtocolError(ReproError):
    """A malformed, oversize, or corrupt frame."""


class WorkerDied(ReproError):
    """The peer hung up mid-conversation (crashed or was killed)."""


def _check_length(length: int) -> int:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the "
                            f"{MAX_FRAME_BYTES}-byte cap")
    return length


def encode(message: Dict[str, object]) -> bytes:
    """Frame one message: header + canonical JSON payload."""
    payload = json.dumps(message, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    _check_length(len(payload))
    return HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode(data: bytes, offset: int = 0
           ) -> Optional[Tuple[Dict[str, object], int]]:
    """The frame starting at *offset*: ``(message, end offset)``.

    None while the frame is incomplete (more bytes may yet arrive);
    raises :class:`ProtocolError` when it can never become valid.
    """
    start = offset + HEADER.size
    if len(data) < start:
        return None
    length, checksum = HEADER.unpack_from(data, offset)
    _check_length(length)
    payload = data[start:start + length]
    if len(payload) < length:
        return None
    if zlib.crc32(payload) != checksum:
        raise ProtocolError("frame checksum mismatch")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"frame payload must be a JSON object, got "
                            f"{type(message).__name__}")
    return message, start + length


def decode_frame(data: bytes) -> Dict[str, object]:
    """Exactly one whole frame, e.g. one pipe message."""
    frame = decode(data)
    if frame is None or frame[1] != len(data):
        raise ProtocolError(f"{len(data)} bytes are not exactly one frame")
    return frame[0]


# -- pipes (multiprocessing connections keep message boundaries) -------------
# Only the ready handshake of a node process still crosses a pipe.


def send_message(conn, message: Dict[str, object]) -> None:
    """Frame and send one message over a multiprocessing connection."""
    try:
        conn.send_bytes(encode(message))
    except (BrokenPipeError, EOFError, OSError) as exc:
        raise WorkerDied(f"peer hung up while sending: {exc}") from None


def recv_message(conn, timeout: Optional[float] = None) -> Dict[str, object]:
    """Receive and verify one message; *timeout* (seconds) raises
    :class:`ProtocolError` on expiry, None blocks forever."""
    if timeout is not None and not conn.poll(timeout):
        raise ProtocolError(f"no frame within {timeout} seconds")
    try:
        data = conn.recv_bytes()
    except (EOFError, BrokenPipeError, OSError) as exc:
        raise WorkerDied(f"peer hung up while receiving: {exc}") from None
    return decode_frame(data)


# -- blocking sockets ---------------------------------------------------------


def send_frame_sync(sock: socket.socket, message: Dict[str, object]) -> None:
    """Frame and send one message on a blocking socket."""
    try:
        sock.sendall(encode(message))
    except (BrokenPipeError, ConnectionResetError, OSError) as exc:
        raise WorkerDied(f"peer hung up while sending: {exc}") from None


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks = []
    missing = count
    while missing:
        chunk = sock.recv(missing)
        if not chunk:
            raise WorkerDied(
                f"peer hung up mid-frame ({count - missing} bytes)")
        chunks.append(chunk)
        missing -= len(chunk)
    return b"".join(chunks)


def recv_frame_sync(sock: socket.socket,
                    timeout: Optional[float] = None) -> Dict[str, object]:
    """Receive one complete frame from a blocking socket.

    *timeout* bounds the whole frame (header + payload); ``None`` keeps
    the socket's current timeout.
    """
    if timeout is not None:
        sock.settimeout(timeout)
    try:
        header = _recv_exactly(sock, HEADER.size)
        payload = _recv_exactly(sock, _check_length(HEADER.unpack(header)[0]))
    except socket.timeout:
        raise ProtocolError(f"no frame within {timeout} seconds") from None
    except (ConnectionResetError, BrokenPipeError) as exc:
        raise WorkerDied(f"peer hung up while receiving: {exc}") from None
    return decode_frame(header + payload)


# -- asyncio streams ----------------------------------------------------------


async def send_frame(writer: asyncio.StreamWriter,
                     message: Dict[str, object]) -> None:
    """Frame and send one message on an asyncio stream."""
    try:
        writer.write(encode(message))
        await writer.drain()
    except (BrokenPipeError, ConnectionResetError, OSError) as exc:
        raise WorkerDied(f"peer hung up while sending: {exc}") from None


async def recv_frame(reader: asyncio.StreamReader) -> Dict[str, object]:
    """Receive one complete frame from an asyncio stream."""
    try:
        header = await reader.readexactly(HEADER.size)
        payload = await reader.readexactly(
            _check_length(HEADER.unpack(header)[0]))
    except asyncio.IncompleteReadError as exc:
        raise WorkerDied(
            f"peer hung up mid-frame ({len(exc.partial)} bytes)") from None
    except (ConnectionResetError, BrokenPipeError, OSError) as exc:
        raise WorkerDied(f"peer hung up while receiving: {exc}") from None
    return decode_frame(header + payload)
