"""Zero-copy framed wire codec + per-round message coalescing.

Every inter-server message is charged at the size of its frame in this
codec:

* **Frame codec** — ``encode_frame`` / ``decode_frame`` serialize a
  message as a fixed header (magic, tag, part kinds, dtype, shape)
  followed by the raw ``tobytes()`` buffers of its arrays.  Encoding is
  zero-copy: array bodies travel as memoryviews into the original
  buffers, and decoding returns ``np.frombuffer`` views into the
  received frame.  Parts are numeric arrays, bytes, str, int, None and
  lists/tuples of parts; any other leaf raises :class:`TransportError`
  — nothing is pickled, so wire bytes are never unpickled.  Malformed
  frames raise :class:`TransportError` and nothing else.
* **Exact sizing** — :func:`frame_sizes` computes a frame's wire size
  from the part headers and each array's ``nbytes``, without building
  or copying anything, split into body (raw buffer bytes) and overhead
  (headers).
* **Fast checksums** — :func:`payload_checksum` CRCs the frame chunks
  incrementally (raw array buffers, no per-message ``pickle.dumps``).
* **Round coalescing** — :class:`RoundCoalescer` packs same-round
  messages per directed link into one framed message (the Eq. 5 E/F
  pair being the dominant case), amortizing per-message latency.  A
  packed frame's body is the exact concatenation of its parts' bodies.

The *canonical encoding* used for transcript digests
(:func:`canonical_bytes`) also lives here — it predates the frame codec
and its byte format is pinned by committed reference transcripts, so it
is kept verbatim and re-exported by :mod:`repro.audit.transcript`.
"""

from __future__ import annotations

import hashlib
import math
import pickle
import re
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Iterator, NamedTuple

import numpy as np

from repro.util.errors import TransportError

# --------------------------------------------------------------------------
# Canonical encoding (transcript digests).  BYTE FORMAT IS PINNED: committed
# reference transcripts (tests/data/*.json) store digests over exactly these
# bytes — change the frame codec freely, never this encoding.
# --------------------------------------------------------------------------


def iter_arrays(obj: Any) -> Iterator[np.ndarray]:
    """Yield every ndarray reachable inside ``obj`` (depth-first).

    Mirrors the traversal the fault injector uses when corrupting
    payloads, so the auditor sees exactly the mutable wire content.
    """
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from iter_arrays(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from iter_arrays(v)
    elif hasattr(obj, "__dict__"):
        for v in vars(obj).values():
            yield from iter_arrays(v)


def canonical_bytes(payload: Any) -> bytes:
    """A deterministic byte encoding of a message payload.

    Arrays hash as ``dtype|shape|buffer`` so a reshape or cast can never
    collide with the original; everything else falls back to pickle at a
    pinned protocol version.
    """
    if isinstance(payload, np.ndarray):
        arr = np.ascontiguousarray(payload)
        header = f"ndarray|{arr.dtype.str}|{arr.shape}|".encode()
        return header + arr.tobytes()
    if isinstance(payload, (bytes, bytearray)):
        return b"bytes|" + bytes(payload)
    if isinstance(payload, (list, tuple)) and payload and all(
        isinstance(p, np.ndarray) for p in payload
    ):
        return b"seq|" + b"".join(canonical_bytes(p) for p in payload)
    return b"pickle|" + pickle.dumps(payload, protocol=4)


def content_bytes(payload: Any) -> bytes:
    """The raw observable buffer bytes of ``payload`` (for wire audits)."""
    if isinstance(payload, (bytes, bytearray)):
        return bytes(payload)
    return b"".join(np.ascontiguousarray(a).tobytes() for a in iter_arrays(payload))


def payload_digest(payload: Any) -> str:
    return hashlib.blake2b(canonical_bytes(payload), digest_size=16).hexdigest()


# --------------------------------------------------------------------------
# Frame codec
# --------------------------------------------------------------------------

#: Frame magic: "RePro Wire" + format version.
MAGIC = b"RPW2"

_KIND_ND = 0
_KIND_BYTES = 1
_KIND_LIST = 2
_KIND_TUPLE = 3
_KIND_NONE = 4
_KIND_STR = 5
_KIND_INT = 6

#: Array dtype kinds a frame carries: bool, signed/unsigned int, float,
#: complex.  Object, string, datetime and structured dtypes are refused.
_ND_KINDS = "biufc"
_ND_DTYPE = re.compile(rb"[<>|][biufc][0-9]{1,2}")
#: Deepest list/tuple nesting a frame may carry (bounds the recursive
#: decoder on hostile input).
MAX_DEPTH = 32
#: Fixed bytes before the tag: magic, flags byte, u16 tag length.
_FRAME_HEAD = len(MAGIC) + 1 + 2

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")


def _array_body(arr: np.ndarray) -> memoryview:
    """A flat byte view of an array's C-order buffer (copies only if strided)."""
    if arr.size == 0:
        return memoryview(b"")
    return memoryview(np.ascontiguousarray(arr)).cast("B")


def _unsupported(payload: Any) -> TransportError:
    return TransportError(f"frame part of type {type(payload).__name__} is not encodable")


def _check_array(arr: np.ndarray) -> None:
    if arr.dtype.kind not in _ND_KINDS:
        raise TransportError(f"frame cannot carry arrays of dtype {arr.dtype}")


def _check_int(value: int) -> None:
    if not -(2**63) <= value < 2**63:
        raise TransportError(f"frame int part {value} does not fit in 64 bits")


def _check_depth(depth: int) -> None:
    if depth > MAX_DEPTH:
        raise TransportError(f"frame nesting deeper than {MAX_DEPTH}")


def _emit(payload: Any, chunks: list, depth: int = 0) -> None:
    """Append one payload's encoded chunks.

    Header chunks are ``bytes``, raw buffer bodies are ``memoryview`` —
    a chunk's type says which side of the body/overhead split it lands
    on (:func:`frame_sizes` computes the same split without chunks).
    """
    if isinstance(payload, np.ndarray):
        _check_array(payload)
        dt = payload.dtype.str.encode("ascii")
        head = bytearray(_U8.pack(_KIND_ND))
        head += _U8.pack(len(dt))
        head += dt
        head += _U8.pack(payload.ndim)
        for dim in payload.shape:
            head += _I64.pack(dim)
        chunks.append(bytes(head))
        chunks.append(_array_body(payload))
        return
    if isinstance(payload, (bytes, bytearray)):
        chunks.append(_U8.pack(_KIND_BYTES) + _U64.pack(len(payload)))
        chunks.append(memoryview(bytes(payload)))
        return
    if isinstance(payload, (list, tuple)):
        _check_depth(depth + 1)
        kind = _KIND_LIST if isinstance(payload, list) else _KIND_TUPLE
        chunks.append(_U8.pack(kind) + _U32.pack(len(payload)))
        for item in payload:
            _emit(item, chunks, depth + 1)
        return
    if payload is None:
        chunks.append(_U8.pack(_KIND_NONE))
        return
    if isinstance(payload, str):
        body = payload.encode("utf-8")
        chunks.append(_U8.pack(_KIND_STR) + _U32.pack(len(body)) + body)
        return
    if type(payload) is int:
        _check_int(payload)
        chunks.append(_U8.pack(_KIND_INT) + _I64.pack(payload))
        return
    raise _unsupported(payload)


def _part_sizes(payload: Any, depth: int = 0) -> tuple[int, int]:
    """``(total, body)`` bytes :func:`_emit` would produce for ``payload``."""
    if isinstance(payload, np.ndarray):
        _check_array(payload)
        # kind, dtype-string length and ndim bytes, the dtype string
        # (byte order, kind, itemsize digits: 3 chars as "<u8", 4 as
        # "<c16") and one i64 per dim; counting the itemsize digits
        # avoids building dtype.str for every message
        head = 6 + (payload.itemsize >= 10) + 8 * payload.ndim
        return head + payload.nbytes, payload.nbytes
    if isinstance(payload, (bytes, bytearray)):
        return 9 + len(payload), len(payload)
    if isinstance(payload, (list, tuple)):
        _check_depth(depth + 1)
        total, body = 5, 0
        for item in payload:
            t, b = _part_sizes(item, depth + 1)
            total += t
            body += b
        return total, body
    if payload is None:
        return 1, 0
    if isinstance(payload, str):
        return 5 + len(payload.encode("utf-8")), 0
    if type(payload) is int:
        _check_int(payload)
        return 9, 0
    raise _unsupported(payload)


def _tag_bytes(tag: str) -> bytes:
    tag_bytes = tag.encode("utf-8")
    if len(tag_bytes) > 0xFFFF:
        raise TransportError(f"frame tag too long ({len(tag_bytes)} bytes)")
    return tag_bytes


def _frame_chunks(tag: str, payload: Any) -> list:
    tag_bytes = _tag_bytes(tag)
    chunks: list = [MAGIC + _U8.pack(0) + _U16.pack(len(tag_bytes)) + tag_bytes]
    _emit(payload, chunks)
    return chunks


def encode_frame(tag: str, payload: Any) -> bytes:
    """Serialize one message as a framed byte string."""
    return b"".join(_frame_chunks(tag, payload))


class FramedSizes(NamedTuple):
    """Exact wire size of a frame, split body vs header overhead.

    A named tuple, not a dataclass: one is built per charged message.
    """

    nbytes: int
    body_nbytes: int

    @property
    def overhead_nbytes(self) -> int:
        return self.nbytes - self.body_nbytes


def frame_sizes(tag: str, payload: Any) -> FramedSizes:
    """Wire size of ``encode_frame(tag, payload)`` without building it.

    Body = raw buffer bytes (array and bytes parts); overhead =
    everything else (magic, tag, kinds, dtypes, shapes, counts).
    Arrays are sized from their headers and ``nbytes`` — no body is
    touched, so a strided operand costs what a contiguous one does.
    """
    total, body = _part_sizes(payload)
    return FramedSizes(_FRAME_HEAD + len(_tag_bytes(tag)) + total, body)


def blob_frame_sizes(tag: str, nbytes: int) -> FramedSizes:
    """Framed size of an opaque ``nbytes`` blob (size-only rounds).

    The GMW comparison traffic is costed in aggregate — its per-round
    bit content is never materialized — so it frames as one BYTES part.
    """
    header = _FRAME_HEAD + len(_tag_bytes(tag)) + 1 + 8
    return FramedSizes(header + int(nbytes), int(nbytes))


def payload_checksum(payload: Any) -> int:
    """CRC-32 over the framed encoding of ``payload``.

    Accumulated chunk-by-chunk: array buffers are hashed raw and never
    pass through ``pickle.dumps`` (the historical per-frame hotspot).
    Payloads the codec cannot frame raise :class:`TransportError`.  Checksums are
    compared within one process only — no cross-version stability is
    promised (transcript digests, which *are* pinned, use
    :func:`canonical_bytes`).
    """
    crc = 0
    for chunk in _frame_chunks("", payload):
        crc = zlib.crc32(chunk, crc)
    return crc


class _FrameReader:
    """Sequential parser over one encoded frame."""

    def __init__(self, data, copy: bool):
        self._view = memoryview(data).cast("B")
        self._pos = 0
        self._copy = copy

    def take(self, n: int) -> memoryview:
        if self._pos + n > len(self._view):
            raise TransportError("truncated frame")
        out = self._view[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return _U8.unpack(self.take(1))[0]

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def i64(self) -> int:
        return _I64.unpack(self.take(8))[0]

    @property
    def exhausted(self) -> bool:
        return self._pos == len(self._view)

    def value(self, depth: int = 0) -> Any:
        kind = self.u8()
        if kind == _KIND_ND:
            dt_str = bytes(self.take(self.u8()))
            if not _ND_DTYPE.fullmatch(dt_str):
                raise TransportError(f"frame array dtype {dt_str!r} not allowed")
            dt = np.dtype(dt_str.decode("ascii"))
            shape = tuple(self.i64() for _ in range(self.u8()))
            if any(dim < 0 for dim in shape):
                raise TransportError(f"negative frame array shape {shape}")
            body = self.take(dt.itemsize * math.prod(shape))
            arr = np.frombuffer(body, dtype=dt).reshape(shape)
            return arr.copy() if self._copy else arr
        if kind == _KIND_BYTES:
            return bytes(self.take(self.u64()))
        if kind in (_KIND_LIST, _KIND_TUPLE):
            _check_depth(depth + 1)
            items = [self.value(depth + 1) for _ in range(self.u32())]
            return items if kind == _KIND_LIST else tuple(items)
        if kind == _KIND_NONE:
            return None
        if kind == _KIND_STR:
            return bytes(self.take(self.u32())).decode("utf-8")
        if kind == _KIND_INT:
            return self.i64()
        raise TransportError(f"unknown frame part kind {kind}")


def decode_frame(data, *, copy: bool = False) -> tuple[str, Any]:
    """Parse one frame back into ``(tag, payload)``.

    With ``copy=False`` (default) decoded arrays are read-only
    ``np.frombuffer`` views into ``data`` — zero-copy; pass
    ``copy=True`` for independent writable arrays.  Any malformed
    input raises :class:`TransportError`.
    """
    try:
        reader = _FrameReader(data, copy)
        if bytes(reader.take(len(MAGIC))) != MAGIC:
            raise TransportError("bad frame magic")
        reader.u8()  # flags (reserved)
        tag = bytes(reader.take(reader.u16())).decode("utf-8")
        payload = reader.value()
    except (ValueError, TypeError, struct.error) as exc:
        # UnicodeDecodeError is a ValueError; numpy rejects impossible
        # dtype/shape combinations with ValueError or TypeError.
        raise TransportError(f"malformed frame: {exc}") from exc
    if not reader.exhausted:
        raise TransportError("trailing bytes after frame payload")
    return tag, payload


# --------------------------------------------------------------------------
# Round coalescing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PackedFrame:
    """All of one directed link's messages for one round, as one frame.

    The encoded form is a frame whose payload is the tuple of
    ``(tag, payload)`` pairs in send order, so the packed body is the
    exact concatenation of the parts' bodies — unpacking preserves both
    order and bits.
    """

    src: str
    dst: str
    round_id: str
    parts: tuple[tuple[str, Any], ...]

    @property
    def n_parts(self) -> int:
        return len(self.parts)

    @property
    def sizes(self) -> FramedSizes:
        return frame_sizes(self.round_id, self.parts)

    def encode(self) -> bytes:
        return encode_frame(self.round_id, self.parts)


def unpack_frame(data, *, copy: bool = False) -> tuple[str, tuple[tuple[str, Any], ...]]:
    """Inverse of :meth:`PackedFrame.encode`: ``(round_id, parts)``."""
    round_id, parts = decode_frame(data, copy=copy)
    return round_id, tuple(parts)


class RoundCoalescer:
    """Collects one round's sends and packs them per directed link.

    Protocol code ``add``s every message of a round (send order
    preserved per link), then ``flush``es to get one
    :class:`PackedFrame` per ``(src, dst)`` — links in first-send
    order.  The coalescer is pure packing machinery: charging the
    packed frame on a channel and recording it stays with the caller.
    """

    def __init__(self, round_id: str):
        self.round_id = round_id
        self._pending: dict[tuple[str, str], list[tuple[str, Any]]] = {}

    def __len__(self) -> int:
        return sum(len(parts) for parts in self._pending.values())

    def add(self, src: str, dst: str, tag: str, payload: Any) -> None:
        if src == dst:
            raise TransportError(f"coalescer: src == dst ({src!r})")
        self._pending.setdefault((src, dst), []).append((tag, payload))

    def flush(self) -> list[PackedFrame]:
        frames = [
            PackedFrame(src=src, dst=dst, round_id=self.round_id, parts=tuple(parts))
            for (src, dst), parts in self._pending.items()
        ]
        self._pending.clear()
        return frames


__all__ = [
    "MAGIC",
    "MAX_DEPTH",
    "FramedSizes",
    "PackedFrame",
    "RoundCoalescer",
    "blob_frame_sizes",
    "canonical_bytes",
    "content_bytes",
    "decode_frame",
    "encode_frame",
    "frame_sizes",
    "iter_arrays",
    "payload_checksum",
    "payload_digest",
    "unpack_frame",
]
