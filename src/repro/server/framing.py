"""Length-prefixed binary wire framing for the gateway protocol.

The JSON-lines protocol spends most of its wire budget (and most of the
server's CPU) serializing one small object per *word*.  The paper's
fabric accepts a full frame per cycle; the binary framing lets the wire
speak the same language: one frame carries an **op** plus a bulk
``int64`` array sidecar, so a ``send_batch`` of 4096 words is one
20-byte header, a few dozen bytes of JSON metadata and one 32 KiB
array — not 4096 request lines.

Frame layout (all integers big-endian)::

    offset  size  field
    0       4     magic  b"BNB1"
    4       1     protocol major version
    5       1     protocol minor version
    6       2     opcode  (see repro.server.ops; 0 in responses = error)
    8       4     request id (echoed verbatim in the response)
    12      4     meta length in bytes   (UTF-8 JSON object)
    16      4     payload length in bytes (packed int64 arrays)
    20      ...   meta bytes, then payload bytes

The **meta** object is ordinary JSON — every field of the op request or
response that is not a bulk array.  The **payload** is the
concatenation of the frame's ``int64`` arrays in little-endian byte
order; the meta's reserved ``"_arrays"`` key maps field name to array
shape, in payload order, so the decoder can rebuild each field as a
zero-copy :func:`numpy.frombuffer` view over the received buffer.
Decoding a frame therefore yields **exactly** the dict the JSON
framing would have carried (arrays in place of lists) — the two
framings are interchangeable transports for the same op registry, and
the differential tests pin that.

Oversize protection mirrors the JSON side's ``MAX_LINE_BYTES``: a
header advertising more than :data:`MAX_FRAME_BYTES` of body is
refused before any allocation.  A client that sends garbage where the
magic should be was never speaking this framing — the server falls
back to the JSON-lines path, which answers a clean ``bad-request``.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Mapping, Tuple

import numpy as np

from ..exceptions import WireFormatError

__all__ = [
    "FrameHeader",
    "HEADER",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "decode_body",
    "encode_frame",
    "jsonable",
    "unpack_header",
]

#: Four bytes no JSON request can start with (JSON-lines requests open
#: with ``{``; the HTTP shim with ``GET``), so one ``recv`` of the first
#: bytes of a connection decides the framing.
MAGIC = b"BNB1"

#: The protocol spoken by this build.  Major bumps break framing or op
#: semantics (the server refuses a client hello with a newer major);
#: minor bumps only ever *add* ops, fields or features (unknown request
#: fields are ignored, so older servers keep working).
PROTOCOL_VERSION: Tuple[int, int] = (2, 0)

#: magic, major, minor, opcode, request id, meta bytes, payload bytes.
HEADER = struct.Struct("!4sBBHIII")

#: Refuse absurd frames before allocating for them — the binary
#: equivalent of the JSON side's ``MAX_LINE_BYTES``, sized for the
#: biggest sane batch (a million-word ``send_batch`` is ~8 MiB).
MAX_FRAME_BYTES = 1 << 24

#: Payload arrays travel as little-endian int64 regardless of host.
_ARRAY_DTYPE = np.dtype("<i8")


class FrameHeader:
    """One decoded binary frame header."""

    __slots__ = ("major", "minor", "opcode", "request_id", "meta_len", "payload_len")

    def __init__(
        self,
        major: int,
        minor: int,
        opcode: int,
        request_id: int,
        meta_len: int,
        payload_len: int,
    ) -> None:
        self.major = major
        self.minor = minor
        self.opcode = opcode
        self.request_id = request_id
        self.meta_len = meta_len
        self.payload_len = payload_len

    @property
    def body_len(self) -> int:
        return self.meta_len + self.payload_len

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (
            f"FrameHeader(v{self.major}.{self.minor}, opcode={self.opcode}, "
            f"id={self.request_id}, meta={self.meta_len}B, "
            f"payload={self.payload_len}B)"
        )


def unpack_header(raw: bytes) -> FrameHeader:
    """Decode and sanity-check one frame header.

    Raises :class:`~repro.exceptions.WireFormatError` on a bad magic,
    a short buffer, or a body length beyond :data:`MAX_FRAME_BYTES`.
    """
    if len(raw) < HEADER.size:
        raise WireFormatError(
            f"frame header needs {HEADER.size} bytes, got {len(raw)}"
        )
    magic, major, minor, opcode, request_id, meta_len, payload_len = (
        HEADER.unpack(raw[: HEADER.size])
    )
    if magic != MAGIC:
        raise WireFormatError(f"bad frame magic {magic!r}")
    if meta_len + payload_len > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame body of {meta_len + payload_len} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    if payload_len % _ARRAY_DTYPE.itemsize:
        raise WireFormatError(
            f"payload of {payload_len} bytes is not a whole number of "
            f"int64 words"
        )
    return FrameHeader(major, minor, opcode, request_id, meta_len, payload_len)


def encode_frame(
    opcode: int,
    body: Mapping[str, Any],
    request_id: int = 0,
    version: Tuple[int, int] = PROTOCOL_VERSION,
) -> bytes:
    """Encode one op request or response as a binary frame.

    Top-level :class:`numpy.ndarray` values of *body* ride the payload
    (as little-endian int64, shapes recorded in the meta's
    ``"_arrays"`` manifest); everything else rides the JSON meta.

    The frame is built by one ``bytes.join`` over the header, the meta
    and the contiguous arrays' buffers: one allocation.  Extra copies
    of a large response, freed together, make glibc trim the heap and
    fault the same pages back in on the next frame (see
    docs/performance.md, "The serving import boundary").
    """
    meta: Dict[str, Any] = {}
    manifest: Dict[str, Any] = {}
    arrays = []
    for key, value in body.items():
        if isinstance(value, np.ndarray):
            array = np.ascontiguousarray(value, dtype=_ARRAY_DTYPE)
            manifest[key] = list(array.shape)
            arrays.append(array)
        else:
            meta[key] = value
    if manifest:
        meta["_arrays"] = manifest
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    payload_len = sum(array.nbytes for array in arrays)
    if len(meta_bytes) + payload_len > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame body of {len(meta_bytes) + payload_len} bytes exceeds "
            f"the {MAX_FRAME_BYTES}-byte cap"
        )
    header = HEADER.pack(
        MAGIC,
        version[0],
        version[1],
        opcode,
        request_id & 0xFFFFFFFF,
        len(meta_bytes),
        payload_len,
    )
    return b"".join([header, meta_bytes, *arrays])


def decode_body(header: FrameHeader, body: bytes) -> Dict[str, Any]:
    """Rebuild the op dict from a frame's meta + payload bytes.

    Array fields come back as numpy views over *body* (zero copy): the
    caller that wants plain lists runs the result through
    :func:`jsonable`.
    """
    if len(body) != header.body_len:
        raise WireFormatError(
            f"frame body needs {header.body_len} bytes, got {len(body)}"
        )
    meta_bytes = body[: header.meta_len]
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireFormatError(f"malformed frame meta: {error}") from error
    if not isinstance(meta, dict):
        raise WireFormatError("frame meta must be a JSON object")
    manifest = meta.pop("_arrays", {})
    if not isinstance(manifest, dict):
        raise WireFormatError("'_arrays' manifest must be an object")
    view = memoryview(body)[header.meta_len :]
    offset = 0
    for key, shape in manifest.items():
        if not isinstance(shape, list) or not all(
            isinstance(axis, int) and axis >= 0 for axis in shape
        ):
            raise WireFormatError(
                f"array {key!r} has a malformed shape {shape!r}"
            )
        count = 1
        for axis in shape:
            count *= axis
        nbytes = count * _ARRAY_DTYPE.itemsize
        if offset + nbytes > len(view):
            raise WireFormatError(
                f"array {key!r} overruns the payload "
                f"({offset + nbytes} > {len(view)} bytes)"
            )
        array = np.frombuffer(
            view, dtype=_ARRAY_DTYPE, count=count, offset=offset
        )
        meta[key] = array.reshape(shape)
        offset += nbytes
    if offset != len(view):
        raise WireFormatError(
            f"{len(view) - offset} payload byte(s) left over after the "
            f"'_arrays' manifest"
        )
    return meta


def jsonable(value: Any) -> Any:
    """Recursively turn numpy arrays/scalars into plain JSON values.

    Applied to op results before JSON-lines serialization, and useful
    in tests to compare what the two framings delivered.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {key: jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    return value
