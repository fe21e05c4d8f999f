"""Length-prefixed binary wire protocol of the PIR shard service.

Everything on the wire is stdlib ``struct`` framing — no serialization
dependency, matching the package's bare-interpreter invariant (I3).  A
frame is a 4-byte big-endian payload length followed by the payload; the
payload is one message:

* request  — ``u8 opcode`` + body.  ``HELLO`` carries nothing; ``ANSWER``
  carries a file name and a batch of subset masks (arbitrary-precision
  integers, shipped as length-prefixed big-endian byte strings).
* response — ``u8 status`` + body.  ``OK`` answers carry the shard
  metadata (for ``HELLO``) or the answer blocks (for ``ANSWER``);
  ``BUSY`` is the admission-control backpressure signal (retry later);
  ``ERROR`` carries a human-readable reason.

Responses are returned in request order on each connection, so a client
may pipeline requests without correlation ids.  Every decode path is
bounded: frame, name, mask and block sizes are capped and a violation
raises :class:`WireError` before any allocation proportional to the
attacker-supplied length.  Crucially, the protocol carries only subset
masks — never logical page numbers — so the transport layer adds no
query-plaintext surface beyond what a PIR server already sees.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from ..exceptions import PirError

#: Hard cap on a single frame's payload (requests and responses).
MAX_FRAME_BYTES = 32 * 1024 * 1024
#: Cap on an encoded file name.
MAX_NAME_BYTES = 1024
#: Cap on one encoded subset mask (supports databases up to 2**24 blocks).
MAX_MASK_BYTES = 2 * 1024 * 1024
#: Cap on the number of masks in one ANSWER request.
MAX_MASKS_PER_REQUEST = 65536

_HEADER = struct.Struct(">I")
#: Bytes of the fixed frame header (the payload-length prefix).
HEADER_SIZE = _HEADER.size
_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")

#: Request opcodes.
OP_HELLO = 1
OP_ANSWER = 2

#: Response status codes.
ST_OK = 0
ST_BUSY = 1
ST_ERROR = 2


class WireError(PirError):
    """Raised for malformed, truncated or oversized wire messages."""


class ServerBusy(PirError):
    """Raised client-side when the server answered ``BUSY`` (backpressure)."""


class RemoteServerError(PirError):
    """Raised client-side when the server answered ``ERROR``."""


@dataclass(frozen=True)
class HelloRequest:
    """Asks a shard server for its identity and layout."""


@dataclass(frozen=True)
class AnswerRequest:
    """Asks a shard server to answer a batch of subset masks over one file."""

    file_name: str
    masks: Tuple[int, ...]


Request = Union[HelloRequest, AnswerRequest]


@dataclass(frozen=True)
class FileInfo:
    """One page file as a shard server holds it: its local slice size."""

    name: str
    num_pages: int
    page_size: int


@dataclass(frozen=True)
class ShardInfo:
    """A shard server's self-description, answered to ``HELLO``."""

    shard_id: int
    num_shards: int
    strategy: str
    kernel: str
    files: Tuple[FileInfo, ...]


# ---------------------------------------------------------------------- #
# framing
# ---------------------------------------------------------------------- #
def decode_frame_length(
    header: bytes, max_frame_bytes: int = MAX_FRAME_BYTES
) -> int:
    """Payload length announced by a 4-byte frame header (cap-checked)."""
    if len(header) != HEADER_SIZE:
        raise WireError(f"frame header must be {HEADER_SIZE} bytes, got {len(header)}")
    (length,) = _HEADER.unpack(header)
    if length > max_frame_bytes:
        raise WireError(
            f"announced frame payload of {length} bytes exceeds the "
            f"{max_frame_bytes}-byte frame cap"
        )
    return int(length)


def encode_frame(payload: bytes, max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """The on-wire bytes of one frame carrying ``payload``."""
    if len(payload) > max_frame_bytes:
        raise WireError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{max_frame_bytes}-byte frame cap"
        )
    return _HEADER.pack(len(payload)) + payload


# ---------------------------------------------------------------------- #
# primitive field packing
# ---------------------------------------------------------------------- #
class _Writer:
    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def u8(self, value: int) -> None:
        self._parts.append(_U8.pack(value))

    def u16(self, value: int) -> None:
        self._parts.append(_U16.pack(value))

    def u32(self, value: int) -> None:
        self._parts.append(_U32.pack(value))

    def text(self, value: str) -> None:
        encoded = value.encode("utf-8")
        if len(encoded) > MAX_NAME_BYTES:
            raise WireError(
                f"name of {len(encoded)} bytes exceeds the "
                f"{MAX_NAME_BYTES}-byte name cap"
            )
        self.u16(len(encoded))
        self._parts.append(encoded)

    def blob(self, value: bytes, cap: int) -> None:
        if len(value) > cap:
            raise WireError(
                f"field of {len(value)} bytes exceeds its {cap}-byte cap"
            )
        self.u32(len(value))
        self._parts.append(value)

    def done(self) -> bytes:
        return b"".join(self._parts)


class _Reader:
    __slots__ = ("_payload", "_offset")

    def __init__(self, payload: bytes) -> None:
        self._payload = payload
        self._offset = 0

    def _take(self, count: int) -> bytes:
        end = self._offset + count
        if end > len(self._payload):
            raise WireError(
                f"truncated message: wanted {count} more bytes at offset "
                f"{self._offset}, payload holds {len(self._payload)}"
            )
        piece = self._payload[self._offset : end]
        self._offset = end
        return piece

    def u8(self) -> int:
        return int(_U8.unpack(self._take(_U8.size))[0])

    def u16(self) -> int:
        return int(_U16.unpack(self._take(_U16.size))[0])

    def u32(self) -> int:
        return int(_U32.unpack(self._take(_U32.size))[0])

    def text(self) -> str:
        length = self.u16()
        if length > MAX_NAME_BYTES:
            raise WireError(
                f"name of {length} bytes exceeds the {MAX_NAME_BYTES}-byte name cap"
            )
        try:
            return self._take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"name is not valid UTF-8: {exc}") from None

    def blob(self, cap: int) -> bytes:
        length = self.u32()
        if length > cap:
            raise WireError(f"field of {length} bytes exceeds its {cap}-byte cap")
        return self._take(length)

    def expect_end(self) -> None:
        if self._offset != len(self._payload):
            raise WireError(
                f"{len(self._payload) - self._offset} trailing bytes after message"
            )


def _encode_mask(writer: _Writer, mask: int) -> None:
    if mask < 0:
        raise WireError("subset masks are non-negative integers")
    writer.blob(mask.to_bytes((mask.bit_length() + 7) // 8, "big"), MAX_MASK_BYTES)


# ---------------------------------------------------------------------- #
# requests
# ---------------------------------------------------------------------- #
def encode_hello_request() -> bytes:
    writer = _Writer()
    writer.u8(OP_HELLO)
    return writer.done()


def encode_answer_request(file_name: str, masks: Sequence[int]) -> bytes:
    if len(masks) > MAX_MASKS_PER_REQUEST:
        raise WireError(
            f"{len(masks)} masks exceed the {MAX_MASKS_PER_REQUEST}-mask "
            "per-request cap"
        )
    writer = _Writer()
    writer.u8(OP_ANSWER)
    writer.text(file_name)
    writer.u32(len(masks))
    for mask in masks:
        _encode_mask(writer, mask)
    return writer.done()


def decode_request(payload: bytes) -> Request:
    reader = _Reader(payload)
    opcode = reader.u8()
    if opcode == OP_HELLO:
        reader.expect_end()
        return HelloRequest()
    if opcode == OP_ANSWER:
        file_name = reader.text()
        count = reader.u32()
        if count > MAX_MASKS_PER_REQUEST:
            raise WireError(
                f"{count} masks exceed the {MAX_MASKS_PER_REQUEST}-mask "
                "per-request cap"
            )
        masks = tuple(
            int.from_bytes(reader.blob(MAX_MASK_BYTES), "big") for _ in range(count)
        )
        reader.expect_end()
        return AnswerRequest(file_name=file_name, masks=masks)
    raise WireError(f"unknown request opcode {opcode}")


# ---------------------------------------------------------------------- #
# responses
# ---------------------------------------------------------------------- #
def encode_hello_ok(info: ShardInfo) -> bytes:
    writer = _Writer()
    writer.u8(ST_OK)
    writer.u16(info.shard_id)
    writer.u16(info.num_shards)
    writer.text(info.strategy)
    writer.text(info.kernel)
    writer.u16(len(info.files))
    for file_info in info.files:
        writer.text(file_info.name)
        writer.u32(file_info.num_pages)
        writer.u32(file_info.page_size)
    return writer.done()


def encode_answer_ok(blocks: Sequence[bytes]) -> bytes:
    writer = _Writer()
    writer.u8(ST_OK)
    writer.u32(len(blocks))
    for block in blocks:
        writer.blob(bytes(block), MAX_MASK_BYTES)
    return writer.done()


def encode_busy(message: str) -> bytes:
    writer = _Writer()
    writer.u8(ST_BUSY)
    writer.text(message)
    return writer.done()


def encode_error(message: str) -> bytes:
    writer = _Writer()
    writer.u8(ST_ERROR)
    writer.text(message)
    return writer.done()


def _check_status(reader: _Reader) -> None:
    status = reader.u8()
    if status == ST_OK:
        return
    if status == ST_BUSY:
        raise ServerBusy(reader.text())
    if status == ST_ERROR:
        raise RemoteServerError(reader.text())
    raise WireError(f"unknown response status {status}")


def decode_hello_response(payload: bytes) -> ShardInfo:
    reader = _Reader(payload)
    _check_status(reader)
    shard_id = reader.u16()
    num_shards = reader.u16()
    strategy = reader.text()
    kernel = reader.text()
    files = tuple(
        FileInfo(name=reader.text(), num_pages=reader.u32(), page_size=reader.u32())
        for _ in range(reader.u16())
    )
    reader.expect_end()
    return ShardInfo(
        shard_id=shard_id,
        num_shards=num_shards,
        strategy=strategy,
        kernel=kernel,
        files=files,
    )


def decode_answer_response(payload: bytes) -> List[bytes]:
    reader = _Reader(payload)
    _check_status(reader)
    blocks = [reader.blob(MAX_MASK_BYTES) for _ in range(reader.u32())]
    reader.expect_end()
    return blocks
