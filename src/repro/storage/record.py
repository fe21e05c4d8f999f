"""Binary record codecs used when laying data out on disk pages.

The encodings are intentionally simple and compact:

* unsigned 32-bit integers for node/region identifiers and page numbers,
* IEEE-754 32-bit floats for coordinates and edge weights,
* LEB128-style varints for small counts (list lengths, delta sizes).

:class:`RecordWriter` and :class:`RecordReader` wrap these primitives with a
sequential interface so that file builders and the querying client agree on
layouts by construction.
"""

from __future__ import annotations

import math
import struct
from typing import Any, List, Sequence

from ..exceptions import StorageError

UINT32 = struct.Struct("<I")
FLOAT32 = struct.Struct("<f")
FLOAT64 = struct.Struct("<d")
#: Packed (uint32, float32) pair — one adjacency-list element.
PAIR_UINT32_FLOAT32 = struct.Struct("<If")
#: Packed (uint32, uint32, float32) triple — one weighted edge.
TRIPLE_UINT32_UINT32_FLOAT32 = struct.Struct("<IIf")


def encode_uint32(value: int) -> bytes:
    if value < 0 or value > 0xFFFFFFFF:
        raise StorageError(f"value {value} out of range for uint32")
    return UINT32.pack(value)


def encode_float32(value: float) -> bytes:
    return FLOAT32.pack(value)


def decode_float32(data: bytes, offset: int = 0) -> float:
    return FLOAT32.unpack_from(data, offset)[0]


def encode_float64(value: float) -> bytes:
    return FLOAT64.pack(value)


def encode_varint(value: int) -> bytes:
    """LEB128 encoding of a non-negative integer."""
    if value < 0:
        raise StorageError("varint cannot encode negative values")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> tuple:
    """Decode a varint; returns ``(value, next_offset)``."""
    result = 0
    shift = 0
    position = offset
    while True:
        if position >= len(data):
            raise StorageError("truncated varint")
        byte = data[position]
        position += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, position
        shift += 7
        if shift > 63:
            raise StorageError("varint too long")


def check_edge_weights(weights: Sequence[float]) -> None:
    """Raise :class:`StorageError` unless every weight is finite and > 0.

    Decoded weights are bytes the LBS wrote: a zero, negative or NaN weight
    breaks the client's Dijkstra (two nodes joined by negative edges keep
    the heap from ever draining).  ``min`` rejects zero and negatives and
    ``sum`` rejects NaN and infinity, each in one C-level pass.
    """
    if weights and not (min(weights) > 0.0 and sum(weights) < math.inf):
        raise StorageError("edge weights must be finite and positive")


class RecordWriter:
    """Sequential binary writer."""

    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def uint32(self, value: int) -> "RecordWriter":
        self._parts.append(encode_uint32(value))
        return self

    def float32(self, value: float) -> "RecordWriter":
        self._parts.append(encode_float32(value))
        return self

    def float64(self, value: float) -> "RecordWriter":
        self._parts.append(encode_float64(value))
        return self

    def varint(self, value: int) -> "RecordWriter":
        self._parts.append(encode_varint(value))
        return self

    def raw(self, data: bytes) -> "RecordWriter":
        self._parts.append(bytes(data))
        return self

    def uint32_list(self, values) -> "RecordWriter":
        """A varint length prefix followed by uint32 elements."""
        values = list(values)
        self.varint(len(values))
        for value in values:
            self.uint32(value)
        return self

    def string(self, text: str) -> "RecordWriter":
        """A varint length prefix followed by UTF-8 bytes."""
        encoded = text.encode("utf-8")
        self.varint(len(encoded))
        self._parts.append(encoded)
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._parts)

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts)


class RecordReader:
    """Sequential binary reader matching :class:`RecordWriter`."""

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self._data = data
        self._offset = offset

    @property
    def offset(self) -> int:
        return self._offset

    def remaining(self) -> int:
        return len(self._data) - self._offset

    def _fixed(self, codec: struct.Struct) -> Any:
        """One fixed-size field, bounds-checked like :meth:`raw`."""
        offset = self._offset
        end = offset + codec.size
        if end > len(self._data):
            raise StorageError("attempt to read past the end of the record")
        self._offset = end
        return codec.unpack_from(self._data, offset)[0]

    def uint32(self) -> int:
        return self._fixed(UINT32)

    def float32(self) -> float:
        return self._fixed(FLOAT32)

    def float64(self) -> float:
        return self._fixed(FLOAT64)

    def varint(self) -> int:
        value, self._offset = decode_varint(self._data, self._offset)
        return value

    def raw(self, size: int) -> bytes:
        if self._offset + size > len(self._data):
            raise StorageError("attempt to read past the end of the record")
        value = self._data[self._offset:self._offset + size]
        self._offset += size
        return value

    def uint32_list(self) -> List[int]:
        count = self.varint()
        size = UINT32.size * count
        if self._offset + size > len(self._data):
            raise StorageError("attempt to read past the end of the record")
        values = list(struct.unpack_from(f"<{count}I", self._data, self._offset))
        self._offset += size
        return values

    def _batch(self, codec: struct.Struct, count: int) -> List[tuple]:
        """``count`` consecutive fixed-size records in one C-level pass."""
        size = codec.size * count
        if self._offset + size > len(self._data):
            raise StorageError("attempt to read past the end of the record")
        values = list(codec.iter_unpack(self._data[self._offset:self._offset + size]))
        self._offset += size
        return values

    def edge_list(self, count: int) -> List[tuple]:
        """``count`` packed (uint32, uint32, float32) weighted edges."""
        return self._batch(TRIPLE_UINT32_UINT32_FLOAT32, count)

    def string(self) -> str:
        return decode_utf8(self.raw(self.varint()))


def decode_utf8(data: bytes) -> str:
    """UTF-8 text of a record field; malformed bytes are a :class:`StorageError`."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StorageError(f"malformed UTF-8 in a record string: {exc}") from None
