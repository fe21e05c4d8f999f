"""Lossless compression primitives for network data (future-work direction).

The paper's conclusion points at "(lossless or lossy) compression of network
data, taking into account their characteristics/structure" as a way to reduce
the space and PIR-time overheads.  This module provides the integer-sequence
primitives such a codec needs:

* zig-zag mapping of signed integers onto unsigned ones,
* varint encoding of unsigned integer sequences, and
* delta + zig-zag + varint encoding of sorted (or locally clustered) id lists,
  which is where road-network adjacency data compresses well: node identifiers
  assigned by the KD-tree partitioning are spatially clustered, so the deltas
  between a node and its neighbours are small.

The region-payload codec built on these primitives lives in
:mod:`repro.partition.compact`.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from ..exceptions import StorageError
from .record import decode_varint, encode_varint


def zigzag_encode(value: int) -> int:
    """Map a signed integer to an unsigned one with small magnitudes staying small."""
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    if value < 0:
        raise StorageError(f"zig-zag values are unsigned, got {value}")
    return (value >> 1) if value % 2 == 0 else -((value + 1) >> 1)


def encode_uint_sequence(values: Iterable[int]) -> bytes:
    """Varint-encode a sequence of unsigned integers, prefixed by its length."""
    values = list(values)
    out = bytearray(encode_varint(len(values)))
    for value in values:
        out.extend(encode_varint(value))
    return bytes(out)


def decode_uint_sequence(data: bytes, offset: int = 0) -> Tuple[List[int], int]:
    """Inverse of :func:`encode_uint_sequence`; returns ``(values, next_offset)``."""
    count, offset = decode_varint(data, offset)
    values: List[int] = []
    for _ in range(count):
        value, offset = decode_varint(data, offset)
        values.append(value)
    return values, offset


def delta_encode_ids(values: Sequence[int]) -> bytes:
    """Delta + zig-zag + varint encode an integer id list.

    The first value is stored as-is (zig-zag, so negative ids would work too);
    every following value is stored as the signed difference from its
    predecessor.  Sorted or spatially clustered id lists compress to one or two
    bytes per element.
    """
    out = bytearray(encode_varint(len(values)))
    previous = 0
    for index, value in enumerate(values):
        delta = value if index == 0 else value - previous
        out.extend(encode_varint(zigzag_encode(delta)))
        previous = value
    return bytes(out)


def delta_decode_ids(data: bytes, offset: int = 0) -> Tuple[List[int], int]:
    """Inverse of :func:`delta_encode_ids`; returns ``(values, next_offset)``."""
    count, offset = decode_varint(data, offset)
    values: List[int] = []
    previous = 0
    for index in range(count):
        encoded, offset = decode_varint(data, offset)
        delta = zigzag_decode(encoded)
        value = delta if index == 0 else previous + delta
        values.append(value)
        previous = value
    return values, offset


def quantize_weights(
    weights: Sequence[float], resolution: float = 1e-3
) -> Tuple[List[int], float]:
    """Quantize edge weights onto an integer grid (the lossy half of the codec).

    Returns the integer ticks and the resolution actually used; ``tick *
    resolution`` reproduces each weight within ``resolution / 2``.
    """
    if resolution <= 0:
        raise StorageError(f"weight resolution must be positive, got {resolution}")
    return [int(round(weight / resolution)) for weight in weights], resolution
