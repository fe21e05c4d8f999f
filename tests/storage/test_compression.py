"""Tests for the integer-sequence compression primitives."""

import pytest

from repro.exceptions import StorageError
from repro.storage.compression import (
    decode_uint_sequence,
    delta_decode_ids,
    delta_encode_ids,
    encode_uint_sequence,
    quantize_weights,
    zigzag_decode,
    zigzag_encode,
)


class TestZigZag:
    @pytest.mark.parametrize(
        "value,expected",
        [(0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4), (1000, 2000), (-1000, 1999)],
    )
    def test_known_values(self, value, expected):
        assert zigzag_encode(value) == expected
        assert zigzag_decode(expected) == value

    @pytest.mark.parametrize("value", [0, 1, -1, 7, -7, 12345, -12345, 2**40, -(2**40)])
    def test_roundtrip(self, value):
        assert zigzag_decode(zigzag_encode(value)) == value

    def test_decode_rejects_negative(self):
        with pytest.raises(StorageError):
            zigzag_decode(-1)


class TestUintSequences:
    def test_roundtrip(self):
        values = [0, 1, 127, 128, 300, 2**20, 5]
        data = encode_uint_sequence(values)
        decoded, offset = decode_uint_sequence(data)
        assert decoded == values
        assert offset == len(data)

    def test_empty_sequence(self):
        data = encode_uint_sequence([])
        decoded, offset = decode_uint_sequence(data)
        assert decoded == []
        assert offset == len(data)

    def test_concatenated_sequences(self):
        first = encode_uint_sequence([1, 2, 3])
        second = encode_uint_sequence([9])
        decoded_first, offset = decode_uint_sequence(first + second)
        decoded_second, end = decode_uint_sequence(first + second, offset)
        assert decoded_first == [1, 2, 3]
        assert decoded_second == [9]
        assert end == len(first) + len(second)


class TestDeltaIds:
    def test_roundtrip_sorted_ids(self):
        ids = [10, 11, 12, 15, 100, 101]
        data = delta_encode_ids(ids)
        decoded, offset = delta_decode_ids(data)
        assert decoded == ids
        assert offset == len(data)

    def test_roundtrip_unsorted_and_negative_deltas(self):
        ids = [50, 10, 300, 299, 0]
        decoded, _ = delta_decode_ids(delta_encode_ids(ids))
        assert decoded == ids

    def test_empty(self):
        decoded, _ = delta_decode_ids(delta_encode_ids([]))
        assert decoded == []

    def test_clustered_ids_compress_better_than_plain_varints(self):
        ids = list(range(10_000, 10_200))
        delta = delta_encode_ids(ids)
        plain = encode_uint_sequence(ids)
        assert len(delta) < len(plain)


class TestWeightQuantisation:
    def test_roundtrip_within_resolution(self):
        weights = [0.0, 1.2345, 17.5, 0.001, 123.456]
        ticks, resolution = quantize_weights(weights, resolution=1e-3)
        restored = [tick * resolution for tick in ticks]
        for original, back in zip(weights, restored):
            assert abs(original - back) <= resolution / 2 + 1e-12

    def test_invalid_resolution(self):
        with pytest.raises(StorageError):
            quantize_weights([1.0], resolution=0.0)
