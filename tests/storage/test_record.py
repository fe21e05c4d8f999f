"""Tests for the binary record codecs."""

import pytest

from repro.exceptions import StorageError
from repro.storage import RecordReader, RecordWriter
from repro.storage.record import decode_varint, encode_varint


class TestPrimitives:
    def test_uint32_round_trip(self):
        writer = RecordWriter()
        writer.uint32(0).uint32(1).uint32(0xFFFFFFFF)
        reader = RecordReader(writer.getvalue())
        assert reader.uint32() == 0
        assert reader.uint32() == 1
        assert reader.uint32() == 0xFFFFFFFF

    def test_uint32_out_of_range(self):
        with pytest.raises(StorageError):
            RecordWriter().uint32(-1)
        with pytest.raises(StorageError):
            RecordWriter().uint32(2**32)

    def test_uint16_round_trip(self):
        writer = RecordWriter()
        writer.uint16(0).uint16(65535)
        reader = RecordReader(writer.getvalue())
        assert reader.uint16() == 0
        assert reader.uint16() == 65535

    def test_float32_round_trip_approximate(self):
        writer = RecordWriter()
        writer.float32(3.14159)
        assert RecordReader(writer.getvalue()).float32() == pytest.approx(3.14159, rel=1e-6)

    def test_float64_round_trip_exact(self):
        value = 123456.789012345
        writer = RecordWriter()
        writer.float64(value)
        assert RecordReader(writer.getvalue()).float64() == value

    def test_string_round_trip(self):
        writer = RecordWriter()
        writer.string("héllo world")
        assert RecordReader(writer.getvalue()).string() == "héllo world"

    def test_raw_and_remaining(self):
        writer = RecordWriter()
        writer.raw(b"abc")
        reader = RecordReader(writer.getvalue())
        assert reader.remaining() == 3
        assert reader.raw(2) == b"ab"
        assert reader.remaining() == 1

    def test_raw_past_end(self):
        reader = RecordReader(b"ab")
        with pytest.raises(StorageError):
            reader.raw(3)

    @pytest.mark.parametrize("field", ["uint32", "uint16", "float32", "float64"])
    def test_fixed_width_read_past_end(self, field):
        reader = RecordReader(b"\x01", offset=0)
        with pytest.raises(StorageError):
            getattr(reader, field)()
        assert reader.offset == 0

    def test_fixed_width_read_at_offset_past_end(self):
        with pytest.raises(StorageError):
            RecordReader(b"\x01\x02\x03\x04\x05", offset=2).uint32()

    def test_malformed_utf8_string(self):
        with pytest.raises(StorageError):
            RecordReader(b"\x02\xc3\x28").string()


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**14, 2**21 - 1, 2**32, 2**40])
    def test_round_trip(self, value):
        encoded = encode_varint(value)
        decoded, offset = decode_varint(encoded)
        assert decoded == value
        assert offset == len(encoded)

    def test_small_values_are_one_byte(self):
        assert len(encode_varint(0)) == 1
        assert len(encode_varint(127)) == 1
        assert len(encode_varint(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(StorageError):
            encode_varint(-1)

    def test_truncated_varint(self):
        with pytest.raises(StorageError):
            decode_varint(b"\x80")


class TestCompositeRecords:
    def test_uint32_list_round_trip(self):
        writer = RecordWriter()
        writer.uint32_list([5, 9, 1, 0])
        assert RecordReader(writer.getvalue()).uint32_list() == [5, 9, 1, 0]

    def test_empty_list(self):
        writer = RecordWriter()
        writer.uint32_list([])
        assert RecordReader(writer.getvalue()).uint32_list() == []

    def test_mixed_record(self):
        writer = RecordWriter()
        writer.uint32(7).float32(2.5).varint(300).string("fi").uint32_list([1, 2])
        reader = RecordReader(writer.getvalue())
        assert reader.uint32() == 7
        assert reader.float32() == pytest.approx(2.5)
        assert reader.varint() == 300
        assert reader.string() == "fi"
        assert reader.uint32_list() == [1, 2]
        assert reader.remaining() == 0

    def test_writer_length(self):
        writer = RecordWriter()
        writer.uint32(1).float32(1.0)
        assert len(writer) == 8
