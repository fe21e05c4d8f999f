"""Wire-protocol tests: framing, round trips and hostile inputs.

The serving protocol is the trust boundary of the shard service — a server
must survive truncated frames, oversized announcements and garbage payloads
without crashing, and every well-formed message must round-trip exactly.
Round trips are property-tested with hypothesis; the hostile-input cases are
hand-written.
"""

import io
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import PirError
from repro.serving import wire
from repro.serving.wire import (
    AnswerRequest,
    HelloRequest,
    RemoteServerError,
    ServerBusy,
    ShardInfo,
    WireError,
)

masks = st.integers(min_value=0, max_value=(1 << 512) - 1)
file_names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=0x2FF), min_size=1, max_size=32
)
blocks = st.binary(min_size=0, max_size=256)


class TestFraming:
    def test_frame_round_trip(self):
        payload = b"hello shard"
        frame = wire.encode_frame(payload)
        assert frame[: wire.HEADER_SIZE] != payload
        assert wire.decode_frame_length(frame[: wire.HEADER_SIZE]) == len(payload)
        assert frame[wire.HEADER_SIZE :] == payload

    def test_oversized_frame_rejected_on_encode(self):
        with pytest.raises(WireError):
            wire.encode_frame(b"x" * 64, max_frame_bytes=32)

    def test_oversized_announcement_rejected_before_buffering(self):
        header = wire.encode_frame(b"x" * 64)[: wire.HEADER_SIZE]
        with pytest.raises(WireError):
            wire.decode_frame_length(header, max_frame_bytes=32)


class TestRequestRoundTrips:
    def test_hello_round_trip(self):
        payload = wire.encode_hello_request()
        assert wire.decode_request(payload) == HelloRequest()

    @given(file_names, st.lists(masks, min_size=1, max_size=32))
    @settings(max_examples=80, deadline=None)
    def test_answer_request_round_trip(self, name, mask_list):
        payload = wire.encode_answer_request(name, mask_list)
        request = wire.decode_request(payload)
        assert isinstance(request, AnswerRequest)
        assert request.file_name == name
        assert request.masks == tuple(mask_list)

    def test_negative_mask_rejected(self):
        with pytest.raises(WireError):
            wire.encode_answer_request("f", [-1])

    def test_oversized_mask_rejected(self):
        huge = 1 << (8 * (wire.MAX_MASK_BYTES + 1))
        with pytest.raises(WireError):
            wire.encode_answer_request("f", [huge])

    def test_garbage_payload_rejected(self):
        with pytest.raises(WireError):
            wire.decode_request(b"\xff\xfe\xfd")

    def test_trailing_bytes_rejected(self):
        payload = wire.encode_hello_request() + b"\x00"
        with pytest.raises(WireError):
            wire.decode_request(payload)


def _answer_frame(name: bytes, count: int) -> bytes:
    """A hand-built ANSWER payload: ``count`` empty masks over file ``name``.

    Built with ``struct`` rather than the encoder, so the decode-side caps
    are the only check between the bytes and the decoded request.
    """
    return (
        struct.pack(">BH", wire.OP_ANSWER, len(name))
        + name
        + struct.pack(">I", count)
        + struct.pack(">I", 0) * count
    )


class TestDecodeCaps:
    """The decoder's own caps, at the cap and one past it."""

    @pytest.mark.parametrize("over", [0, 1], ids=["at_cap", "cap_plus_1"])
    def test_mask_count_cap(self, over):
        count = wire.MAX_MASKS_PER_REQUEST + over
        payload = _answer_frame(b"f", count)
        if over:
            with pytest.raises(WireError):
                wire.decode_request(payload)
        else:
            request = wire.decode_request(payload)
            assert request.masks == (0,) * count

    @pytest.mark.parametrize("over", [0, 1], ids=["at_cap", "cap_plus_1"])
    def test_name_length_cap(self, over):
        name = b"n" * (wire.MAX_NAME_BYTES + over)
        payload = _answer_frame(name, 1)
        if over:
            with pytest.raises(WireError):
                wire.decode_request(payload)
        else:
            assert wire.decode_request(payload).file_name == name.decode()


class TestResponseRoundTrips:
    @given(st.lists(blocks, min_size=0, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_answer_response_round_trip(self, block_list):
        payload = wire.encode_answer_ok(block_list)
        assert wire.decode_answer_response(payload) == list(block_list)

    def test_hello_response_round_trip(self):
        info = ShardInfo(
            shard_id=1,
            num_shards=4,
            strategy="round-robin",
            kernel="numpy",
            files=(
                wire.FileInfo(name="pages.bin", num_pages=7, page_size=256),
                wire.FileInfo(name="index.bin", num_pages=3, page_size=128),
            ),
        )
        assert wire.decode_hello_response(wire.encode_hello_ok(info)) == info

    def test_busy_raises_server_busy(self):
        with pytest.raises(ServerBusy):
            wire.decode_answer_response(wire.encode_busy("try later"))

    def test_error_raises_remote_error(self):
        with pytest.raises(RemoteServerError, match="bad mask"):
            wire.decode_answer_response(wire.encode_error("bad mask"))

    def test_wire_errors_are_pir_errors(self):
        assert issubclass(WireError, PirError)
        assert issubclass(ServerBusy, PirError)
        assert issubclass(RemoteServerError, PirError)


class TestInterleaving:
    def test_interleaved_requests_decode_in_order(self):
        """Pipelined frames on one stream come back in submission order."""
        requests = [
            wire.encode_answer_request("a", [1, 2]),
            wire.encode_hello_request(),
            wire.encode_answer_request("b", [0b101]),
        ]
        stream = io.BytesIO(b"".join(wire.encode_frame(p) for p in requests))
        decoded = []
        while header := stream.read(wire.HEADER_SIZE):
            length = wire.decode_frame_length(header)
            decoded.append(wire.decode_request(stream.read(length)))
        assert decoded[0] == AnswerRequest(file_name="a", masks=(1, 2))
        assert decoded[1] == HelloRequest()
        assert decoded[2] == AnswerRequest(file_name="b", masks=(5,))
