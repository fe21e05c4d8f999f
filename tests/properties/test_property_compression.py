"""Property-based tests for the compression primitives and the compact codec."""

from hypothesis import given, settings, strategies as st

from repro.storage.compression import (
    decode_uint_sequence,
    delta_decode_ids,
    delta_encode_ids,
    encode_uint_sequence,
    quantize_weights,
    zigzag_decode,
    zigzag_encode,
)


class TestZigZagProperties:
    @given(st.integers(min_value=-(2**50), max_value=2**50))
    def test_roundtrip(self, value):
        assert zigzag_decode(zigzag_encode(value)) == value

    @given(st.integers(min_value=-(2**20), max_value=2**20))
    def test_small_magnitude_maps_to_small_code(self, value):
        assert zigzag_encode(value) <= 2 * abs(value) + 1


class TestSequenceProperties:
    @given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_uint_sequence_roundtrip(self, values):
        decoded, offset = decode_uint_sequence(encode_uint_sequence(values))
        assert decoded == values
        assert offset == len(encode_uint_sequence(values))

    @given(st.lists(st.integers(min_value=-(2**31), max_value=2**31), max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_delta_ids_roundtrip(self, values):
        decoded, _ = delta_decode_ids(delta_encode_ids(values))
        assert decoded == values

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
            max_size=50,
        ),
        st.sampled_from([1e-3, 1e-2, 0.1]),
    )
    @settings(max_examples=60, deadline=None)
    def test_weight_quantisation_error_bound(self, weights, resolution):
        ticks, used = quantize_weights(weights, resolution)
        restored = [tick * used for tick in ticks]
        for original, back in zip(weights, restored):
            assert abs(original - back) <= used / 2 + 1e-9
