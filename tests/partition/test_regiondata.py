"""Tests for region-data record encoding: the columnar payload and its decoder."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from region_rows_reference import decode_region_rows, encode_region_rows, rows_of
from repro.exceptions import StorageError
from repro.network import RoadNetwork, random_planar_network
from repro.partition import (
    RegionColumns,
    decode_region_payload,
    encode_region_payload,
    node_record_size,
)
from repro.storage import encode_varint


@pytest.fixture(scope="module")
def network():
    return random_planar_network(60, seed=8)


class TestNodeRecords:
    def test_record_sizes_sum_to_the_payload(self, network):
        node_ids = list(network.node_ids())
        payload = encode_region_payload(network, node_ids)
        sizes = sum(node_record_size(network, node_id) for node_id in node_ids)
        assert len(payload) == len(encode_varint(len(node_ids))) + sizes

    def test_record_size_grows_with_degree(self, network):
        by_degree = sorted(network.node_ids(), key=network.out_degree)
        low = node_record_size(network, by_degree[0])
        high = node_record_size(network, by_degree[-1])
        assert high > low


class TestRegionPayload:
    def test_round_trip(self, network):
        node_ids = list(network.node_ids())[:10]
        decoded = decode_region_payload(encode_region_payload(network, node_ids))
        assert list(decoded.ids) == node_ids
        rows = rows_of(decoded)
        for node_id in node_ids:
            x, y, adjacency = rows[node_id]
            node = network.node(node_id)
            assert x == pytest.approx(node.x, rel=1e-6)
            assert y == pytest.approx(node.y, rel=1e-6)
            assert [v for v, _ in adjacency] == [v for v, _ in network.neighbors(node_id)]

    def test_round_trip_with_trailing_padding(self, network):
        node_ids = list(network.node_ids())[:5]
        payload = encode_region_payload(network, node_ids) + b"\x00" * 64
        assert list(decode_region_payload(payload).ids) == node_ids

    def test_empty_region(self, network):
        assert decode_region_payload(encode_region_payload(network, [])) == RegionColumns(
            (), (), (), (), ()
        )

    def test_same_bytes_as_the_row_format(self, network):
        # columns reorder a region's bytes; page packing relies on the size
        for start in range(0, 60, 7):
            node_ids = list(network.node_ids())[start : start + 7]
            assert len(encode_region_payload(network, node_ids)) == len(
                encode_region_rows(network, node_ids)
            )


def _star(count: int, degree: int) -> RoadNetwork:
    """``count`` nodes; node 0 has ``degree`` out-edges to the others."""
    network = RoadNetwork()
    for node_id in range(count):
        network.add_node(node_id, float(node_id), 0.5)
    for k in range(degree):
        network.add_edge(0, 1 + k % (count - 1), 1.0 + k)
    return network


def _columns_bytes(count: int, degree: int) -> bytes:
    return encode_region_payload(_star(count, degree), range(count))


def _boundaries(count: int, degree: int):
    """Byte offsets where each column of a ``_star`` payload ends."""
    count_end = len(encode_varint(count))
    ids_end = count_end + 4 * count
    xy_end = ids_end + 8 * count
    degrees_end = xy_end + len(encode_varint(degree)) + (count - 1)
    neighbours_end = degrees_end + 4 * degree
    weights_end = neighbours_end + 4 * degree
    return {
        "count": count_end,
        "ids": ids_end,
        "xy": xy_end,
        "degrees": degrees_end,
        "neighbours": neighbours_end,
        "weights": weights_end,
    }


class TestHostileColumns:
    """A short or inflated payload from the LBS is a StorageError, never a
    ``struct.error`` or an allocation sized by the lie."""

    @pytest.mark.parametrize("count,degree", [(3, 2), (128, 127), (127, 128), (130, 300)])
    @pytest.mark.parametrize("column", ["count", "ids", "xy", "degrees", "neighbours", "weights"])
    def test_truncation_inside_each_column(self, count, degree, column):
        data = _columns_bytes(count, degree)
        bounds = _boundaries(count, degree)
        assert bounds["weights"] == len(data)
        with pytest.raises(StorageError):
            decode_region_payload(data[: bounds[column] - 1])

    @pytest.mark.parametrize("count,degree", [(3, 2), (128, 127), (127, 128), (130, 300)])
    def test_multi_byte_varints_decode(self, count, degree):
        network = _star(count, degree)
        decoded = decode_region_payload(encode_region_payload(network, range(count)))
        assert len(decoded.ids) == count
        assert decoded.degrees[0] == degree
        assert decoded.neighbours == tuple(v for v, _ in network.neighbors(0))

    @pytest.mark.parametrize("count", [128, 2**20, 2**62])
    def test_oversized_count(self, count):
        data = encode_varint(count) + bytes(64)
        with pytest.raises(StorageError, match="cannot hold"):
            decode_region_payload(data)

    def test_degree_sum_past_the_end(self):
        data = bytearray(_columns_bytes(3, 2))
        degrees_at = _boundaries(3, 2)["xy"]
        data[degrees_at] = 100  # node 0 now claims 100 edges
        with pytest.raises(StorageError, match="adjacency"):
            decode_region_payload(bytes(data))

    def test_oversized_degree_varint(self):
        head = encode_varint(1) + struct.pack("<I2f", 7, 1.5, 2.5)
        with pytest.raises(StorageError):
            decode_region_payload(head + encode_varint(2**40) + bytes(16))

    def test_empty_data(self):
        with pytest.raises(StorageError):
            decode_region_payload(b"")


#: Node ids on both sides of the one- and two-byte varint limits.
EDGE_IDS = (0, 1, 127, 128, 16383, 16384, 2**32 - 1)


@st.composite
def regions(draw):
    """A random region: ids, f32-exact coordinates and weights, degrees
    that reach past the one-byte varint limit."""
    count = draw(st.one_of(st.integers(0, 6), st.sampled_from((127, 128))))
    ids = draw(
        st.lists(
            st.one_of(st.sampled_from(EDGE_IDS), st.integers(0, 2**32 - 1)),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    floats = st.floats(width=32, allow_nan=False, allow_infinity=False)
    weights = st.floats(min_value=2.0**-126, max_value=2.0**100, width=32)
    network = RoadNetwork()
    for node_id in ids:
        network.add_node(node_id, draw(floats), draw(floats))
    for position, node_id in enumerate(ids):
        # one node per region may carry a two-byte degree varint
        big = st.sampled_from((127, 128)) if position == 0 else st.integers(0, 3)
        for _ in range(draw(st.one_of(st.integers(0, 3), big))):
            network.add_edge(node_id, draw(st.sampled_from(ids)), draw(weights))
    return network, ids


class TestAgainstRowFormat:
    @settings(max_examples=60, deadline=None)
    @given(regions(), st.integers(0, 32))
    def test_columns_decode_to_the_row_decode(self, region, padding):
        network, ids = region
        columns = encode_region_payload(network, ids) + bytes(padding)
        rows = encode_region_rows(network, ids) + bytes(padding)
        assert len(columns) == len(rows)
        assert rows_of(decode_region_payload(columns)) == decode_region_rows(rows)
