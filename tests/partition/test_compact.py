"""Tests for the compact region-payload codec and the codec comparison report."""

import pytest

from region_rows_reference import rows_of
from repro.exceptions import StorageError
from repro.network import grid_network
from repro.partition import (
    CompactCodecConfig,
    compare_region_codecs,
    decode_region_payload,
    decode_region_payload_compact,
    encode_region_payload,
    encode_region_payload_compact,
    packed_kdtree_partition,
)


@pytest.fixture(scope="module")
def network():
    return grid_network(7, 7, jitter=0.1, seed=4)


@pytest.fixture(scope="module")
def node_ids(network):
    return sorted(network.node_ids())[:20]


class TestCompactCodecRoundtrip:
    def test_node_set_preserved(self, network, node_ids):
        data = encode_region_payload_compact(network, node_ids)
        decoded = decode_region_payload_compact(data)
        assert set(decoded.keys()) == set(node_ids)

    def test_coordinates_within_quantisation_error(self, network, node_ids):
        decoded = decode_region_payload_compact(
            encode_region_payload_compact(network, node_ids)
        )
        xs = [network.node(node_id).x for node_id in node_ids]
        ys = [network.node(node_id).y for node_id in node_ids]
        span_x = max(xs) - min(xs)
        span_y = max(ys) - min(ys)
        tolerance_x = span_x / 65535 + 1e-9
        tolerance_y = span_y / 65535 + 1e-9
        for node_id in node_ids:
            x, y, _ = decoded[node_id]
            node = network.node(node_id)
            assert abs(x - node.x) <= tolerance_x
            assert abs(y - node.y) <= tolerance_y

    def test_adjacency_preserved_with_weight_tolerance(self, network, node_ids):
        config = CompactCodecConfig(weight_resolution=1e-3)
        decoded = decode_region_payload_compact(
            encode_region_payload_compact(network, node_ids, config)
        )
        for node_id in node_ids:
            _, _, adjacency = decoded[node_id]
            expected = network.neighbors(node_id)
            assert [neighbor for neighbor, _ in adjacency] == [n for n, _ in expected]
            for (_, weight), (_, true_weight) in zip(adjacency, expected):
                assert abs(weight - true_weight) <= 1e-3

    def test_compact_is_smaller_than_standard(self, network, node_ids):
        standard = encode_region_payload(network, node_ids)
        compact = encode_region_payload_compact(network, node_ids)
        assert len(compact) < len(standard)

    def test_single_node_region(self, network):
        only = [next(iter(network.node_ids()))]
        decoded = decode_region_payload_compact(
            encode_region_payload_compact(network, only)
        )
        assert set(decoded.keys()) == set(only)

    def test_truncated_payload_rejected(self):
        with pytest.raises(StorageError):
            decode_region_payload_compact(b"short")

    def test_zero_resolution_rejected(self):
        # 32 header bytes, a zero inverse-resolution varint, then padding
        with pytest.raises(StorageError):
            decode_region_payload_compact(bytes(32) + b"\x00" + bytes(16))

    def test_invalid_config(self):
        with pytest.raises(StorageError):
            CompactCodecConfig(weight_resolution=-1.0)

    def test_matches_standard_decoder_structure(self, network, node_ids):
        standard = rows_of(decode_region_payload(encode_region_payload(network, node_ids)))
        compact = decode_region_payload_compact(
            encode_region_payload_compact(network, node_ids)
        )
        assert set(standard.keys()) == set(compact.keys())
        for node_id in standard:
            assert len(standard[node_id][2]) == len(compact[node_id][2])


class TestCompareRegionCodecs:
    def test_report_shape_and_savings(self, network):
        partitioning = packed_kdtree_partition(network, 256 - 8)
        report = compare_region_codecs(network, partitioning, page_size=256)
        assert report.num_regions == partitioning.num_regions
        assert report.compact_bytes < report.standard_bytes
        assert 0.0 < report.byte_ratio < 1.0
        assert 0.0 < report.page_ratio <= 1.0
        assert report.compact_pages <= report.standard_pages

    def test_invalid_page_size(self, network):
        partitioning = packed_kdtree_partition(network, 256 - 8)
        with pytest.raises(StorageError):
            compare_region_codecs(network, partitioning, page_size=0)
