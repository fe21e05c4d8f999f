"""Tests for region-data record encoding."""

import pytest

from repro.exceptions import StorageError
from repro.network import random_planar_network
from repro.partition import (
    decode_region_payload,
    encode_node_record,
    encode_region_payload,
    merge_region_payloads,
    node_record_size,
)
from repro.storage import RecordWriter


@pytest.fixture(scope="module")
def network():
    return random_planar_network(60, seed=8)


class TestNodeRecords:
    def test_record_size_matches_encoding(self, network):
        for node_id in network.node_ids():
            assert node_record_size(network, node_id) == len(encode_node_record(network, node_id))

    def test_record_size_grows_with_degree(self, network):
        by_degree = sorted(network.node_ids(), key=network.out_degree)
        low = node_record_size(network, by_degree[0])
        high = node_record_size(network, by_degree[-1])
        assert high > low


class TestRegionPayload:
    def test_round_trip(self, network):
        node_ids = list(network.node_ids())[:10]
        payload = encode_region_payload(network, node_ids)
        decoded = decode_region_payload(payload)
        assert set(decoded) == set(node_ids)
        for node_id in node_ids:
            x, y, adjacency = decoded[node_id]
            node = network.node(node_id)
            assert x == pytest.approx(node.x, rel=1e-6)
            assert y == pytest.approx(node.y, rel=1e-6)
            assert len(adjacency) == network.out_degree(node_id)

    def test_round_trip_with_trailing_padding(self, network):
        node_ids = list(network.node_ids())[:5]
        payload = encode_region_payload(network, node_ids) + b"\x00" * 64
        decoded = decode_region_payload(payload)
        assert set(decoded) == set(node_ids)

    def test_empty_region(self, network):
        assert decode_region_payload(encode_region_payload(network, [])) == {}


def _one_node_payload(degree: int, pairs: int) -> bytes:
    """A one-node payload declaring ``degree`` neighbours but carrying ``pairs``."""
    writer = RecordWriter().varint(1).uint32(7).float32(1.5).float32(2.5).varint(degree)
    for neighbor in range(pairs):
        writer.uint32(neighbor).float32(1.0)
    return writer.getvalue()


class TestTruncatedRegionPayload:
    """A short payload from the LBS is a StorageError at every truncation point."""

    @pytest.mark.parametrize(
        "data",
        [
            pytest.param(b"", id="count"),
            pytest.param(b"\x01\x05\x00", id="node-head"),
            pytest.param(_one_node_payload(2, 2)[:13], id="degree-missing"),
            pytest.param(_one_node_payload(200, 200)[:14], id="degree-varint"),
            pytest.param(_one_node_payload(2, 1), id="adjacency"),
            pytest.param(_one_node_payload(2, 2)[:-1], id="adjacency-last-byte"),
        ],
    )
    def test_truncation_raises_storage_error(self, data):
        with pytest.raises(StorageError):
            decode_region_payload(data)

    def test_untruncated_payload_decodes(self):
        assert decode_region_payload(_one_node_payload(2, 2)) == {
            7: (1.5, 2.5, [(0, 1.0), (1, 1.0)])
        }


class TestMergeRegionPayloads:
    def test_merge_builds_induced_subgraph(self, network):
        node_ids = list(network.node_ids())
        group_a = node_ids[:20]
        group_b = node_ids[20:40]
        payload_a = decode_region_payload(encode_region_payload(network, group_a))
        payload_b = decode_region_payload(encode_region_payload(network, group_b))
        merged = merge_region_payloads([payload_a, payload_b])
        kept = set(group_a) | set(group_b)
        assert set(merged.node_ids()) == kept
        # every edge in the merged graph exists in the original network and
        # stays within the merged node set
        for edge in merged.edges():
            assert edge.source in kept and edge.target in kept
            assert network.has_edge(edge.source, edge.target)

    def test_edges_to_missing_nodes_are_dropped(self, network):
        some_node = next(iter(network.node_ids()))
        payload = decode_region_payload(encode_region_payload(network, [some_node]))
        merged = merge_region_payloads([payload])
        assert merged.num_nodes == 1
        assert merged.num_edges == 0
