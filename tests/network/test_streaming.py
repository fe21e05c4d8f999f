"""Tests for the streaming generators, DIMACS I/O and node-record databases."""

import struct

import pytest

from repro.exceptions import GraphError
from repro.network import RoadNetwork, stream_grid_network
from repro.network.dijkstra import shortest_path_cost
from repro.storage import iter_node_records, stream_node_database
from networks import grid_network


def float32(value):
    return struct.unpack("<f", struct.pack("<f", value))[0]


def network_from_records(records):
    """Materialize a stream of node records; edges wait until every node exists."""
    network = RoadNetwork()
    edges = []
    for node_id, x, y, neighbors in records:
        network.add_node(node_id, x, y)
        edges.extend((node_id, target, weight) for target, weight in neighbors)
    for source, target, weight in edges:
        network.add_edge(source, target, weight)
    return network


class TestStreamGridNetwork:
    def test_matches_grid_topology(self):
        rows, cols = 7, 9
        network = network_from_records(stream_grid_network(rows, cols, seed=5))
        reference = grid_network(rows, cols, seed=5)
        assert network.num_nodes == reference.num_nodes
        assert network.num_edges == reference.num_edges
        # identical undirected adjacency structure (weights differ: the
        # streaming generator uses stateless hash jitter, not a sequential RNG)
        for node_id in range(rows * cols):
            assert sorted(n for n, _ in network.neighbors(node_id)) == \
                sorted(n for n, _ in reference.neighbors(node_id))

    def test_edges_are_symmetric_and_positive(self):
        network = network_from_records(stream_grid_network(6, 6, seed=9))
        for node_id in range(36):
            for neighbor, weight in network.neighbors(node_id):
                assert weight > 0
                assert dict(network.neighbors(neighbor))[node_id] == weight

    def test_deterministic_and_seed_sensitive(self):
        first = list(stream_grid_network(4, 4, seed=1))
        second = list(stream_grid_network(4, 4, seed=1))
        other = list(stream_grid_network(4, 4, seed=2))
        assert first == second
        assert first != other

    def test_records_are_o1_without_materialization(self):
        # pull a few records from a network far too big to materialize;
        # the generator must not precompute anything global
        stream = stream_grid_network(10**4, 10**4)
        for _ in range(5):
            node_id, x, y, neighbors = next(stream)
            assert 2 <= len(neighbors) <= 4

    def test_rejects_empty_grid(self):
        with pytest.raises(GraphError):
            next(stream_grid_network(0, 5))


class TestStreamNodeDatabase:
    @pytest.mark.parametrize("backend", ["memory", "mmap", "sqlite"])
    @pytest.mark.parametrize("payload_pad", [0, 96])
    def test_records_round_trip_through_page_store(self, backend, payload_pad, tmp_path):
        records = list(stream_grid_network(9, 7, seed=6))
        database, count = stream_node_database(
            records,
            page_size=512,
            store_backend=backend,
            store_dir=tmp_path if backend != "memory" else None,
            payload_pad=payload_pad,
        )
        try:
            assert count == len(records)
            recovered = list(iter_node_records(database))
            assert len(recovered) == count
            for (nid, x, y, adj), (rid, rx, ry, radj) in zip(records, recovered):
                assert rid == nid
                assert rx == float32(x) and ry == float32(y)
                assert [n for n, _ in radj] == [n for n, _ in adj]
                assert all(rw == float32(w) for (_, rw), (_, w) in zip(radj, adj))
        finally:
            database.close()

    def test_streamed_network_answers_queries(self, tmp_path):
        records = list(stream_grid_network(4, 6, seed=7))
        database, _ = stream_node_database(
            records, page_size=256, store_backend="sqlite", store_dir=tmp_path
        )
        try:
            network = network_from_records(iter_node_records(database))
            direct = network_from_records(records)
            assert shortest_path_cost(network, 0, 23) == pytest.approx(
                shortest_path_cost(direct, 0, 23), rel=1e-5
            )
        finally:
            database.close()
