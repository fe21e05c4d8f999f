"""Tests for road-network text serialization."""

import io

import pytest

from repro.exceptions import GraphError
from repro.network import random_planar_network, read_network, write_network


def network_to_string(network):
    buffer = io.StringIO()
    write_network(network, buffer)
    return buffer.getvalue()


def network_from_string(text):
    return read_network(io.StringIO(text))


class TestRoundTrip:
    def test_string_round_trip_preserves_structure(self):
        original = random_planar_network(80, seed=4)
        restored = network_from_string(network_to_string(original))
        assert restored.num_nodes == original.num_nodes
        assert restored.num_edges == original.num_edges
        for node in original.nodes():
            other = restored.node(node.node_id)
            assert other.x == node.x
            assert other.y == node.y
        for edge in original.edges():
            assert restored.edge_weight(edge.source, edge.target) == edge.weight

    def test_file_round_trip(self, tmp_path):
        original = random_planar_network(40, seed=5)
        destination = tmp_path / "network.txt"
        write_network(original, destination)
        restored = read_network(destination)
        assert restored.num_nodes == original.num_nodes
        assert restored.num_edges == original.num_edges

    def test_stream_round_trip(self):
        original = random_planar_network(30, seed=6)
        buffer = io.StringIO()
        write_network(original, buffer)
        buffer.seek(0)
        restored = read_network(buffer)
        assert restored.num_nodes == original.num_nodes


class TestParsing:
    def test_comments_and_blank_lines_are_ignored(self):
        text = """
        # a tiny network
        v 0 0.0 0.0

        v 1 1.0 0.0
        e 0 1 1.5
        """
        network = network_from_string(text)
        assert network.num_nodes == 2
        assert network.edge_weight(0, 1) == 1.5

    def test_malformed_node_line_raises(self):
        with pytest.raises(GraphError):
            network_from_string("v 0 0.0\n")

    def test_malformed_edge_line_raises(self):
        with pytest.raises(GraphError):
            network_from_string("v 0 0.0 0.0\nv 1 1.0 1.0\ne 0 1\n")

    def test_unknown_record_type_raises(self):
        with pytest.raises(GraphError):
            network_from_string("x 1 2 3\n")

    def test_edges_may_precede_nodes(self):
        """Edges are resolved after all nodes are read."""
        text = "e 0 1 2.0\nv 0 0.0 0.0\nv 1 1.0 0.0\n"
        network = network_from_string(text)
        assert network.edge_weight(0, 1) == 2.0
