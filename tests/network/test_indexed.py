"""Tests for the array-backed (CSR) graph core and its compiled cache."""

import pytest

from repro.exceptions import GraphError, NoPathError
from repro.network import (
    CsrGraph,
    RoadNetwork,
    SearchStats,
    csr_for,
    dijkstra_tree,
    shortest_path,
)


def build_diamond():
    network = RoadNetwork()
    for node_id, (x, y) in enumerate([(0, 0), (1, 1), (1, -1), (2, 0)]):
        network.add_node(node_id, float(x), float(y))
    network.add_undirected_edge(0, 1, 1.0)
    network.add_undirected_edge(1, 3, 1.0)
    network.add_undirected_edge(0, 2, 2.0)
    network.add_undirected_edge(2, 3, 2.0)
    network.add_undirected_edge(0, 3, 5.0)
    return network


class TestCsrCompilation:
    def test_counts_match_network(self, medium_network):
        csr = CsrGraph.from_network(medium_network)
        assert csr.num_nodes == medium_network.num_nodes
        assert csr.num_edges == medium_network.num_edges

    def test_id_mapping_roundtrip(self, medium_network):
        csr = CsrGraph.from_network(medium_network)
        for node_id in medium_network.node_ids():
            assert csr.node_ids[csr.dense_id(node_id)] == node_id
            assert node_id in csr

    def test_unknown_node_rejected(self):
        csr = CsrGraph.from_network(build_diamond())
        with pytest.raises(GraphError):
            csr.dense_id(999)
        assert 999 not in csr

    def test_adjacency_preserves_weights(self):
        network = build_diamond()
        csr = CsrGraph.from_network(network)
        adjacency = csr.adjacency()
        for node_id in network.node_ids():
            dense = csr.dense_id(node_id)
            expected = sorted(
                (weight, csr.dense_id(neighbor))
                for neighbor, weight in network.neighbors(node_id)
            )
            assert sorted(adjacency[dense]) == expected

    def test_cache_reuses_compiled_graph(self):
        network = build_diamond()
        first = csr_for(network)
        assert csr_for(network) is first

    def test_cache_invalidated_by_growth(self):
        network = build_diamond()
        first = csr_for(network)
        network.add_node(10, 5.0, 5.0)
        network.add_edge(3, 10, 1.0)
        second = csr_for(network)
        assert second is not first
        assert second.num_nodes == network.num_nodes
        assert second.num_edges == network.num_edges


class TestFastPathSemantics:
    def test_unknown_target_rejected_up_front(self):
        """An unknown target id fails fast instead of degrading into a
        full-graph scan that can never settle it."""
        network = build_diamond()
        with pytest.raises(GraphError):
            dijkstra_tree(network, 0, targets=[999])

    def test_unreachable_target_still_scans_component(self):
        network = build_diamond()
        network.add_node(42, 9.0, 9.0)  # exists but disconnected
        tree = dijkstra_tree(network, 0, targets=[42])
        assert not tree.has_path_to(42)
        with pytest.raises(NoPathError):
            tree.distance_to(42)

    def test_empty_target_set_stops_immediately(self):
        network = build_diamond()
        stats = SearchStats()
        tree = dijkstra_tree(network, 0, targets=[], stats=stats)
        assert stats.settled_nodes == 1
        assert tree.distance_to(0) == 0.0

    def test_parallel_edges_keep_cheapest(self):
        network = RoadNetwork()
        network.add_node(0, 0.0, 0.0)
        network.add_node(1, 1.0, 0.0)
        network.add_edge(0, 1, 5.0)
        network.add_edge(0, 1, 2.0)  # parallel, cheaper
        assert shortest_path(network, 0, 1).cost == pytest.approx(2.0)


class TestCsrGraphDirect:
    def test_from_network_empty_adjacency(self):
        network = RoadNetwork()
        network.add_node(7, 0.0, 0.0)
        csr = CsrGraph.from_network(network)
        assert csr.num_nodes == 1
        assert csr.num_edges == 0
        assert csr.adjacency() == [()]
