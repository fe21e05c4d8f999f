"""Tests for the border-to-border pre-computation (S_ij and G_ij)."""

import math

import pytest

from repro.network import shortest_path, shortest_path_cost
from repro.precompute import compute_border_products


class TestRegionSets:
    def test_every_ordered_pair_has_an_entry(self, partitioning, border_products):
        expected = partitioning.num_regions ** 2
        assert len(border_products.region_sets) == expected

    def test_region_sets_exclude_their_own_endpoints(self, border_products):
        for (region_i, region_j), regions in border_products.region_sets.items():
            assert region_i not in regions
            assert region_j not in regions

    def test_max_region_set_size(self, border_products):
        max_size = border_products.max_region_set_size()
        assert max_size == max(len(r) for r in border_products.region_sets.values())
        assert max_size >= 1

    def test_region_set_covering_guarantee(
        self, small_network, partitioning, border_products, rng
    ):
        """Fetching R_s, R_t and S_st yields a subgraph containing a true shortest path."""
        node_ids = list(small_network.node_ids())
        for _ in range(8):
            source = rng.choice(node_ids)
            target = rng.choice(node_ids)
            region_s = partitioning.region_of_node(source)
            region_t = partitioning.region_of_node(target)
            regions = set(border_products.region_set(region_s, region_t)) | {region_s, region_t}
            node_set = [
                node_id
                for region_id in regions
                for node_id in partitioning.region(region_id).node_ids
            ]
            subgraph = small_network.subgraph(node_set)
            expected = shortest_path_cost(small_network, source, target)
            observed = shortest_path(subgraph, source, target).cost
            assert math.isclose(observed, expected, rel_tol=1e-9)

    def test_symmetric_network_gives_symmetric_sets(self, border_products, partitioning):
        """Our generators add both edge directions, so S_ij == S_ji."""
        region_ids = list(partitioning.region_ids())[:6]
        for region_i in region_ids:
            for region_j in region_ids:
                assert border_products.region_set(region_i, region_j) == border_products.region_set(
                    region_j, region_i
                )

    def test_missing_pair_returns_empty_set(self, border_products):
        assert border_products.region_set(10_000, 10_001) == frozenset()


class TestPassageSubgraphs:
    def test_subgraph_edges_exist_in_network(self, small_network, border_products):
        for edges in border_products.passage_subgraphs.values():
            for source, target in edges:
                assert small_network.has_edge(source, target)

    def test_subgraph_covering_guarantee(
        self, small_network, partitioning, border_products, rng
    ):
        """R_s, R_t region data plus G_st edges contain a true shortest path."""
        from repro.network import RoadNetwork

        node_ids = list(small_network.node_ids())
        for _ in range(8):
            source = rng.choice(node_ids)
            target = rng.choice(node_ids)
            region_s = partitioning.region_of_node(source)
            region_t = partitioning.region_of_node(target)
            graph = RoadNetwork()
            keep = set(partitioning.region(region_s).node_ids) | set(
                partitioning.region(region_t).node_ids
            )
            for node_id in keep:
                node = small_network.node(node_id)
                graph.add_node(node_id, node.x, node.y)
            for node_id in keep:
                for neighbor, weight in small_network.neighbors(node_id):
                    if neighbor in keep:
                        graph.add_edge(node_id, neighbor, weight)
            for edge_source, edge_target in border_products.passage_subgraph(region_s, region_t):
                if edge_source not in graph:
                    graph.add_node(edge_source, 0.0, 0.0)
                if edge_target not in graph:
                    graph.add_node(edge_target, 0.0, 0.0)
                if not graph.has_edge(edge_source, edge_target):
                    graph.add_edge(
                        edge_source, edge_target, small_network.edge_weight(edge_source, edge_target)
                    )
            expected = shortest_path_cost(small_network, source, target)
            observed = shortest_path(graph, source, target).cost
            assert math.isclose(observed, expected, rel_tol=1e-9)

    def test_restricted_pairs_only(self, small_network, partitioning, border_index):
        pairs = [(0, 1), (1, 0)]
        products = compute_border_products(
            small_network,
            partitioning,
            border_index,
            want_region_sets=False,
            want_subgraphs=True,
            subgraph_pairs=pairs,
        )
        assert set(products.passage_subgraphs) == set(pairs)
        assert not products.region_sets

    def test_nothing_requested_returns_empty(self, small_network, partitioning, border_index):
        products = compute_border_products(
            small_network,
            partitioning,
            border_index,
            want_region_sets=False,
            want_subgraphs=False,
        )
        assert not products.region_sets
        assert not products.passage_subgraphs
