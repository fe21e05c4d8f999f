"""Property-based tests on graph algorithms and the XOR PIR."""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.network import (
    bidirectional_dijkstra,
    dijkstra_tree,
    grid_network,
    shortest_path,
)
from repro.pir import answer_shares, draw_shares, make_kernel


def graph_strategy():
    """Small random grid networks (always connected, deterministic per draw)."""
    return st.builds(
        grid_network,
        rows=st.integers(min_value=2, max_value=5),
        cols=st.integers(min_value=2, max_value=5),
        jitter=st.just(0.2),
        drop_fraction=st.just(0.0),
        seed=st.integers(min_value=0, max_value=1000),
    )


class TestShortestPathProperties:
    @settings(max_examples=25, deadline=None)
    @given(graph_strategy(), st.data())
    def test_triangle_inequality_of_distances(self, network, data):
        node_ids = list(network.node_ids())
        source = data.draw(st.sampled_from(node_ids))
        middle = data.draw(st.sampled_from(node_ids))
        target = data.draw(st.sampled_from(node_ids))
        tree = dijkstra_tree(network, source)
        middle_tree = dijkstra_tree(network, middle)
        direct = tree.distance_to(target)
        via_middle = tree.distance_to(middle) + middle_tree.distance_to(target)
        assert direct <= via_middle + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(graph_strategy(), st.data())
    def test_path_cost_equals_edge_weight_sum(self, network, data):
        node_ids = list(network.node_ids())
        source = data.draw(st.sampled_from(node_ids))
        target = data.draw(st.sampled_from(node_ids))
        path = shortest_path(network, source, target)
        total = sum(network.edge_weight(a, b) for a, b in path.edges())
        assert math.isclose(path.cost, total, rel_tol=1e-9, abs_tol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(graph_strategy(), st.data())
    def test_bidirectional_agrees_with_unidirectional(self, network, data):
        node_ids = list(network.node_ids())
        source = data.draw(st.sampled_from(node_ids))
        target = data.draw(st.sampled_from(node_ids))
        forward = shortest_path(network, source, target).cost
        both = bidirectional_dijkstra(network, source, target).cost
        assert math.isclose(forward, both, rel_tol=1e-9, abs_tol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(graph_strategy(), st.data())
    def test_symmetric_network_distances_are_symmetric(self, network, data):
        node_ids = list(network.node_ids())
        source = data.draw(st.sampled_from(node_ids))
        target = data.draw(st.sampled_from(node_ids))
        assert math.isclose(
            shortest_path(network, source, target).cost,
            shortest_path(network, target, source).cost,
            rel_tol=1e-9,
            abs_tol=1e-12,
        )


class TestXorPirProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.binary(min_size=16, max_size=16), min_size=1, max_size=12),
        st.data(),
    )
    def test_any_block_can_be_retrieved(self, blocks, data):
        kernel = make_kernel(blocks)
        index = data.draw(st.integers(min_value=0, max_value=len(blocks) - 1))
        shares = draw_shares(random.Random(index), len(blocks), [index])
        assert answer_shares(kernel, *shares) == [blocks[index]]
