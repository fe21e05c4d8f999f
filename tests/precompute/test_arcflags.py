"""Tests for arc-flag pre-computation."""

import math

import pytest

from repro.network import shortest_path, shortest_path_cost
from repro.precompute import build_arc_flags


@pytest.fixture(scope="module")
def arc_flags(request):
    network = request.getfixturevalue("small_network")
    partitioning = request.getfixturevalue("partitioning")
    border_index = request.getfixturevalue("border_index")
    return build_arc_flags(network, partitioning, border_index)


class TestArcFlags:
    def test_every_edge_has_a_flag_vector(self, small_network, arc_flags):
        for edge in small_network.edges():
            assert (edge.source, edge.target) in arc_flags.flags

    def test_edges_into_a_region_are_flagged_for_it(self, small_network, partitioning, arc_flags):
        for edge in small_network.edges():
            head_region = partitioning.region_of_node(edge.target)
            assert arc_flags.is_useful(edge.source, edge.target, head_region)

    def test_flags_prune_a_meaningful_fraction_of_edges(self, arc_flags):
        """Arc flags are only useful if most region bits are unset."""
        set_bits = sum(len(regions) for regions in arc_flags.flags.values())
        assert 0.0 < set_bits / (len(arc_flags.flags) * arc_flags.num_regions) < 0.9

    def test_restricted_search_preserves_shortest_path_costs(
        self, small_network, partitioning, arc_flags, rng
    ):
        """Soundness: pruning unflagged edges never changes the shortest-path cost."""
        from repro.network import RoadNetwork

        node_ids = list(small_network.node_ids())
        for _ in range(8):
            source = rng.choice(node_ids)
            target = rng.choice(node_ids)
            destination_region = partitioning.region_of_node(target)
            restricted = RoadNetwork()
            for node in small_network.nodes():
                restricted.add_node(node.node_id, node.x, node.y)
            for edge in small_network.edges():
                if arc_flags.is_useful(edge.source, edge.target, destination_region):
                    restricted.add_edge(edge.source, edge.target, edge.weight)
            expected = shortest_path_cost(small_network, source, target)
            observed = shortest_path(restricted, source, target).cost
            assert math.isclose(observed, expected, rel_tol=1e-9)

    def test_bit_vector_width_and_contents(self, partitioning, small_network, arc_flags):
        edge = next(iter(small_network.edges()))
        vector = arc_flags.bit_vector(edge.source, edge.target)
        assert len(vector) == (partitioning.num_regions + 7) // 8
        flagged = arc_flags.flags[(edge.source, edge.target)]
        for region in flagged:
            assert vector[region // 8] & (1 << (region % 8))

    def test_unknown_edge_is_never_useful(self, arc_flags):
        assert not arc_flags.is_useful(10**6, 10**6 + 1, 0)
