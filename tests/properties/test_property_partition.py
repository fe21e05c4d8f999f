"""Property-based tests on partitioning invariants."""

from hypothesis import given, settings, strategies as st

from networks import validate_partitioning
from repro.network import random_planar_network
from repro.partition import (
    node_record_size,
    packed_kdtree_partition,
    plain_kdtree_partition,
)


def network_strategy():
    return st.builds(
        random_planar_network,
        num_nodes=st.integers(min_value=30, max_value=120),
        edge_factor=st.floats(min_value=1.0, max_value=1.3),
        seed=st.integers(min_value=0, max_value=500),
    )


PARTITIONERS = [plain_kdtree_partition, packed_kdtree_partition]


class TestPartitioningInvariants:
    @settings(max_examples=15, deadline=None)
    @given(network_strategy(), st.sampled_from(PARTITIONERS), st.integers(min_value=300, max_value=900))
    def test_partition_is_exact_cover(self, network, partition_fn, capacity):
        partitioning = partition_fn(network, capacity)
        assigned = sorted(
            node_id for region in partitioning.regions() for node_id in region.node_ids
        )
        assert assigned == sorted(network.node_ids())

    @settings(max_examples=15, deadline=None)
    @given(network_strategy(), st.sampled_from(PARTITIONERS), st.integers(min_value=300, max_value=900))
    def test_every_region_fits_its_page(self, network, partition_fn, capacity):
        partitioning = partition_fn(network, capacity)
        for region in partitioning.regions():
            payload = sum(node_record_size(network, node_id) for node_id in region.node_ids)
            assert payload <= capacity

    @settings(max_examples=15, deadline=None)
    @given(network_strategy(), st.sampled_from(PARTITIONERS), st.integers(min_value=300, max_value=900))
    def test_split_tree_maps_every_node_to_its_region(self, network, partition_fn, capacity):
        partitioning = partition_fn(network, capacity)
        validate_partitioning(partitioning)
