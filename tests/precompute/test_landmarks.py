"""Tests for landmark (ALT) pre-computation."""

import math

import pytest

from networks import bounding_box
from repro.exceptions import GraphError
from repro.network import dijkstra_tree, shortest_path_cost
from repro.precompute import build_landmark_index, select_anchors


@pytest.fixture(scope="module")
def landmark_index(request):
    network = request.getfixturevalue("medium_network")
    return build_landmark_index(network, num_anchors=4, seed=2)


class TestAnchorSelection:
    def test_requested_count(self, medium_network):
        anchors = select_anchors(medium_network, 6, seed=1)
        assert len(anchors) == 6
        assert len(set(anchors)) == 6

    def test_too_many_anchors_rejected(self, medium_network):
        with pytest.raises(GraphError):
            select_anchors(medium_network, medium_network.num_nodes + 1)

    def test_zero_anchors_rejected(self, medium_network):
        with pytest.raises(GraphError):
            select_anchors(medium_network, 0)

    def test_anchors_are_spread_out(self, medium_network):
        """Farthest-point selection should not return clustered anchors."""
        anchors = select_anchors(medium_network, 4, seed=3)
        min_x, min_y, max_x, max_y = bounding_box(medium_network)
        diagonal = math.hypot(max_x - min_x, max_y - min_y)
        pairwise = [
            medium_network.euclidean_distance(a, b)
            for i, a in enumerate(anchors)
            for b in anchors[i + 1:]
        ]
        assert min(pairwise) > diagonal / 10


class TestLandmarkIndex:
    def test_vectors_cover_all_nodes(self, medium_network, landmark_index):
        assert set(landmark_index.vectors) == set(medium_network.node_ids())
        for vector in landmark_index.vectors.values():
            assert len(vector) == landmark_index.num_anchors

    def test_vectors_are_true_distances(self, medium_network, landmark_index):
        anchor = landmark_index.anchors[0]
        tree = dijkstra_tree(medium_network, anchor)
        for node_id in list(medium_network.node_ids())[::53]:
            assert landmark_index.vector(node_id)[0] == pytest.approx(tree.distance_to(node_id))

    def test_lower_bound_is_admissible(self, medium_network, landmark_index, rng):
        node_ids = list(medium_network.node_ids())
        for _ in range(10):
            source = rng.choice(node_ids)
            target = rng.choice(node_ids)
            bound = landmark_index.lower_bound(source, target)
            true_cost = shortest_path_cost(medium_network, source, target)
            assert bound <= true_cost + 1e-9

    def test_lower_bound_is_zero_for_same_node(self, medium_network, landmark_index):
        some_node = next(iter(medium_network.node_ids()))
        assert landmark_index.lower_bound(some_node, some_node) == 0.0

    def test_heuristic_matches_lower_bound(self, medium_network, landmark_index):
        node_ids = list(medium_network.node_ids())
        heuristic = landmark_index.heuristic_for(node_ids[7])
        assert heuristic(node_ids[3]) == pytest.approx(
            landmark_index.lower_bound(node_ids[3], node_ids[7])
        )
