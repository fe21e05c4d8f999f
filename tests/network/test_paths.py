"""Tests for path objects."""

import pytest

from repro.network import Path


class TestPath:
    def test_endpoints_and_counts(self):
        path = Path((0, 1, 2, 3), 6.0)
        assert path.cost == pytest.approx(6.0)
        assert path.source == 0
        assert path.target == 3
        assert path.num_edges == 3
        assert len(path) == 4

    def test_edges_listing(self):
        path = Path((0, 1, 2), 3.0)
        assert path.edges() == [(0, 1), (1, 2)]

    def test_single_node_path(self):
        path = Path((2,), 0.0)
        assert path.cost == 0.0
        assert path.num_edges == 0
