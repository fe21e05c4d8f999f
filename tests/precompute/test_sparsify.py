"""Tests for the approximate (bounded-deviation) passage-subgraph pre-computation."""

import pytest

from repro.exceptions import PartitionError
from repro.precompute import (
    ApproximateProducts,
    BorderProducts,
    compute_approximate_passage_subgraphs,
)
from repro.precompute.sparsify import _bounded_reachable


@pytest.fixture(scope="module")
def approx_products(small_network, partitioning, border_index):
    return compute_approximate_passage_subgraphs(
        small_network, partitioning, border_index, epsilon=0.2
    )


@pytest.fixture(scope="module")
def exact_subgraphs(small_network, partitioning, border_index, border_products):
    return border_products.passage_subgraphs


class TestBoundedReachable:
    def test_trivial_same_node(self):
        assert _bounded_reachable({}, 5, 5, 0.0)

    def test_unknown_source(self):
        assert not _bounded_reachable({}, 1, 2, 10.0)

    def test_simple_path_within_budget(self):
        adjacency = {1: [(2, 1.0)], 2: [(3, 1.0)]}
        assert _bounded_reachable(adjacency, 1, 3, 2.0)
        assert not _bounded_reachable(adjacency, 1, 3, 1.9)

    def test_disconnected_target(self):
        adjacency = {1: [(2, 1.0)]}
        assert not _bounded_reachable(adjacency, 1, 99, 100.0)

    def test_picks_cheapest_route(self):
        adjacency = {1: [(2, 5.0), (3, 1.0)], 3: [(2, 1.0)]}
        assert _bounded_reachable(adjacency, 1, 2, 2.0)


class TestApproximateProducts:
    def test_negative_epsilon_rejected(self, small_network, partitioning, border_index):
        with pytest.raises(PartitionError):
            compute_approximate_passage_subgraphs(
                small_network, partitioning, border_index, epsilon=-0.1
            )

    def test_covers_all_region_pairs(self, approx_products, partitioning):
        expected_pairs = {
            (i, j) for i in partitioning.region_ids() for j in partitioning.region_ids()
        }
        assert set(approx_products.passage_subgraphs.keys()) == expected_pairs

    def test_subgraphs_are_subsets_of_exact_ones(self, approx_products, exact_subgraphs):
        for key, edges in approx_products.passage_subgraphs.items():
            assert edges <= exact_subgraphs[key]

    def test_total_edges_do_not_exceed_exact(self, approx_products, exact_subgraphs):
        approx_total = sum(len(edges) for edges in approx_products.passage_subgraphs.values())
        exact_total = sum(len(edges) for edges in exact_subgraphs.values())
        assert approx_total <= exact_total
        assert approx_total > 0

    def test_stats_are_consistent(self, approx_products):
        stats = approx_products.stats
        assert stats.pairs_selected + stats.pairs_skipped == stats.pairs_total
        assert stats.kept_edges <= stats.exact_edges

    def test_deviation_bound(self, approx_products):
        assert approx_products.deviation_bound == pytest.approx(1.2)

    def test_as_border_products(self, approx_products):
        repackaged = approx_products.as_border_products()
        assert isinstance(repackaged, BorderProducts)
        assert repackaged.passage_subgraphs == approx_products.passage_subgraphs
        assert repackaged.region_sets == {}

    def test_zero_epsilon_still_skips_covered_pairs(
        self, small_network, partitioning, border_index
    ):
        products = compute_approximate_passage_subgraphs(
            small_network, partitioning, border_index, epsilon=0.0
        )
        # epsilon = 0 deduplicates border pairs whose exact paths are nested
        # inside other selected paths; some skipping always happens on a
        # non-trivial network.
        assert products.stats.pairs_skipped > 0
        assert products.stats.kept_edges <= products.stats.exact_edges

    def test_larger_epsilon_never_increases_selection(
        self, small_network, partitioning, border_index, approx_products
    ):
        loose = compute_approximate_passage_subgraphs(
            small_network, partitioning, border_index, epsilon=1.0
        )
        assert loose.stats.pairs_selected <= approx_products.stats.pairs_total
        assert loose.stats.kept_edges <= loose.stats.exact_edges
