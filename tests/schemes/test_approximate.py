"""Tests for the Approximate Passage Index scheme (APX)."""

import pytest

from networks import has_edge
from repro.exceptions import SchemeError
from repro.network import shortest_path_cost
from repro.privacy import check_indistinguishability
from repro.schemes import (
    ApproximatePassageIndexScheme,
    DATA_FILE,
    INDEX_FILE,
    LOOKUP_FILE,
    measure_cost_deviation,
)

EPSILON = 0.25


@pytest.fixture(scope="module")
def apx_scheme(small_network, tiny_spec, partitioning, border_index):
    return ApproximatePassageIndexScheme.build(
        small_network,
        epsilon=EPSILON,
        spec=tiny_spec,
        partitioning=partitioning,
        border_index=border_index,
    )


class TestApproximateBuild:
    def test_negative_epsilon_rejected(self, small_network, tiny_spec):
        with pytest.raises(SchemeError):
            ApproximatePassageIndexScheme.build(small_network, epsilon=-0.5, spec=tiny_spec)

    def test_scheme_name_and_bound(self, apx_scheme):
        assert apx_scheme.name == "APX"
        assert apx_scheme.epsilon == pytest.approx(EPSILON)
        assert apx_scheme.deviation_bound == pytest.approx(1.0 + EPSILON)

    def test_same_file_layout_as_pi(self, apx_scheme, pi_scheme):
        assert set(apx_scheme.database.file_names()) == set(pi_scheme.database.file_names())
        assert apx_scheme.plan.num_rounds == pi_scheme.plan.num_rounds == 3

    def test_index_is_no_larger_than_exact_pi(self, apx_scheme, pi_scheme):
        apx_pages = apx_scheme.database.file(INDEX_FILE).num_pages
        pi_pages = pi_scheme.database.file(INDEX_FILE).num_pages
        assert apx_pages <= pi_pages

    def test_storage_no_larger_than_exact_pi(self, apx_scheme, pi_scheme):
        assert apx_scheme.database.total_size_bytes <= pi_scheme.database.total_size_bytes

    def test_sparsification_stats_attached(self, apx_scheme):
        stats = apx_scheme.sparsification_stats
        assert stats.epsilon == pytest.approx(EPSILON)
        assert stats.pairs_selected + stats.pairs_skipped == stats.pairs_total


class TestApproximateQueries:
    def test_returned_paths_are_valid_and_within_bound(
        self, apx_scheme, small_network, query_pairs
    ):
        for source, target in query_pairs:
            result = apx_scheme.query(source, target)
            path = result.path
            assert path.source == source
            assert path.target == target
            # every hop is a real network edge
            for a, b in path.edges():
                assert has_edge(small_network, a, b)
            exact = shortest_path_cost(small_network, source, target)
            assert path.cost <= (1.0 + EPSILON) * exact * (1.0 + 1e-4) + 1e-9
            assert path.cost >= exact * (1.0 - 1e-4) - 1e-9

    def test_zero_epsilon_returns_exact_costs(
        self, small_network, tiny_spec, partitioning, border_index, query_pairs
    ):
        scheme = ApproximatePassageIndexScheme.build(
            small_network,
            epsilon=0.0,
            spec=tiny_spec,
            partitioning=partitioning,
            border_index=border_index,
        )
        for source, target in query_pairs:
            result = scheme.query(source, target)
            exact = shortest_path_cost(small_network, source, target)
            assert result.path.cost == pytest.approx(exact, rel=1e-4)

    def test_adversary_views_identical_across_queries(self, apx_scheme, query_pairs):
        results = [apx_scheme.query(source, target) for source, target in query_pairs]
        report = check_indistinguishability(results, apx_scheme.plan)
        assert report.leaks_nothing

    def test_plan_files_touched(self, apx_scheme, query_pairs):
        source, target = query_pairs[0]
        result = apx_scheme.query(source, target)
        accesses = result.pages_per_file
        assert accesses[LOOKUP_FILE] == 1
        assert accesses[DATA_FILE] == apx_scheme.header.data_round_pages
        assert accesses[INDEX_FILE] == apx_scheme.header.index_fetch_pages


class TestMeasureCostDeviation:
    def test_ratios_within_bound(self, apx_scheme, small_network, query_pairs):
        ratios = measure_cost_deviation(apx_scheme, small_network, query_pairs)
        assert len(ratios) == len(query_pairs)
        for ratio in ratios:
            assert 1.0 - 1e-4 <= ratio <= (1.0 + EPSILON) * (1.0 + 1e-4)

    def test_same_source_and_target_reports_ratio_one(self, apx_scheme, small_network):
        node = next(small_network.node_ids())
        ratios = measure_cost_deviation(apx_scheme, small_network, [(node, node)])
        assert ratios == [1.0]
