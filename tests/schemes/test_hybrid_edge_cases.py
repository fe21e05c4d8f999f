"""Edge cases of the Hybrid scheme's replacement threshold."""

import math

import pytest

from repro.exceptions import SchemeError
from repro.network import shortest_path_cost
from repro.schemes import HybridScheme


@pytest.fixture(scope="module")
def shared(request):
    return {
        "network": request.getfixturevalue("small_network"),
        "spec": request.getfixturevalue("tiny_spec"),
        "partitioning": request.getfixturevalue("partitioning"),
        "border_index": request.getfixturevalue("border_index"),
        "products": request.getfixturevalue("border_products"),
    }


def build_hybrid(shared, threshold, subgraphs=None):
    return HybridScheme.build(
        shared["network"],
        spec=shared["spec"],
        region_set_threshold=threshold,
        partitioning=shared["partitioning"],
        border_index=shared["border_index"],
        products=shared["products"],
        passage_subgraphs=subgraphs,
    )


class TestHybridThresholdExtremes:
    def test_threshold_above_m_degenerates_to_region_sets_only(self, shared, query_pairs):
        max_size = shared["products"].max_region_set_size()
        scheme = build_hybrid(shared, threshold=max_size + 1)
        assert scheme.num_replaced_pairs == 0
        source, target = query_pairs[0]
        result = scheme.query(source, target)
        expected = shortest_path_cost(shared["network"], source, target)
        assert math.isclose(result.path.cost, expected, rel_tol=1e-4)
        assert result.adversary_view == scheme.plan.expected_adversary_view()

    def test_threshold_zero_replaces_every_nonempty_pair(self, shared, query_pairs):
        scheme = build_hybrid(
            shared, threshold=0, subgraphs=shared["products"].passage_subgraphs
        )
        nonempty = sum(1 for s in shared["products"].region_sets.values() if len(s) > 0)
        assert scheme.num_replaced_pairs == nonempty
        for source, target in query_pairs[:3]:
            result = scheme.query(source, target)
            expected = shortest_path_cost(shared["network"], source, target)
            assert math.isclose(result.path.cost, expected, rel_tol=1e-4)
            assert result.adversary_view == scheme.plan.expected_adversary_view()

    def test_lower_threshold_means_more_space_and_fewer_final_round_pages(self, shared):
        max_size = shared["products"].max_region_set_size()
        loose = build_hybrid(shared, threshold=max_size + 1)
        tight = build_hybrid(
            shared, threshold=max(1, max_size // 4), subgraphs=shared["products"].passage_subgraphs
        )
        assert tight.database.total_size_bytes >= loose.database.total_size_bytes
        assert tight.plan.rounds[-1].total_pages <= loose.plan.rounds[-1].total_pages

    def test_missing_subgraphs_for_replaced_pairs_rejected(self, shared):
        with pytest.raises(SchemeError):
            build_hybrid(shared, threshold=1, subgraphs={})
