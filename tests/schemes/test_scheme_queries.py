"""Cross-scheme query tests: correctness, plan conformance and indistinguishability.

These are the executable counterparts of the paper's two central claims:

* every scheme returns a true shortest path (same cost as plain Dijkstra on
  the full network), and
* every query produces exactly the adversary view prescribed by the scheme's
  public query plan, so any two queries are indistinguishable (Theorem 1).
"""

import math

import pytest

from repro.network import shortest_path_cost
from repro.privacy import check_indistinguishability

SCHEME_FIXTURES = [
    "ci_scheme",
    "pi_scheme",
    "hybrid_scheme",
    "clustered_scheme",
    "landmark_scheme",
    "arcflag_scheme",
]


@pytest.fixture(params=SCHEME_FIXTURES)
def any_scheme(request):
    return request.getfixturevalue(request.param)


class TestQueryCorrectness:
    def test_returns_true_shortest_path_cost(self, any_scheme, small_network, query_pairs):
        for source, target in query_pairs:
            result = any_scheme.query(source, target)
            expected = shortest_path_cost(small_network, source, target)
            assert math.isclose(result.path.cost, expected, rel_tol=1e-4), (
                any_scheme.name,
                source,
                target,
            )
            assert result.path.source == source
            assert result.path.target == target

    def test_path_edges_exist_in_network(self, any_scheme, small_network, query_pairs):
        source, target = query_pairs[0]
        result = any_scheme.query(source, target)
        for edge_source, edge_target in result.path.edges():
            assert small_network.has_edge(edge_source, edge_target)

    def test_source_equals_target(self, any_scheme, small_network):
        some_node = next(iter(small_network.node_ids()))
        result = any_scheme.query(some_node, some_node)
        assert result.path.cost == 0.0
        assert result.path.nodes == (some_node,)

    def test_query_by_coordinates(self, any_scheme, small_network, query_pairs):
        source, target = query_pairs[1]
        source_node = small_network.node(source)
        target_node = small_network.node(target)
        result = any_scheme.query_by_coordinates(
            (source_node.x, source_node.y), (target_node.x, target_node.y)
        )
        expected = shortest_path_cost(small_network, source, target)
        assert math.isclose(result.path.cost, expected, rel_tol=1e-4)


class TestPrivacy:
    def test_all_queries_follow_the_plan(self, any_scheme, query_pairs):
        expected_view = any_scheme.plan.expected_adversary_view()
        for source, target in query_pairs:
            result = any_scheme.query(source, target)
            assert result.adversary_view == expected_view

    def test_queries_are_pairwise_indistinguishable(self, any_scheme, query_pairs):
        results = [any_scheme.query(source, target) for source, target in query_pairs[:4]]
        report = check_indistinguishability(results, any_scheme.plan)
        assert report.leaks_nothing
        assert report.distinct_views == 1

    def test_repeated_identical_query_looks_like_any_other(self, any_scheme, query_pairs):
        """Re-executing the same query is indistinguishable from a different query."""
        source, target = query_pairs[0]
        other_source, other_target = query_pairs[1]
        repeat_one = any_scheme.query(source, target)
        repeat_two = any_scheme.query(source, target)
        different = any_scheme.query(other_source, other_target)
        assert repeat_one.adversary_view == repeat_two.adversary_view == different.adversary_view

    def test_adversary_never_sees_page_numbers(self, any_scheme, query_pairs):
        source, target = query_pairs[0]
        result = any_scheme.query(source, target)
        for event in result.adversary_view.events:
            assert event.kind in ("header", "pir")
            assert not hasattr(event, "page_number")


class TestRoundBatching:
    def test_one_retrieval_call_per_round_and_file(self, any_scheme, query_pairs, monkeypatch):
        """Real pages and padding of a (round, file) travel as one batch."""
        calls = []
        retrieve_pages = any_scheme.pir.retrieve_pages

        def recording(file_name, page_numbers, trace=None):
            calls.append((file_name, len(page_numbers)))
            return retrieve_pages(file_name, page_numbers, trace)

        monkeypatch.setattr(any_scheme.pir, "retrieve_pages", recording)
        planned = [
            fetch for round_spec in any_scheme.plan.rounds for fetch in round_spec.fetches
        ]
        for source, target in query_pairs[:3]:
            calls.clear()
            any_scheme.query(source, target)
            assert calls == planned


class TestCostAccounting:
    def test_response_time_components_are_positive(self, any_scheme, query_pairs):
        source, target = query_pairs[0]
        result = any_scheme.query(source, target)
        assert result.response.pir_s > 0
        assert result.response.communication_s > 0
        assert result.response.total_s > result.response.pir_s

    def test_total_pir_pages_match_plan(self, any_scheme, query_pairs):
        source, target = query_pairs[0]
        result = any_scheme.query(source, target)
        assert result.total_pir_pages == any_scheme.plan.total_pir_pages()

    def test_storage_accounting(self, any_scheme):
        assert any_scheme.storage_bytes > 0
        assert any_scheme.storage_mb == pytest.approx(any_scheme.storage_bytes / 2**20)
