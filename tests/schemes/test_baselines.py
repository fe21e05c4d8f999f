"""Tests specific to the LM, AF and OBF baselines."""

import math

import pytest

from repro.exceptions import PlanViolationError
from repro.network import shortest_path_cost
from repro.schemes import DATA_FILE, LandmarkScheme, ObfuscationScheme, generate_plan_pairs


class TestLandmarkBaseline:
    def test_plan_is_one_header_round_then_page_rounds(self, landmark_scheme):
        plan = landmark_scheme.plan
        assert plan.rounds[0].includes_header
        assert plan.rounds[1].fetches == ((DATA_FILE, 2),)
        for round_spec in plan.rounds[2:]:
            assert round_spec.fetches == ((DATA_FILE, 1),)
        assert plan.total_pir_pages() == landmark_scheme.max_pages

    def test_more_landmarks_means_bigger_database(self, small_network, tiny_spec, query_pairs):
        small = LandmarkScheme.build(
            small_network, spec=tiny_spec, num_landmarks=2, plan_pairs=query_pairs
        )
        large = LandmarkScheme.build(
            small_network, spec=tiny_spec, num_landmarks=8, plan_pairs=query_pairs
        )
        assert large.database.total_size_bytes > small.database.total_size_bytes

    def test_query_outside_plan_pairs_may_violate_plan(self, small_network, tiny_spec):
        """A plan derived from too small a sample is rejected loudly, never silently leaked."""
        trivial_pairs = [(0, 0)]
        scheme = LandmarkScheme.build(
            small_network, spec=tiny_spec, num_landmarks=2, plan_pairs=trivial_pairs
        )
        far_pairs = generate_plan_pairs(small_network, count=30, seed=3)
        saw_violation = False
        for source, target in far_pairs:
            try:
                scheme.query(source, target)
            except PlanViolationError:
                saw_violation = True
                break
        assert saw_violation

    def test_reads_large_fraction_of_database(self, landmark_scheme):
        """The fixed plan forces every query to pay for the worst query."""
        data_pages = landmark_scheme.database.file(DATA_FILE).num_pages
        assert landmark_scheme.max_pages >= data_pages * 0.2


class TestArcFlagBaseline:
    def test_pages_per_region_at_least_one(self, arcflag_scheme):
        assert arcflag_scheme.pages_per_region >= 1
        data_pages = arcflag_scheme.database.file(DATA_FILE).num_pages
        expected = arcflag_scheme.partitioning.num_regions * arcflag_scheme.pages_per_region
        assert data_pages == expected

    def test_af_database_larger_than_raw_network(self, arcflag_scheme, ci_scheme):
        """Arc-flag bit vectors inflate the region data beyond CI's plain region data."""
        assert (
            arcflag_scheme.database.file(DATA_FILE).num_pages
            >= ci_scheme.database.file(DATA_FILE).num_pages
        )

    def test_plan_pages_are_multiples_of_region_pages(self, arcflag_scheme):
        for round_spec in arcflag_scheme.plan.rounds[1:]:
            data_pages = dict(round_spec.fetches).get(DATA_FILE, 0)
            assert data_pages % arcflag_scheme.pages_per_region == 0


class TestObfuscationBaseline:
    def test_returns_true_shortest_path(self, small_network, query_pairs, tiny_spec):
        scheme = ObfuscationScheme(small_network, spec=tiny_spec, set_size=5)
        source, target = query_pairs[0]
        result = scheme.query(source, target)
        expected = shortest_path_cost(small_network, source, target)
        assert math.isclose(result.path.cost, expected, rel_tol=1e-9)
        assert result.candidate_paths == 25

    def test_response_grows_quadratically_with_set_size(self, small_network, query_pairs, tiny_spec):
        source, target = query_pairs[0]
        small = ObfuscationScheme(small_network, spec=tiny_spec, set_size=5).query(source, target)
        large = ObfuscationScheme(small_network, spec=tiny_spec, set_size=20).query(source, target)
        assert large.response.server_s > 10 * small.response.server_s

    def test_decoys_exclude_the_real_location(self, small_network, tiny_spec):
        scheme = ObfuscationScheme(small_network, spec=tiny_spec, set_size=10)
        decoys = scheme.choose_decoys(exclude=3, count=9)
        assert len(decoys) == 9
        assert 3 not in decoys
        assert len(set(decoys)) == 9

    def test_invalid_set_size(self, small_network, tiny_spec):
        from repro.exceptions import SchemeError

        with pytest.raises(SchemeError):
            ObfuscationScheme(small_network, spec=tiny_spec, set_size=0)

    def test_too_many_decoys_rejected(self, tiny_grid, tiny_spec):
        from repro.exceptions import SchemeError

        scheme = ObfuscationScheme(tiny_grid, spec=tiny_spec, set_size=5)
        with pytest.raises(SchemeError):
            scheme.choose_decoys(exclude=0, count=tiny_grid.num_nodes)
