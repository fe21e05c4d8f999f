"""Scheme-specific structural tests for CI, PI, HY and PI*."""

import pytest

from repro.schemes import (
    COMBINED_FILE,
    DATA_FILE,
    INDEX_FILE,
    LOOKUP_FILE,
)


class TestConciseIndexStructure:
    def test_four_files_plus_header(self, ci_scheme):
        names = set(ci_scheme.database.file_names())
        assert names == {LOOKUP_FILE, INDEX_FILE, DATA_FILE}
        assert ci_scheme.database.header_size_bytes > 0

    def test_plan_shape(self, ci_scheme):
        plan = ci_scheme.plan
        assert plan.num_rounds == 4
        assert plan.rounds[0].includes_header
        assert plan.rounds[1].fetches == ((LOOKUP_FILE, 1),)
        assert plan.rounds[2].fetches[0][0] == INDEX_FILE
        assert plan.rounds[3].fetches == ((DATA_FILE, ci_scheme.max_region_set_size + 2),)

    def test_one_data_page_per_region(self, ci_scheme):
        assert ci_scheme.database.file(DATA_FILE).num_pages == ci_scheme.partitioning.num_regions

    def test_m_matches_precomputation(self, ci_scheme, border_products):
        assert ci_scheme.max_region_set_size == border_products.max_region_set_size()

    def test_header_decodes_to_scheme_parameters(self, ci_scheme):
        from repro.schemes import HeaderInfo

        header = HeaderInfo.decode(ci_scheme.database.header)
        assert header.scheme_name == "CI"
        assert header.num_regions == ci_scheme.partitioning.num_regions
        assert header.data_round_pages == ci_scheme.max_region_set_size + 2


class TestPassageIndexStructure:
    def test_three_round_plan(self, pi_scheme):
        plan = pi_scheme.plan
        assert plan.num_rounds == 3
        last_round_files = [name for name, _ in plan.rounds[2].fetches]
        assert last_round_files == [INDEX_FILE, DATA_FILE]
        assert dict(plan.rounds[2].fetches).get(DATA_FILE, 0) == 2

    def test_pi_fetches_fewer_data_pages_than_ci(self, ci_scheme, pi_scheme):
        assert pi_scheme.plan.pages_per_file()[DATA_FILE] < ci_scheme.plan.pages_per_file()[DATA_FILE]

    def test_pi_index_is_larger_than_ci_index(self, ci_scheme, pi_scheme):
        ci_index = ci_scheme.database.file(INDEX_FILE).num_pages
        pi_index = pi_scheme.database.file(INDEX_FILE).num_pages
        assert pi_index > ci_index

    def test_pi_storage_exceeds_ci_storage(self, ci_scheme, pi_scheme):
        assert pi_scheme.storage_mb > ci_scheme.storage_mb


class TestHybridStructure:
    def test_combined_file_only(self, hybrid_scheme):
        names = set(hybrid_scheme.database.file_names())
        assert names == {LOOKUP_FILE, COMBINED_FILE}

    def test_replacement_happened(self, hybrid_scheme, border_products):
        threshold = hybrid_scheme.region_set_threshold
        expected = sum(
            1
            for regions in border_products.region_sets.values()
            if len(regions) > threshold
        )
        assert hybrid_scheme.num_replaced_pairs == expected
        assert hybrid_scheme.num_replaced_pairs > 0

    def test_final_round_smaller_than_ci(self, hybrid_scheme, ci_scheme):
        hybrid_last = hybrid_scheme.plan.rounds[-1].total_pages
        ci_last = ci_scheme.plan.rounds[-1].total_pages
        assert hybrid_last <= ci_last

    def test_storage_between_ci_and_pi(self, ci_scheme, hybrid_scheme, pi_scheme):
        assert ci_scheme.storage_mb <= hybrid_scheme.storage_mb <= pi_scheme.storage_mb * 1.05


class TestClusteredStructure:
    def test_cluster_pages_reflected_in_plan(self, clustered_scheme):
        cluster = clustered_scheme.cluster_pages
        assert cluster == 2
        assert dict(clustered_scheme.plan.rounds[-1].fetches).get(DATA_FILE, 0) == 2 * cluster

    def test_fewer_regions_than_single_page_scheme(self, clustered_scheme, ci_scheme):
        assert clustered_scheme.partitioning.num_regions < ci_scheme.partitioning.num_regions

    def test_smaller_index_than_pi(self, clustered_scheme, pi_scheme):
        clustered_index = clustered_scheme.database.file(INDEX_FILE).num_pages
        pi_index = pi_scheme.database.file(INDEX_FILE).num_pages
        assert clustered_index < pi_index

    def test_invalid_cluster_size_rejected(self, small_network, tiny_spec):
        from repro.exceptions import SchemeError
        from repro.schemes import ClusteredPassageIndexScheme

        with pytest.raises(SchemeError):
            ClusteredPassageIndexScheme.build(small_network, spec=tiny_spec, cluster_pages=0)
