"""End-to-end integration tests across the whole stack.

These build a fresh (small) network from scratch, construct every scheme
without any shared pre-computation, and check the two headline claims of the
paper — exact shortest paths and query indistinguishability — plus the scheme
relationships the evaluation reports (PI faster but larger than CI, etc.).
"""

import math

import pytest

from repro import SystemSpec
from repro.bench.workloads import generate_workload
from repro.network import random_planar_network, shortest_path_cost
from repro.pir import SecureCoprocessor
from repro.privacy import check_indistinguishability
from repro.schemes import (
    ClusteredPassageIndexScheme,
    ConciseIndexScheme,
    HybridScheme,
    LandmarkScheme,
    PassageIndexScheme,
)

SPEC = SystemSpec(page_size=256)


@pytest.fixture(scope="module")
def fresh_network():
    return random_planar_network(160, seed=77)


@pytest.fixture(scope="module")
def fresh_workload(fresh_network):
    return generate_workload(fresh_network, count=6, seed=5)


@pytest.fixture(scope="module")
def built_schemes(fresh_network, fresh_workload):
    return {
        "CI": ConciseIndexScheme.build(fresh_network, spec=SPEC),
        "PI": PassageIndexScheme.build(fresh_network, spec=SPEC),
        "HY": HybridScheme.build(fresh_network, spec=SPEC, region_set_threshold=4),
        "PI*": ClusteredPassageIndexScheme.build(fresh_network, spec=SPEC, cluster_pages=2),
        "LM": LandmarkScheme.build(
            fresh_network, spec=SPEC, num_landmarks=3, plan_pairs=fresh_workload
        ),
    }


class TestEndToEnd:
    def test_every_scheme_answers_every_query_correctly(
        self, built_schemes, fresh_network, fresh_workload
    ):
        for name, scheme in built_schemes.items():
            for source, target in fresh_workload:
                result = scheme.query(source, target)
                expected = shortest_path_cost(fresh_network, source, target)
                assert math.isclose(result.path.cost, expected, rel_tol=1e-4), (name, source, target)

    def test_every_scheme_is_indistinguishable_across_queries(
        self, built_schemes, fresh_workload
    ):
        for name, scheme in built_schemes.items():
            results = [scheme.query(source, target) for source, target in fresh_workload[:4]]
            report = check_indistinguishability(results, scheme.plan)
            assert report.leaks_nothing, name

    def test_paper_relationships_hold(self, built_schemes, fresh_workload):
        """PI needs fewer PIR accesses than CI but much more space; the
        baselines need more accesses than both (Table 3 / Figure 7 shape)."""
        source, target = fresh_workload[0]
        pages = {
            name: scheme.query(source, target).total_pir_pages
            for name, scheme in built_schemes.items()
        }
        storage = {name: scheme.storage_mb for name, scheme in built_schemes.items()}
        assert pages["PI"] < pages["CI"]
        assert pages["LM"] >= pages["CI"]
        assert storage["PI"] > storage["CI"]
        assert storage["CI"] <= storage["HY"] <= storage["PI"] * 1.05

    def test_clustered_scheme_shrinks_the_index(self, built_schemes):
        pi_index = built_schemes["PI"].database.file("index").num_pages
        clustered_index = built_schemes["PI*"].database.file("index").num_pages
        assert clustered_index < pi_index

    def test_scp_limit_detection(self, built_schemes):
        """With the paper's 2.5 GByte limit none of these tiny databases is
        rejected; with an artificially tiny limit every scheme is."""
        def exceeds_pir_file_limit(scheme):
            scp = SecureCoprocessor(scheme.spec)
            return any(not scp.supports_file(f) for f in scheme.database.files())

        for scheme in built_schemes.values():
            assert not exceeds_pir_file_limit(scheme)
        tiny_limit = ConciseIndexScheme.build(
            built_schemes["CI"].network, spec=SPEC.with_overrides(max_file_bytes=1024)
        )
        assert exceeds_pir_file_limit(tiny_limit)
