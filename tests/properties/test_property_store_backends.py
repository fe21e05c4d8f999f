"""Property tests: the page-store backends are interchangeable.

The out-of-core refactor promises that memory, mmap and SQLite backends are
*observationally identical*: byte-identical pages, identical PIR retrievals,
and bit-identical end-to-end query results (paths, costs and adversary-visible
access traces) under every engine configuration — and that a disk-backed
database survives a process restart unchanged.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from database_equality import databases_equal
from repro.costmodel import SystemSpec
from repro.engine import QueryEngine
from repro.network import random_planar_network
from repro.pir import AccessTrace, UsablePirSimulator
from repro.schemes import ConciseIndexScheme, PassageIndexScheme
from repro.storage import (
    clone_database,
    load_database,
    open_page_store,
    save_database,
    store_backend_scope,
)

DISK_BACKENDS = ("mmap", "sqlite")
SPEC = SystemSpec(page_size=256)


@pytest.fixture(scope="module")
def network():
    return random_planar_network(110, seed=11)


@pytest.fixture(scope="module")
def ci_scheme(network):
    return ConciseIndexScheme.build(network, spec=SPEC)


@pytest.fixture(scope="module")
def pairs(network):
    rng = random.Random(42)
    nodes = network.num_nodes
    return [tuple(rng.sample(range(nodes), 2)) for _ in range(6)]


def batch_fingerprint(batch):
    """Everything observable about a batch: paths, costs and adversary views."""
    return [
        (result.path.nodes, round(result.path.cost, 9), result.trace.adversary_view())
        for result in batch.results
    ]


class TestByteIdenticalPages:
    @pytest.mark.parametrize("backend", DISK_BACKENDS)
    def test_clone_is_byte_identical(self, ci_scheme, backend, tmp_path):
        clone = clone_database(ci_scheme.database, store_backend=backend, store_dir=tmp_path)
        try:
            assert clone.store_backend == backend
            assert databases_equal(ci_scheme.database, clone)
        finally:
            clone.close()

    @pytest.mark.parametrize("backend", DISK_BACKENDS)
    def test_build_on_backend_matches_memory_build(self, network, backend, tmp_path):
        scheme = ConciseIndexScheme.build(
            network, spec=SPEC, store_backend=backend, store_dir=tmp_path
        )
        try:
            assert scheme.database.store_backend == backend
            assert databases_equal(ci_scheme_db := scheme.database,
                                   ConciseIndexScheme.build(network, spec=SPEC).database)
            assert ci_scheme_db.file("data").num_pages > 0
        finally:
            scheme.database.close()


class TestIdenticalPirRetrievals:
    @pytest.mark.parametrize("backend", DISK_BACKENDS)
    def test_single_and_batch_retrievals_match(self, ci_scheme, backend, tmp_path):
        clone = clone_database(ci_scheme.database, store_backend=backend, store_dir=tmp_path)
        try:
            base = UsablePirSimulator(ci_scheme.database, spec=SPEC, enforce_limits=False)
            other = UsablePirSimulator(clone, spec=SPEC, enforce_limits=False)
            num_pages = ci_scheme.database.file("data").num_pages
            pages = [index % num_pages for index in range(num_pages + 5)]
            base_trace, other_trace = AccessTrace(), AccessTrace()
            base_trace.begin_round()
            other_trace.begin_round()
            assert other.retrieve_pages("data", pages, other_trace) == \
                base.retrieve_pages("data", pages, base_trace)
            assert other.retrieve_page("data", 0, other_trace) == \
                base.retrieve_page("data", 0, base_trace)
            assert base_trace.adversary_view() == other_trace.adversary_view()
        finally:
            clone.close()


class TestEndToEndEquivalence:
    @pytest.fixture(scope="class")
    def baseline(self, ci_scheme, pairs):
        engine = QueryEngine(ci_scheme, cache_entries=64)
        return batch_fingerprint(engine.run_batch(pairs, verify_costs=True))

    @pytest.mark.parametrize("backend", DISK_BACKENDS)
    @pytest.mark.parametrize("shards,workers", [(1, 1), (2, 2), (3, 1), (1, 3)])
    def test_all_engine_configurations_bit_identical(
        self, ci_scheme, pairs, baseline, backend, shards, workers, tmp_path
    ):
        engine = QueryEngine(
            ci_scheme,
            cache_entries=64,
            shards=shards,
            store_backend=backend,
            store_dir=tmp_path,
        )
        batch = engine.run_batch(pairs, verify_costs=True, workers=workers)
        assert batch.store_backend == backend
        assert batch.all_costs_correct
        assert batch.indistinguishable
        assert batch_fingerprint(batch) == baseline

    @pytest.mark.parametrize("backend", DISK_BACKENDS)
    def test_pi_scheme_backends_agree(self, network, pairs, backend, tmp_path):
        memory_scheme = PassageIndexScheme.build(network, spec=SPEC)
        disk_scheme = PassageIndexScheme.build(
            network, spec=SPEC, store_backend=backend, store_dir=tmp_path
        )
        try:
            assert databases_equal(memory_scheme.database, disk_scheme.database)
            memory_batch = QueryEngine(memory_scheme).run_batch(pairs[:3])
            disk_batch = QueryEngine(disk_scheme).run_batch(pairs[:3])
            assert batch_fingerprint(memory_batch) == batch_fingerprint(disk_batch)
        finally:
            disk_scheme.database.close()

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_random_queries_agree_across_backends(self, ci_scheme, sqlite_engine, data):
        nodes = ci_scheme.network.num_nodes
        source = data.draw(st.integers(min_value=0, max_value=nodes - 1))
        target = data.draw(st.integers(min_value=0, max_value=nodes - 1))
        if source == target:
            target = (target + 1) % nodes
        memory_result = QueryEngine(ci_scheme).execute(source, target)
        sqlite_result = sqlite_engine.execute(source, target)
        assert memory_result.path.nodes == sqlite_result.path.nodes
        assert memory_result.path.cost == pytest.approx(sqlite_result.path.cost, abs=0)
        assert memory_result.trace.adversary_view() == sqlite_result.trace.adversary_view()

    @pytest.fixture(scope="class")
    def sqlite_engine(self, ci_scheme, tmp_path_factory):
        return QueryEngine(
            ci_scheme,
            store_backend="sqlite",
            store_dir=tmp_path_factory.mktemp("sqlite-engine"),
        )


class TestCrashSafety:
    """A disk-backed store re-opened after a 'crash' serves the same bytes."""

    @pytest.mark.parametrize("backend", DISK_BACKENDS)
    def test_reopened_store_serves_identical_pages(self, ci_scheme, backend, tmp_path):
        clone = clone_database(ci_scheme.database, store_backend=backend, store_dir=tmp_path)
        expected = {
            name: list(clone.file(name).store.iter_payloads())
            for name in clone.file_names()
        }
        clone.flush()
        for name in clone.file_names():
            clone.file(name).store.close()

        for name, payloads in expected.items():
            reopened = open_page_store(backend, name, directory=tmp_path, create=False)
            try:
                assert list(reopened.iter_payloads()) == payloads
            finally:
                reopened.close()

    @pytest.mark.parametrize("backend", DISK_BACKENDS)
    def test_saved_database_reloads_onto_backend(self, ci_scheme, pairs, backend, tmp_path):
        image_dir = tmp_path / "image"
        save_database(ci_scheme.database, image_dir)
        reloaded = load_database(
            image_dir, store_backend=backend, store_dir=tmp_path / "stores"
        )
        try:
            assert databases_equal(ci_scheme.database, reloaded)
        finally:
            reloaded.close()

    @pytest.mark.parametrize("backend", DISK_BACKENDS)
    def test_scheme_built_under_scope_lands_on_disk(self, network, backend, tmp_path):
        with store_backend_scope(backend, tmp_path):
            scheme = ConciseIndexScheme.build(network, spec=SPEC)
        try:
            assert scheme.database.store_backend == backend
            stored = sorted(path.name for path in tmp_path.iterdir())
            assert stored, "no store files were written to the scope directory"
        finally:
            scheme.database.close()
