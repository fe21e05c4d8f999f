"""Property tests: the packed numpy kernel is bit-identical to the big-int oracle.

The vectorized server kernel is a pure performance change.  These properties
pin everything observable about it to the reference big-int fold: individual
answers, whole-protocol retrievals, the adversary-visible query subsets, the
simulators' ``queries_seen`` logs and end-to-end engine batches — across page
store backends, shard counts and worker configurations.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.costmodel import SystemSpec
from repro.engine import QueryEngine
from repro.network import random_planar_network
from repro.pir import (
    BigIntKernel,
    ShardedPirSimulator,
    UsablePirSimulator,
    answer_shares,
    draw_shares,
    make_kernel,
    numpy_available,
)
from repro.schemes import ConciseIndexScheme

SPEC = SystemSpec(page_size=256)

requires_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

#: Kernels the end-to-end equivalence is checked for.  Without numpy only the
#: big-int kernel exists — the engine invariant (serving through the XOR
#: protocol changes no result) still holds and is still worth pinning.
KERNELS = ("numpy", "bigint") if numpy_available() else ("bigint",)


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


def blocks_strategy():
    return st.integers(min_value=1, max_value=48).flatmap(
        lambda size: st.lists(
            st.binary(min_size=size, max_size=size), min_size=1, max_size=40
        )
    )


@requires_numpy
class TestKernelOracleParity:
    @settings(max_examples=60, deadline=None)
    @given(blocks=blocks_strategy(), data=st.data())
    def test_packed_answers_equal_bigint_answers(self, blocks, data):
        from repro.pir.kernels import PackedDatabase

        packed = PackedDatabase.from_blocks(blocks)
        oracle = BigIntKernel(blocks)
        num_blocks = len(blocks)
        masks = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=(1 << num_blocks) - 1),
                min_size=0,
                max_size=12,
            )
        )
        assert packed.answer_many(masks) == oracle.answer_many(masks)

    @settings(max_examples=80, deadline=None)
    @given(
        blocks=blocks_strategy(),
        budget=st.one_of(st.just(0), st.integers(min_value=0, max_value=1 << 17)),
        scratch_bytes=st.integers(min_value=1, max_value=1 << 14),
        data=st.data(),
    )
    def test_blocked_gather_equals_oracle_for_any_budget_and_block_size(
        self, blocks, budget, scratch_bytes, data
    ):
        """The table budget picks the group width (8/4/2 bits, or none: row
        gather and tiled product) and the scratch budget picks how the groups
        are walked; neither may change an answer bit (I2)."""
        from unittest import mock

        from repro.pir.kernels import PackedDatabase

        packed = PackedDatabase.from_blocks(blocks, max_table_bytes=budget)
        num_blocks = len(blocks)
        masks = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=(1 << num_blocks) - 1),
                min_size=0,
                max_size=40,
            )
        )
        with mock.patch.object(PackedDatabase, "GATHER_SCRATCH_BYTES", scratch_bytes):
            answers = packed.answer_many(masks)
        assert answers == BigIntKernel(blocks).answer_many(masks)

    @settings(max_examples=25, deadline=None)
    @given(blocks=blocks_strategy(), seed=st.integers(min_value=0, max_value=2 ** 31))
    def test_protocol_parity_with_shared_randomness(self, blocks, seed):
        """Same client RNG => identical retrievals AND identical adversary
        views for either kernel: the packed kernel is invisible on the wire."""
        indices = [seed % len(blocks), 0, len(blocks) - 1]
        outcomes = {}
        for name in ("bigint", "numpy"):
            seen = []
            shares = draw_shares(random.Random(seed), len(blocks), indices, seen.append)
            answers = answer_shares(make_kernel(blocks, kernel=name), *shares)
            outcomes[name] = (answers, seen)
        assert outcomes["bigint"] == outcomes["numpy"]
        assert outcomes["bigint"][0] == [blocks[index] for index in indices]


class TestSimulatorParity:
    """XOR-serving simulators return the same pages and log the same subsets."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_unsharded_serving_matches_plain_reads(self, ci_scheme, kernel):
        plain = UsablePirSimulator(ci_scheme.database, spec=SPEC, enforce_limits=False)
        serving = UsablePirSimulator(
            ci_scheme.database, spec=SPEC, enforce_limits=False, xor_kernel=kernel
        )
        num_pages = ci_scheme.database.file("data").num_pages
        pages = [index % num_pages for index in range(min(40, num_pages + 5))]
        assert serving.retrieve_pages("data", pages) == plain.retrieve_pages("data", pages)
        assert serving.retrieve_page("data", 0) == plain.retrieve_page("data", 0)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_sharded_serving_matches_plain_reads(self, ci_scheme, kernel, num_shards):
        plain = ShardedPirSimulator(
            ci_scheme.database, spec=SPEC, enforce_limits=False, num_shards=num_shards
        )
        serving = ShardedPirSimulator(
            ci_scheme.database,
            spec=SPEC,
            enforce_limits=False,
            num_shards=num_shards,
            xor_kernel=kernel,
        )
        num_pages = ci_scheme.database.file("data").num_pages
        pages = [(7 * index) % num_pages for index in range(30)]
        assert serving.retrieve_pages("data", pages) == plain.retrieve_pages("data", pages)

    @requires_numpy
    @pytest.mark.parametrize("sharded", [False, True])
    def test_queries_seen_identical_across_kernels(self, ci_scheme, sharded):
        num_pages = ci_scheme.database.file("data").num_pages
        pages = [(3 * index) % num_pages for index in range(50)]
        logs = {}
        for kernel in ("bigint", "numpy"):
            if sharded:
                simulator = ShardedPirSimulator(
                    ci_scheme.database, spec=SPEC, enforce_limits=False,
                    num_shards=3, xor_kernel=kernel, log_queries=True, kernel_seed=21,
                )
            else:
                simulator = UsablePirSimulator(
                    ci_scheme.database, spec=SPEC, enforce_limits=False,
                    xor_kernel=kernel, log_queries=True, kernel_seed=21,
                )
            simulator.retrieve_pages("data", pages)
            simulator.retrieve_page("data", 1)
            assert simulator.queries_seen, "XOR serving must log when asked to"
            logs[kernel] = simulator.queries_seen
        assert logs["bigint"] == logs["numpy"]


class TestEndToEndEquivalence:
    """run_batch with the kernel on is bit-identical to the kernel off, for
    every (kernel, shards, workers, worker mode, store backend) combination."""

    @pytest.fixture(scope="class")
    def baseline(self, ci_scheme, pairs):
        engine = QueryEngine(ci_scheme, cache_entries=64)
        return batch_fingerprint(engine.run_batch(pairs, verify_costs=True))

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("shards,workers,worker_mode", [
        (1, 1, "thread"),
        (2, 2, "thread"),
        (3, 1, "thread"),
        (1, 2, "process"),
    ])
    def test_kernel_on_bit_identical_to_kernel_off(
        self, ci_scheme, pairs, baseline, kernel, shards, workers, worker_mode
    ):
        engine = QueryEngine(
            ci_scheme, cache_entries=64, shards=shards, pir_kernel=kernel
        )
        batch = engine.run_batch(
            pairs, verify_costs=True, workers=workers, worker_mode=worker_mode
        )
        assert batch.pir_kernel == kernel
        assert batch.all_costs_correct
        assert batch.indistinguishable
        assert batch_fingerprint(batch) == baseline

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_kernel_on_disk_backend_bit_identical(
        self, ci_scheme, pairs, baseline, kernel, tmp_path
    ):
        engine = QueryEngine(
            ci_scheme,
            cache_entries=64,
            shards=2,
            pir_kernel=kernel,
            store_backend="mmap",
            store_dir=tmp_path,
        )
        batch = engine.run_batch(pairs, verify_costs=True, workers=2)
        assert batch.store_backend == "mmap"
        assert batch.pir_kernel == kernel
        assert batch_fingerprint(batch) == baseline

    def test_kernel_default_is_numpy_when_available(self, ci_scheme, pairs):
        engine = QueryEngine(ci_scheme, cache_entries=64)
        expected = "numpy" if numpy_available() else None
        assert engine.pir_kernel == expected
        assert engine.run_batch(pairs[:1]).pir_kernel == expected

    def test_kernel_off_disables_packed_serving(self, ci_scheme, pairs, baseline):
        engine = QueryEngine(ci_scheme, cache_entries=64, pir_kernel="off")
        assert engine.pir_kernel is None
        batch = engine.run_batch(pairs, verify_costs=True)
        assert batch.pir_kernel is None
        assert batch_fingerprint(batch) == baseline
