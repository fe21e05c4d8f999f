"""Property: kernel, shard count and worker mode change nothing observable (I2).

The packed kernel is pinned to the big-int oracle — answers and the error
paths, which must raise the identical ``PirError`` — and the serving and
engine stacks are pinned to plain in-process serving: the adversary-visible
``queries_seen`` streams and end-to-end engine batches across every kernel
× shard count × worker mode combination they expose.  Process workers only
solve; every retrieval, and so every pack, stays in the engine's process.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.costmodel import SystemSpec
from repro.engine import QueryEngine
from repro.exceptions import PirError
from repro.network import random_planar_network
from repro.pir import BigIntKernel, ShardedPirSimulator, numpy_available
from repro.schemes import ConciseIndexScheme
from repro.serving import RemotePirSimulator, ShardCluster

SPEC = SystemSpec(page_size=256)

requires_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

#: Server kernels the equivalences run for.
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
class TestPackedOracleParity:
    @settings(max_examples=40, deadline=None)
    @given(blocks=blocks_strategy(), data=st.data())
    def test_packed_equals_oracle(self, blocks, data):
        from repro.pir.kernels import PackedDatabase

        num_blocks = len(blocks)
        masks = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=(1 << num_blocks) - 1),
                min_size=0,
                max_size=10,
            )
        )
        expected = BigIntKernel(blocks).answer_many(masks)
        assert PackedDatabase.from_blocks(blocks).answer_many(masks) == expected

    @settings(max_examples=20, deadline=None)
    @given(blocks=blocks_strategy())
    def test_error_paths_identical_to_oracle(self, blocks):
        """Invalid masks must raise the identical PirError from the packed
        kernel and the big-int oracle — error text included."""
        from repro.pir.kernels import PackedDatabase

        kernels = (BigIntKernel(blocks), PackedDatabase.from_blocks(blocks))
        for bad in (-1, 1 << len(blocks), (1 << len(blocks)) | 1):
            errors = []
            for kernel in kernels:
                with pytest.raises(PirError) as caught:
                    kernel.answer_mask(bad)
                errors.append(str(caught.value))
            assert len(set(errors)) == 1


class TestServingEquivalence:
    """Shard servers over TCP versus plain in-process serving."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_pages_and_queries_seen_bit_identical(self, ci_scheme, kernel, num_shards):
        database = ci_scheme.database
        file_name = max(
            database.file_names(), key=lambda name: database.file(name).num_pages
        )
        num_pages = database.file(file_name).num_pages
        reads = random.Random(8).choices(range(num_pages), k=12)

        local = ShardedPirSimulator(
            database, num_shards=num_shards, xor_kernel=kernel,
            log_queries=True, kernel_seed=21,
        )
        expected_pages = local.retrieve_pages(file_name, reads)

        with ShardCluster(database, num_shards=num_shards, kernel=kernel) as cluster:
            remote = RemotePirSimulator(
                database, cluster.addresses, log_queries=True, kernel_seed=21
            )
            remote_pages = remote.retrieve_pages(file_name, reads)
            remote.close()

        assert remote_pages == expected_pages
        assert remote.queries_seen == local.queries_seen


class TestEngineEquivalence:
    """run_batch across kernel × shards × worker-mode."""

    @pytest.fixture(scope="class")
    def baseline(self, ci_scheme, pairs):
        engine = QueryEngine(ci_scheme, cache_entries=64)
        return batch_fingerprint(engine.run_batch(pairs, verify_costs=True))

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("shards,workers,worker_mode", [
        (2, 2, "thread"),
        (2, 2, "process"),
        (3, 2, "process"),
    ])
    def test_local_batches_bit_identical(
        self, ci_scheme, pairs, baseline, kernel, shards, workers, worker_mode
    ):
        with QueryEngine(
            ci_scheme, cache_entries=64, shards=shards, pir_kernel=kernel
        ) as engine:
            batch = engine.run_batch(
                pairs, verify_costs=True, workers=workers, worker_mode=worker_mode
            )
        assert batch.all_costs_correct
        assert batch.indistinguishable
        assert batch_fingerprint(batch) == baseline

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("worker_mode", ["thread", "process"])
    def test_remote_batches_bit_identical(
        self, ci_scheme, pairs, baseline, kernel, worker_mode
    ):
        with ShardCluster(ci_scheme.database, num_shards=2, kernel=kernel) as cluster:
            with QueryEngine(ci_scheme, cache_entries=64, serving=cluster) as engine:
                batch = engine.run_batch(
                    pairs, verify_costs=True, workers=2, worker_mode=worker_mode
                )
        assert batch.remote
        assert batch.all_costs_correct
        assert batch.indistinguishable
        assert batch_fingerprint(batch) == baseline
