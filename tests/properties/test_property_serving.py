"""Property: serving PIR over TCP changes nothing observable (invariant I2).

The remote simulator must be a *pure transport change*: for every server
kernel, shard count and worker count, query results, traces,
adversary-view logs and the simulators' ``queries_seen`` streams are
bit-identical to in-process serving.  The shard servers here are real
asyncio servers on loopback, so this is the same code path a deployment
runs — only the machines are missing.
"""

import random

import pytest

from repro.costmodel import SystemSpec
from repro.engine import QueryEngine
from repro.network import random_planar_network
from repro.pir import ShardedPirSimulator, numpy_available
from repro.schemes import ConciseIndexScheme
from repro.serving import RemotePirSimulator, ShardCluster

SPEC = SystemSpec(page_size=256)

#: Server kernels the transport equivalence is pinned for.
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


class TestRemoteSimulatorEquivalence:
    """RemotePirSimulator versus in-process XOR serving, shard by shard."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_pages_and_query_logs_are_bit_identical(
        self, ci_scheme, kernel, num_shards
    ):
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
                database, cluster.addresses,
                log_queries=True, kernel_seed=21,
            )
            remote_pages = remote.retrieve_pages(file_name, reads)
            remote.close()

        assert remote_pages == expected_pages
        # the adversary sees the identical stream of (file, shard, subset)
        assert remote.queries_seen == local.queries_seen

    def test_layout_mismatch_is_rejected_loudly(self, ci_scheme):
        database = ci_scheme.database
        with ShardCluster(database, num_shards=2) as cluster:
            from repro.exceptions import PirError

            with pytest.raises(PirError):
                # client believes in a different strategy than the servers
                RemotePirSimulator(
                    database, cluster.addresses, strategy="contiguous"
                )


class TestEngineRemoteEquivalence:
    """QueryEngine(serving=...) versus the plain in-process engine."""

    @pytest.fixture(scope="class")
    def baseline(self, ci_scheme, pairs):
        engine = QueryEngine(ci_scheme, cache_entries=64)
        return batch_fingerprint(engine.run_batch(pairs, verify_costs=True))

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("num_shards,workers", [(1, 1), (2, 2), (3, 3)])
    def test_remote_batches_are_bit_identical(
        self, ci_scheme, pairs, baseline, kernel, num_shards, workers
    ):
        with ShardCluster(
            ci_scheme.database, num_shards=num_shards, kernel=kernel
        ) as cluster:
            with QueryEngine(ci_scheme, cache_entries=64, serving=cluster) as engine:
                batch = engine.run_batch(pairs, verify_costs=True, workers=workers)
        assert batch.remote
        assert batch.shards == num_shards
        assert batch.all_costs_correct
        assert batch.indistinguishable
        assert batch_fingerprint(batch) == baseline

    def test_shards_must_match_the_cluster(self, ci_scheme):
        from repro.exceptions import SchemeError

        with ShardCluster(ci_scheme.database, num_shards=2) as cluster:
            with pytest.raises(SchemeError):
                QueryEngine(ci_scheme, shards=3, serving=cluster)

    def test_plain_addresses_work_as_serving(self, ci_scheme, pairs, baseline):
        """``serving=`` accepts a bare address list, not just a cluster."""
        with ShardCluster(ci_scheme.database, num_shards=2) as cluster:
            addresses = list(cluster.addresses)
            with QueryEngine(ci_scheme, cache_entries=64, serving=addresses) as engine:
                batch = engine.run_batch(pairs[:3], verify_costs=True)
        assert batch.remote
        assert batch_fingerprint(batch) == baseline[:3]
