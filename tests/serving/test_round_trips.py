"""One protocol round = one request per shard, in flight together.

Exact request counts of engine queries over a live cluster, and the failure
behaviour of the fanned-out round: a ``BUSY`` retry re-sends the identical
payload (never redraws masks), and a dead shard surfaces a typed error
without leaving helper threads behind.
"""

import random
import threading

import pytest

from repro.costmodel import SystemSpec
from repro.engine import QueryEngine
from repro.exceptions import PirError
from repro.network import random_planar_network
from repro.pir import ShardedPirSimulator
from repro.schemes import ConciseIndexScheme
from repro.serving import RemotePirSimulator, ShardCluster, wire

NUM_SHARDS = 2


@pytest.fixture(scope="module")
def ci_scheme():
    network = random_planar_network(110, seed=11)
    return ConciseIndexScheme.build(network, spec=SystemSpec(page_size=256))


@pytest.fixture(scope="module")
def pairs(ci_scheme):
    rng = random.Random(3)
    return [tuple(rng.sample(range(ci_scheme.network.num_nodes), 2)) for _ in range(5)]


def fanout_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-shard-fanout")]


def test_requests_per_query_are_bounded_by_the_plan(ci_scheme, pairs):
    # each (round, file) of the plan costs at most one request per shard
    bound = sum(
        min(NUM_SHARDS, count)
        for round_spec in ci_scheme.plan.rounds
        for _, count in round_spec.fetches
    )
    with ShardCluster(ci_scheme.database, num_shards=NUM_SHARDS) as cluster:
        with QueryEngine(ci_scheme, serving=cluster) as engine:
            batch = engine.run_batch(pairs, verify_costs=True)
    # read after the drain (a server counts a request once its reply is
    # written); the engine's layout check sent one HELLO per server
    served = sum(stats["requests_served"] for stats in cluster.stats()) - NUM_SHARDS
    masks = sum(stats["masks_answered"] for stats in cluster.stats())
    assert batch.all_costs_correct
    assert served <= bound * len(pairs)
    # far fewer requests than retrievals, and every retrieval still answered
    assert served < ci_scheme.plan.total_pir_pages() * len(pairs)
    assert masks == 2 * ci_scheme.plan.total_pir_pages() * len(pairs)


class BusyOncePool:
    """Answers the first request ``BUSY``, then hands over to the real pool."""

    def __init__(self, pool):
        self.pool = pool
        self.payloads = []

    def request(self, payload):
        self.payloads.append(payload)
        if len(self.payloads) == 1:
            return wire.encode_busy("try again")
        return self.pool.request(payload)

    def close(self):
        self.pool.close()


def test_busy_retry_inside_a_round_resends_the_same_payload(ci_scheme):
    database = ci_scheme.database
    file_name = max(database.file_names(), key=lambda name: database.file(name).num_pages)
    reads = random.Random(8).choices(range(database.file(file_name).num_pages), k=9)
    local = ShardedPirSimulator(
        database, num_shards=NUM_SHARDS, xor_kernel="auto", log_queries=True, kernel_seed=4
    )
    with ShardCluster(database, num_shards=NUM_SHARDS) as cluster:
        remote = RemotePirSimulator(
            database, cluster.addresses, log_queries=True, kernel_seed=4
        )
        try:
            pools = []
            for shard in remote.transports:
                shard.busy_backoff_s = 0.0
                shard._pool = BusyOncePool(shard._pool)
                pools.append(shard._pool)
            # two rounds: a redraw on retry would desynchronise the second
            pages = [remote.retrieve_pages(file_name, reads) for _ in range(2)]
        finally:
            remote.close()
    assert pages == [local.retrieve_pages(file_name, reads) for _ in range(2)]
    assert remote.queries_seen == local.queries_seen
    for pool in pools:
        busy, retry, second_round = pool.payloads
        assert retry == busy
        assert second_round != busy


def test_a_dead_shard_fails_the_round_with_a_typed_error(ci_scheme):
    database = ci_scheme.database
    file_name = max(database.file_names(), key=lambda name: database.file(name).num_pages)
    reads = list(range(6))  # round-robin: both shards are touched
    with ShardCluster(database, num_shards=NUM_SHARDS) as cluster:
        remote = RemotePirSimulator(database, cluster.addresses, timeout=5.0)
        try:
            assert len(remote.retrieve_pages(file_name, reads)) == len(reads)
            assert fanout_threads()
            for dead in range(NUM_SHARDS):  # the pooled and the calling-thread request
                cluster.servers[dead].stop()
                with pytest.raises(PirError):
                    remote.retrieve_pages(file_name, reads)
        finally:
            remote.close()
    assert fanout_threads() == []
