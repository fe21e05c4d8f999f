"""``QueryEngine.close``: an engine releases its shard connections, the servers keep serving."""

import pytest

from repro.costmodel import SystemSpec
from repro.engine import QueryEngine
from networks import grid_network
from repro.schemes import ConciseIndexScheme
from repro.serving import ShardCluster


@pytest.fixture(scope="module")
def scheme():
    network = grid_network(5, 5, seed=2)
    return ConciseIndexScheme.build(network, spec=SystemSpec(page_size=256))


@pytest.fixture(scope="module")
def pairs(scheme):
    nodes = sorted(scheme.network.node_ids())
    return [(nodes[0], nodes[-1]), (nodes[1], nodes[-2]), (nodes[2], nodes[-3])]


def fingerprint(batch):
    return [(result.path.nodes, result.path.cost) for result in batch.results]


def idle_connections(engine):
    return [
        len(transport._pool._idle)
        for context in engine._contexts
        for transport in context.pir.transports
    ]


class TestEngineClose:
    def test_close_closes_every_context_connection(self, scheme, pairs):
        with ShardCluster(scheme.database, num_shards=2) as cluster:
            engine = QueryEngine(scheme, serving=cluster)
            engine.run_batch(pairs, verify_costs=False, workers=2)
            assert len(engine._contexts) == 2
            assert all(count > 0 for count in idle_connections(engine))
            engine.close()
            assert all(count == 0 for count in idle_connections(engine))

    def test_supplied_cluster_keeps_serving_after_engine_close(self, scheme, pairs):
        with ShardCluster(scheme.database, num_shards=2) as cluster:
            with QueryEngine(scheme, serving=cluster) as engine_a:
                first = engine_a.run_batch(pairs, verify_costs=False, workers=2)
            # the engine closed only its own connections: a second engine is
            # served by the same running cluster
            with QueryEngine(scheme, serving=cluster) as engine_b:
                second = engine_b.run_batch(pairs, workers=2)
            assert second.all_costs_correct and second.indistinguishable
            assert fingerprint(first) == fingerprint(second)
