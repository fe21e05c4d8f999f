"""Property: batching a round's retrievals changes nothing but the call count.

``RoundManager`` sends the real pages and the dummy padding of a (round, file)
as one ``retrieve_pages`` batch.  Against the per-page driver it replaced
(:mod:`per_page_rounds`), every scheme must produce identical paths, costs,
simulated response times, trace events (adversary view *and* private page
order) and dummy-RNG consumption — in process, sharded and over TCP.  The
mask values follow the draw grouping, so ``queries_seen`` is compared where
the contract promises it: in-process sharded ≡ remote (invariant I2).
"""

import random

import pytest

from per_page_rounds import PerPageRoundManager
from repro.costmodel import SystemSpec
from repro.network import random_planar_network
from repro.pir import ShardedPirSimulator, UsablePirSimulator, numpy_available
from repro.schemes import (
    ArcFlagScheme,
    ConciseIndexScheme,
    HybridScheme,
    LandmarkScheme,
    PassageIndexScheme,
)
from repro.schemes import base as schemes_base
from repro.schemes.base import RoundManager, client_state_scope
from repro.serving import RemotePirSimulator, ShardCluster

SPEC = SystemSpec(page_size=256)
KERNEL = "numpy" if numpy_available() else "bigint"
NETWORK_SEEDS = (4, 17)
SCHEMES = ("CI", "PI", "HY", "LM", "AF")
KERNEL_SEED = 5


def _build(name, network, pairs):
    if name == "CI":
        return ConciseIndexScheme.build(network, spec=SPEC)
    if name == "PI":
        return PassageIndexScheme.build(network, spec=SPEC)
    if name == "HY":
        return HybridScheme.build(network, spec=SPEC, region_set_threshold=3)
    if name == "LM":
        return LandmarkScheme.build(network, spec=SPEC, num_landmarks=3, plan_pairs=pairs)
    return ArcFlagScheme.build(network, spec=SPEC, plan_pairs=pairs)


@pytest.fixture(scope="module", params=NETWORK_SEEDS)
def world(request):
    """One small random network, its query pairs, and a lazy scheme cache."""
    network = random_planar_network(90, seed=request.param)
    rng = random.Random(request.param)
    pairs = [tuple(rng.sample(range(network.num_nodes), 2)) for _ in range(4)]
    return network, pairs, {}


@pytest.fixture(params=SCHEMES)
def scheme_and_pairs(request, world):
    network, pairs, cache = world
    if request.param not in cache:
        cache[request.param] = _build(request.param, network, pairs)
    return cache[request.param], pairs


def run_queries(scheme, pairs, pir, manager, monkeypatch):
    """Everything observable about ``pairs`` answered through ``pir``."""
    monkeypatch.setattr(schemes_base, "RoundManager", manager)
    rng = random.Random(7)
    observed = []
    with client_state_scope(pir, rng):
        for source, target in pairs:
            result = scheme.query(source, target)
            observed.append((
                result.path.nodes,
                result.path.cost,
                (result.response.pir_s, result.response.communication_s),
                result.trace.adversary_view(),
                tuple(result.trace.private_page_requests()),
            ))
    return observed, pir.simulated_pir_time_s, rng.getstate()


def local_simulators(database):
    common = dict(enforce_limits=False, log_queries=True, kernel_seed=KERNEL_SEED)
    return {
        "direct": lambda: UsablePirSimulator(database, enforce_limits=False),
        "xor": lambda: UsablePirSimulator(database, xor_kernel=KERNEL, **common),
        "sharded": lambda: ShardedPirSimulator(
            database, num_shards=2, xor_kernel=KERNEL, **common
        ),
    }


def test_batched_rounds_match_the_per_page_driver_everywhere(
    scheme_and_pairs, monkeypatch
):
    scheme, pairs = scheme_and_pairs
    database = scheme.database
    reference = run_queries(
        scheme, pairs, UsablePirSimulator(database, enforce_limits=False),
        PerPageRoundManager, monkeypatch,
    )
    seen = {}
    with ShardCluster(database, num_shards=2, kernel=KERNEL) as cluster:
        factories = local_simulators(database)
        factories["remote"] = lambda: RemotePirSimulator(
            database, cluster.addresses, enforce_limits=False,
            log_queries=True, kernel_seed=KERNEL_SEED,
        )
        for mode, factory in factories.items():
            for manager in (RoundManager, PerPageRoundManager):
                pir = factory()
                try:
                    outcome = run_queries(scheme, pairs, pir, manager, monkeypatch)
                finally:
                    if mode == "remote":
                        pir.close()
                assert outcome == reference, (scheme.name, mode, manager.__name__)
                seen[mode, manager] = list(pir.queries_seen)
    # the mask-RNG contract: one draw per (round, file, shard), the same
    # stream in process and over the wire — for either grouping of the rounds
    for manager in (RoundManager, PerPageRoundManager):
        assert seen["sharded", manager] == seen["remote", manager]
        assert len(seen["sharded", manager]) == 2 * scheme.plan.total_pir_pages() * len(pairs)
