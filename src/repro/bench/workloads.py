"""Query workload generation.

The paper measures average response time over workloads of 1,000 shortest
path queries with sources and destinations drawn from the network.  The
``quick`` benchmark profile uses smaller (seeded, reproducible) workloads; the
count is a parameter everywhere.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ..network import NodeId, RoadNetwork

QueryPair = Tuple[NodeId, NodeId]

#: Workload size used by the quick benchmark profile (the paper uses 1,000).
DEFAULT_WORKLOAD_SIZE = 40


def generate_workload(
    network: RoadNetwork,
    count: int = DEFAULT_WORKLOAD_SIZE,
    seed: int = 42,
    distinct_endpoints: bool = True,
) -> List[QueryPair]:
    """Draw ``count`` (source, destination) pairs uniformly from the network."""
    rng = random.Random(seed)
    node_ids = list(network.node_ids())
    pairs: List[QueryPair] = []
    while len(pairs) < count:
        source = rng.choice(node_ids)
        target = rng.choice(node_ids)
        if distinct_endpoints and source == target:
            continue
        pairs.append((source, target))
    return pairs


def generate_hotspot_workload(
    network: RoadNetwork,
    count: int = DEFAULT_WORKLOAD_SIZE,
    seed: int = 42,
    hot_pairs: int = 10,
    hot_fraction: float = 0.75,
) -> List[QueryPair]:
    """A workload with pair locality: most queries repeat a few hot pairs.

    Serving workloads are not uniform — commuter traffic concentrates on a
    small set of popular source/destination pairs.  ``hot_fraction`` of the
    queries are drawn (uniformly) from ``hot_pairs`` fixed pairs; the rest
    are fresh uniform draws.  The result is shuffled so hot and cold queries
    interleave the way they would in a real batch.
    """
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError(f"hot_fraction must be in [0, 1], got {hot_fraction}")
    rng = random.Random(seed)
    hot = generate_workload(network, count=hot_pairs, seed=seed)
    num_hot = int(count * hot_fraction)
    cold = generate_workload(network, count=count - num_hot, seed=seed + 1)
    pairs = [rng.choice(hot) for _ in range(num_hot)] + cold
    rng.shuffle(pairs)
    return pairs
