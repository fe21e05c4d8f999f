"""A* search with pluggable heuristics.

Used by the Landmark (LM) baseline of Section 4: the search is guided either
by the Euclidean lower bound or by the ALT (A*, Landmarks, Triangle
inequality) heuristic built from pre-computed landmark vectors.

Like :mod:`repro.network.dijkstra`, the public function is a thin wrapper
over the array-backed fast path in :mod:`repro.network.indexed`; the original
dict-based implementation is the oracle in ``tests/oracles``.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..exceptions import NoPathError
from .graph import NodeId, RoadNetwork
from .indexed import astar_arrays, csr_for
from .paths import Path, SearchStats

Heuristic = Callable[[NodeId], float]


def astar_search(
    network: RoadNetwork,
    source: NodeId,
    target: NodeId,
    heuristic: Optional[Heuristic] = None,
    stats: Optional[SearchStats] = None,
    on_settle: Optional[Callable[[NodeId], None]] = None,
) -> Path:
    """A* from ``source`` to ``target``.

    ``on_settle`` is invoked for every node the search settles, in order; the
    LM/AF baselines use it to fetch the disk page of the region that contains
    the node the moment the search first touches that region.  ``heuristic``
    (when given) receives *original* node ids; omitting it selects the
    Euclidean lower bound computed directly from the compiled coordinate
    arrays.
    """
    csr = csr_for(network)
    dense_source = csr.dense_id(source)
    dense_target = csr.dense_id(target)
    if source == target:
        if on_settle is not None:
            on_settle(source)
        return Path((source,), 0.0)

    dense_heuristic = None
    if heuristic is not None:
        node_ids = csr.node_ids

        def dense_heuristic(dense: int) -> float:
            return heuristic(node_ids[dense])

    elif not csr.heuristic_safe:
        # Some coordinates are placeholders (e.g. passage nodes a client
        # merged in without knowing their position): the Euclidean bound is
        # inadmissible, so degrade to the zero heuristic (plain Dijkstra).
        def dense_heuristic(dense: int) -> float:
            return 0.0

    result = astar_arrays(
        csr, dense_source, dense_target, dense_heuristic, stats, on_settle
    )
    if result is None:
        raise NoPathError(source, target)
    cost, dense_nodes = result
    ids = csr.node_ids
    return Path(tuple(ids[dense] for dense in dense_nodes), cost)
