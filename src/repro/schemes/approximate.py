"""Approximate Passage Index (APX) — the paper's future-work direction.

The conclusions of the paper name "approximate schemes with bounded cost
deviation from the actual shortest path" as an open direction for reducing the
space and time overheads of the exact schemes.  APX realises that direction on
top of the Passage Index machinery:

* pre-computation materialises ``(1 + ε)``-approximate passage subgraphs (see
  :mod:`repro.precompute.sparsify`) instead of the exact ones, which shrinks
  the network index file, and
* query processing is byte-for-byte the same three-round protocol as PI, so
  the privacy guarantee (Theorem 1) is untouched — the approximation only
  affects the cost of the returned path, never what the adversary observes.

``ε = 0`` keeps results exact while still deduplicating border paths that are
covered by other border paths of the same region pair.

Query processing is inherited from :class:`PassageIndexScheme` (see
:mod:`repro.schemes.assembly`): the retrieved region columns are searched in
place — the approximation affects only which edges the index stores, never
the client pipeline.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from ..costmodel import DEFAULT_SPEC, SystemSpec
from ..exceptions import SchemeError
from ..network import NodeId, RoadNetwork, shortest_path_cost
from ..partition import (
    BorderNodeIndex,
    Partitioning,
    compute_border_nodes,
    packed_kdtree_partition,
    plain_kdtree_partition,
)
from ..precompute import compute_approximate_passage_subgraphs
from .pi import PassageIndexScheme


class ApproximatePassageIndexScheme(PassageIndexScheme):
    """PI with ``(1 + ε)``-approximate passage subgraphs (smaller index)."""

    name = "APX"

    #: Worst-case deviation bound of the paths this instance returns.
    epsilon: float = 0.0

    @classmethod
    def build(  # type: ignore[override]
        cls,
        network: RoadNetwork,
        epsilon: float = 0.1,
        spec: SystemSpec = DEFAULT_SPEC,
        packed: bool = True,
        compress: bool = True,
        pages_per_region: int = 1,
        partitioning: Optional[Partitioning] = None,
        border_index: Optional[BorderNodeIndex] = None,
    ) -> "ApproximatePassageIndexScheme":
        """Build the APX database.

        ``epsilon`` is the cost-deviation budget: every returned path costs at
        most ``(1 + epsilon)`` times the true shortest path.  The remaining
        knobs mirror :meth:`PassageIndexScheme.build`.
        """
        if epsilon < 0:
            raise SchemeError(f"epsilon must be non-negative, got {epsilon}")
        if partitioning is None:
            partition_fn = packed_kdtree_partition if packed else plain_kdtree_partition
            capacity = pages_per_region * spec.page_size - 8
            partitioning = partition_fn(network, capacity)
        if border_index is None:
            border_index = compute_border_nodes(network, partitioning)
        products = compute_approximate_passage_subgraphs(
            network, partitioning, border_index, epsilon
        )
        scheme = super().build(
            network,
            spec=spec,
            packed=packed,
            compress=compress,
            pages_per_region=pages_per_region,
            partitioning=partitioning,
            border_index=border_index,
            products=products.as_border_products(),
        )
        scheme.epsilon = epsilon
        scheme.sparsification_stats = products.stats
        return scheme

    @property
    def deviation_bound(self) -> float:
        """Guaranteed upper bound on (returned path cost / shortest path cost)."""
        return 1.0 + self.epsilon


def measure_cost_deviation(
    scheme: PassageIndexScheme,
    network: RoadNetwork,
    queries: Iterable[Tuple[NodeId, NodeId]],
) -> Sequence[float]:
    """Empirical deviation ratios (returned cost / exact cost) over a workload.

    Pairs whose exact cost is zero (source equals destination) are reported as
    a ratio of ``1.0``.
    """
    ratios = []
    for source, target in queries:
        result = scheme.query(source, target)
        exact = shortest_path_cost(network, source, target)
        if exact == 0:
            ratios.append(1.0)
        else:
            ratios.append(result.path.cost / exact)
    return ratios
