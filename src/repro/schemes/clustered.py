"""Clustered Passage Index (PI*) — Section 6 of the paper.

PI* is the Passage Index scheme built over *clustered* regions: every region
of the packed KD-tree is allowed to occupy a fixed number of disk pages
(``cluster_pages``) instead of one.  Fewer, larger regions mean fewer border
nodes and far fewer pre-computed subgraphs, so the network index shrinks —
at the cost of fetching ``2 · cluster_pages`` region-data pages per query.

The cluster size is the knob that trades space for response time (Figure 11).

Query processing is inherited from :class:`PassageIndexScheme`: the fetched
region columns and the passage-subgraph entry are searched in place (see
:mod:`repro.schemes.assembly`), with no ``RoadNetwork`` or CSR build.
"""

from __future__ import annotations

from typing import Optional

from ..costmodel import DEFAULT_SPEC, SystemSpec
from ..network import RoadNetwork
from ..partition import BorderNodeIndex, Partitioning
from ..precompute import BorderProducts
from .pi import PassageIndexScheme


class ClusteredPassageIndexScheme(PassageIndexScheme):
    """The clustered Passage Index scheme (PI*)."""

    name = "PI*"

    @classmethod
    def build(  # type: ignore[override]
        cls,
        network: RoadNetwork,
        spec: SystemSpec = DEFAULT_SPEC,
        cluster_pages: int = 2,
        packed: bool = True,
        compress: bool = True,
        partitioning: Optional[Partitioning] = None,
        border_index: Optional[BorderNodeIndex] = None,
        products: Optional[BorderProducts] = None,
        store_backend: Optional[str] = None,
        store_dir=None,
    ) -> "ClusteredPassageIndexScheme":
        """Build PI* with ``cluster_pages`` region-data pages per region."""
        return super().build(
            network,
            spec=spec,
            packed=packed,
            compress=compress,
            pages_per_region=cluster_pages,
            partitioning=partitioning,
            border_index=border_index,
            products=products,
            store_backend=store_backend,
            store_dir=store_dir,
        )

    @property
    def cluster_pages(self) -> int:
        return self.header.data_pages_per_region
