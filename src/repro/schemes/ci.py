"""Concise Index (CI) scheme — Section 5 of the paper.

CI keeps four files: header, look-up, network index (region sets ``S_ij``)
and region data.  Queries run in exactly four rounds:

1. download the header in full (no PIR),
2. fetch one page of the look-up file,
3. fetch ``p`` pages of the network index (``p`` = the largest number of
   pages any region set spans),
4. fetch ``m + 2`` pages of the region data file (``m`` = the largest region
   set cardinality), padded with dummy retrievals when fewer are needed.

The client then runs Dijkstra on the retrieved subgraph, which is guaranteed
to contain the shortest path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..costmodel import DEFAULT_SPEC, SystemSpec
from ..exceptions import SchemeError
from ..network import NodeId, RoadNetwork
from ..partition import (
    BorderNodeIndex,
    Partitioning,
    compute_border_nodes,
    packed_kdtree_partition,
    plain_kdtree_partition,
)
from ..precompute import BorderProducts, compute_border_products
from ..storage import Database
from . import assembly
from .assembly import csr_shortest_path
from .base import PreparedQuery, QueryResult, RemoteSolve, Scheme, Timer
from .files import (
    DATA_FILE,
    HeaderInfo,
    INDEX_FILE,
    LOOKUP_FILE,
    build_lookup_file,
    build_region_data_file,
    lookup_entries_per_page,
    read_lookup_entry,
)
from .index_entries import IndexFileBuilder, decode_index_entry
from .plan import QueryPlan, RoundSpec

#: Bytes reserved in each page for the region payload's own framing.
_PAYLOAD_RESERVE = 8


@dataclass
class CiBuildArtifacts:
    """Intermediate products that may be shared between scheme builds."""

    partitioning: Partitioning
    border_index: BorderNodeIndex
    products: BorderProducts


class ConciseIndexScheme(Scheme):
    """The Concise Index scheme (CI)."""

    name = "CI"

    def __init__(
        self,
        network: RoadNetwork,
        database: Database,
        plan: QueryPlan,
        header: HeaderInfo,
        partitioning: Partitioning,
        max_region_set_size: int,
        spec: SystemSpec = DEFAULT_SPEC,
    ) -> None:
        super().__init__(network, database, plan, spec)
        self.header = header
        self.partitioning = partitioning
        self.max_region_set_size = max_region_set_size

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        network: RoadNetwork,
        spec: SystemSpec = DEFAULT_SPEC,
        packed: bool = True,
        compress: bool = True,
        partitioning: Optional[Partitioning] = None,
        border_index: Optional[BorderNodeIndex] = None,
        products: Optional[BorderProducts] = None,
        store_backend: Optional[str] = None,
        store_dir=None,
    ) -> "ConciseIndexScheme":
        """Build the CI database for ``network``.

        ``packed``/``compress`` toggle the two optimisations of Sections 5.6
        and 5.5 (used by the CI-P and CI-C ablations).  Pre-computed
        artifacts can be passed in so that several schemes share them.
        ``store_backend``/``store_dir`` choose the page-store backend the
        database streams onto (memory/mmap/sqlite; see
        :mod:`repro.storage.stores`).
        """
        page_size = spec.page_size
        capacity = page_size - _PAYLOAD_RESERVE
        if partitioning is None:
            partition_fn = packed_kdtree_partition if packed else plain_kdtree_partition
            partitioning = partition_fn(network, capacity)
        if border_index is None:
            border_index = compute_border_nodes(network, partitioning)
        if products is None or not products.region_sets:
            products = compute_border_products(
                network, partitioning, border_index, want_region_sets=True
            )
        max_set_size = products.max_region_set_size()

        database = Database(page_size, store_backend=store_backend, store_dir=store_dir)
        index_file = database.create_file(INDEX_FILE)
        builder = IndexFileBuilder(
            index_file, compress=compress, max_region_set_size=max_set_size
        )
        num_regions = partitioning.num_regions
        for region_i in range(num_regions):
            for region_j in range(num_regions):
                builder.add_region_set(
                    region_i, region_j, products.region_set(region_i, region_j)
                )
        build_lookup_file(
            database,
            num_regions,
            lambda i, j: builder.location_of((i, j)).start_page,
        )
        build_region_data_file(database, network, partitioning, pages_per_region=1)

        index_fetch_pages = builder.max_page_span
        data_round_pages = max_set_size + 2
        plan = QueryPlan.from_rounds(
            [
                RoundSpec(includes_header=True),
                RoundSpec(fetches=((LOOKUP_FILE, 1),)),
                RoundSpec(fetches=((INDEX_FILE, index_fetch_pages),)),
                RoundSpec(fetches=((DATA_FILE, data_round_pages),)),
            ]
        )
        header = HeaderInfo(
            scheme_name=cls.name,
            page_size=page_size,
            num_regions=num_regions,
            data_file=DATA_FILE,
            index_file=INDEX_FILE,
            lookup_file=LOOKUP_FILE,
            data_pages_per_region=1,
            data_page_offset=0,
            lookup_entries_per_page=lookup_entries_per_page(page_size),
            index_fetch_pages=index_fetch_pages,
            data_round_pages=data_round_pages,
            num_index_pages=database.file(INDEX_FILE).num_pages,
            num_data_pages=database.file(DATA_FILE).num_pages,
            num_lookup_pages=database.file(LOOKUP_FILE).num_pages,
            tree_splits=partitioning.tree_splits(),
            plan=plan,
        )
        database.set_header(header.encode())
        return cls(network, database, plan, header, partitioning, max_set_size, spec)

    # ------------------------------------------------------------------ #
    # query processing (Section 5.4)
    # ------------------------------------------------------------------ #
    def query(self, source: NodeId, target: NodeId) -> QueryResult:
        return self.prepare_query(source, target).solve()

    def prepare_query(self, source: NodeId, target: NodeId) -> PreparedQuery:
        """All four PIR rounds; the CSR assembly and search run in ``solve()``."""
        from ..pir import AccessTrace

        trace = AccessTrace()
        rounds = self.new_round_manager(trace)
        timer = Timer()

        # round 1: header download and region mapping
        rounds.begin_round()
        header_bytes = rounds.download_header()
        with timer:
            header = HeaderInfo.decode(header_bytes)
            source_node = self.network.node(source)
            target_node = self.network.node(target)
            source_region = header.region_of_point(source_node.x, source_node.y)
            target_region = header.region_of_point(target_node.x, target_node.y)

        # round 2: one look-up page
        rounds.begin_round()
        lookup_page, slot = header.lookup_page_for(source_region, target_region)
        lookup_bytes = rounds.fetch(LOOKUP_FILE, lookup_page)
        with timer:
            index_start_page = read_lookup_entry(lookup_bytes, slot)

        # round 3: the fixed window of network-index pages
        rounds.begin_round()
        index_pages = header.index_pages_starting_at(index_start_page)
        fetched_index = rounds.pad(INDEX_FILE, header.index_fetch_pages, pages=index_pages)
        with timer:
            entry = decode_index_entry(fetched_index, (source_region, target_region))
            if entry is None or entry.regions is None:
                raise SchemeError("missing region-set entry for queried pair")
            regions_to_fetch = sorted(set(entry.regions) | {source_region, target_region})

        # round 4: region data pages, padded to m + 2
        rounds.begin_round()
        payloads = header.region_payloads(
            rounds.pad(
                DATA_FILE,
                header.data_round_pages,
                pages=header.data_pages_for_regions(regions_to_fetch),
            )
        )

        def solve() -> QueryResult:
            with timer:
                subgraph = assembly.assemble_region_csr(payloads)
                path = csr_shortest_path(subgraph, source, target)
            return self.finish_query(path, trace, timer.seconds)

        def finish(path, solve_seconds: float) -> QueryResult:
            return self.finish_query(path, trace, timer.seconds + solve_seconds)

        remote = RemoteSolve(
            assembly.solve_region_query,
            (payloads, source, target),
            assembly.region_cache_key(payloads),
        )
        return PreparedQuery(solve, remote=remote, finish=finish)
