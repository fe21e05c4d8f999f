"""Passage Index (PI) scheme — Section 6 of the paper.

PI materialises, for every region pair, the exact subgraph ``G_ij`` formed by
all edges appearing in border-to-border shortest paths.  Queries then need
only three rounds: header, one look-up page, and a final round that fetches
``h`` network-index pages (``h`` = the largest number of pages any subgraph
spans) plus the two region-data pages of the source and destination regions.

PI trades a much larger network index for far fewer PIR accesses, which makes
it the fastest scheme wherever its index fits within the PIR interface's file
size limit.
"""

from __future__ import annotations

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
from .base import PreparedQuery, QueryResult, Scheme, Timer
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
from .index_entries import IndexFileBuilder
from .plan import QueryPlan, RoundSpec

__all__ = ["PassageIndexScheme"]

_PAYLOAD_RESERVE = 8


class PassageIndexScheme(Scheme):
    """The Passage Index scheme (PI)."""

    name = "PI"

    def __init__(
        self,
        network: RoadNetwork,
        database: Database,
        plan: QueryPlan,
        header: HeaderInfo,
        partitioning: Partitioning,
        spec: SystemSpec = DEFAULT_SPEC,
    ) -> None:
        super().__init__(network, database, plan, spec)
        self.header = header
        self.partitioning = partitioning

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
        pages_per_region: int = 1,
        partitioning: Optional[Partitioning] = None,
        border_index: Optional[BorderNodeIndex] = None,
        products: Optional[BorderProducts] = None,
        store_backend: Optional[str] = None,
        store_dir=None,
    ) -> "PassageIndexScheme":
        """Build the PI database (see :meth:`ConciseIndexScheme.build` for the knobs).

        ``pages_per_region`` > 1 yields the clustered variant PI* of Section 6:
        regions hold several pages of data, which shrinks the network index at
        the cost of more region-data retrievals per query.
        """
        if pages_per_region < 1:
            raise SchemeError("pages_per_region must be at least 1")
        page_size = spec.page_size
        capacity = pages_per_region * page_size - _PAYLOAD_RESERVE
        if partitioning is None:
            partition_fn = packed_kdtree_partition if packed else plain_kdtree_partition
            partitioning = partition_fn(network, capacity)
        if border_index is None:
            border_index = compute_border_nodes(network, partitioning)
        if products is None or not products.passage_subgraphs:
            products = compute_border_products(
                network,
                partitioning,
                border_index,
                want_region_sets=False,
                want_subgraphs=True,
            )

        weights = {
            (edge.source, edge.target): edge.weight for edge in network.edges()
        }

        database = Database(page_size, store_backend=store_backend, store_dir=store_dir)
        index_file = database.create_file(INDEX_FILE)
        builder = IndexFileBuilder(index_file, compress=compress)
        num_regions = partitioning.num_regions
        for region_i in range(num_regions):
            for region_j in range(num_regions):
                edges = products.passage_subgraph(region_i, region_j)
                weighted = [(u, v, weights[(u, v)]) for u, v in edges]
                builder.add_subgraph(region_i, region_j, weighted)
        build_lookup_file(
            database,
            num_regions,
            lambda i, j: builder.location_of((i, j)).start_page,
        )
        build_region_data_file(
            database, network, partitioning, pages_per_region=pages_per_region
        )

        index_fetch_pages = builder.max_page_span
        data_round_pages = 2 * pages_per_region
        plan = QueryPlan.from_rounds(
            [
                RoundSpec(includes_header=True),
                RoundSpec(fetches=((LOOKUP_FILE, 1),)),
                RoundSpec(
                    fetches=((INDEX_FILE, index_fetch_pages), (DATA_FILE, data_round_pages))
                ),
            ]
        )
        header = HeaderInfo(
            scheme_name=cls.name,
            page_size=page_size,
            num_regions=num_regions,
            data_file=DATA_FILE,
            index_file=INDEX_FILE,
            lookup_file=LOOKUP_FILE,
            data_pages_per_region=pages_per_region,
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
        return cls(network, database, plan, header, partitioning, spec)

    # ------------------------------------------------------------------ #
    # query processing
    # ------------------------------------------------------------------ #
    def query(self, source: NodeId, target: NodeId) -> QueryResult:
        return self.prepare_query(source, target).solve()

    def prepare_query(self, source: NodeId, target: NodeId) -> PreparedQuery:
        """All three PIR rounds; entry decode, assembly and the search run in
        ``solve()``."""
        from ..pir import AccessTrace

        trace = AccessTrace()
        rounds = self.new_round_manager(trace)
        timer = Timer()

        # round 1: header download and region mapping
        rounds.begin_round()
        header_bytes = rounds.download_header()
        with timer:
            header = HeaderInfo.decode(header_bytes)
            header.check_page_counts(rounds.file_pages)
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

        # round 3: the subgraph pages plus the two region-data pages
        rounds.begin_round()
        index_pages = header.index_pages_starting_at(index_start_page)
        fetched_index = rounds.pad(INDEX_FILE, header.index_fetch_pages, pages=index_pages)
        payloads = header.region_payloads(
            rounds.pad(
                DATA_FILE,
                header.data_round_pages,
                pages=header.data_pages_for_regions(sorted({source_region, target_region})),
            )
        )

        def solve() -> QueryResult:
            with timer:
                graph = assembly.assemble_passage_csr(
                    payloads, fetched_index, (source_region, target_region)
                )
                path = csr_shortest_path(graph, source, target)
            return self.finish_query(path, trace, timer.seconds)

        return PreparedQuery(solve)
