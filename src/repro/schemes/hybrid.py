"""Hybrid scheme (HY) — Section 6 of the paper.

HY starts from CI's region sets and replaces the largest ones (those whose
cardinality exceeds a threshold) with the corresponding passage subgraphs,
trading index size for fewer region-data retrievals.  Crucially the network
index and the region data are concatenated into a *single* physical file: if
they were separate, the adversary could tell from the per-file page counts
whether a query was answered through a region set or through a subgraph,
narrowing down the possible source/destination regions.

Query plan: header, one look-up page, ``r`` pages of the combined file
(``r`` = the largest number of pages an un-replaced region set spans), and a
final round of ``M`` combined-file pages covering subgraph continuation pages,
region-data pages and dummies.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Tuple

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
    COMBINED_FILE,
    HeaderInfo,
    LOOKUP_FILE,
    build_lookup_file,
    build_region_data_file,
    lookup_entries_per_page,
    read_lookup_entry,
)
from .index_entries import IndexFileBuilder, decode_index_entry
from .plan import QueryPlan, RoundSpec

_PAYLOAD_RESERVE = 8

RegionPair = Tuple[int, int]


class HybridScheme(Scheme):
    """The Hybrid scheme (HY)."""

    name = "HY"

    def __init__(
        self,
        network: RoadNetwork,
        database: Database,
        plan: QueryPlan,
        header: HeaderInfo,
        partitioning: Partitioning,
        region_set_threshold: int,
        num_replaced_pairs: int,
        spec: SystemSpec = DEFAULT_SPEC,
    ) -> None:
        super().__init__(network, database, plan, spec)
        self.header = header
        self.partitioning = partitioning
        self.region_set_threshold = region_set_threshold
        self.num_replaced_pairs = num_replaced_pairs

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        network: RoadNetwork,
        spec: SystemSpec = DEFAULT_SPEC,
        region_set_threshold: int = 20,
        packed: bool = True,
        compress: bool = True,
        partitioning: Optional[Partitioning] = None,
        border_index: Optional[BorderNodeIndex] = None,
        products: Optional[BorderProducts] = None,
        passage_subgraphs: Optional[Dict[RegionPair, Iterable[Tuple[int, int]]]] = None,
        store_backend: Optional[str] = None,
        store_dir=None,
    ) -> "HybridScheme":
        """Build HY; region sets larger than ``region_set_threshold`` are replaced.

        ``passage_subgraphs`` may supply pre-computed ``G_ij`` edge sets for
        (at least) the replaced pairs, so that parameter sweeps do not repeat
        the border-node Dijkstra pass.
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

        num_regions = partitioning.num_regions
        replaced = {
            pair
            for pair, regions in products.region_sets.items()
            if len(regions) > region_set_threshold
        }
        kept_sizes = [
            len(regions)
            for pair, regions in products.region_sets.items()
            if pair not in replaced
        ]
        kept_max = max(kept_sizes) if kept_sizes else 0

        subgraph_edges: Dict[RegionPair, FrozenSet[Tuple[int, int]]] = {}
        if replaced:
            if passage_subgraphs is not None:
                missing = [pair for pair in sorted(replaced) if pair not in passage_subgraphs]
                if missing:
                    raise SchemeError(
                        f"passage subgraphs missing for {len(missing)} replaced pairs"
                    )
                subgraph_edges = {
                    pair: frozenset(tuple(edge) for edge in passage_subgraphs[pair])
                    for pair in sorted(replaced)
                }
            else:
                extra = compute_border_products(
                    network,
                    partitioning,
                    border_index,
                    want_region_sets=False,
                    want_subgraphs=True,
                    subgraph_pairs=replaced,
                )
                subgraph_edges = {
                    pair: extra.passage_subgraph(*pair) for pair in sorted(replaced)
                }

        weights = {(edge.source, edge.target): edge.weight for edge in network.edges()}

        database = Database(page_size, store_backend=store_backend, store_dir=store_dir)
        combined = database.create_file(COMBINED_FILE)
        builder = IndexFileBuilder(
            combined, compress=compress, max_region_set_size=max(kept_max, 1)
        )
        for region_i in range(num_regions):
            for region_j in range(num_regions):
                pair = (region_i, region_j)
                if pair in replaced:
                    # frozenset iteration would randomise the on-page edge
                    # layout across runs; sort for a reproducible image (I2)
                    weighted = [
                        (u, v, weights[(u, v)]) for u, v in sorted(subgraph_edges[pair])
                    ]
                    builder.add_subgraph(region_i, region_j, weighted)
                else:
                    builder.add_region_set(
                        region_i, region_j, products.region_set(region_i, region_j)
                    )

        region_set_span = 1
        subgraph_span = 0
        for pair, location in builder.locations.items():
            if pair in replaced:
                subgraph_span = max(subgraph_span, location.page_span)
            else:
                region_set_span = max(region_set_span, location.page_span)
        continuation_pages = max(0, subgraph_span - region_set_span)

        num_index_pages = combined.num_pages
        build_region_data_file(
            database, network, partitioning, pages_per_region=1, page_file=combined
        )
        build_lookup_file(
            database,
            num_regions,
            lambda i, j: builder.location_of((i, j)).start_page,
        )

        final_round_pages = max(kept_max + 2, continuation_pages + 2)
        plan = QueryPlan.from_rounds(
            [
                RoundSpec(includes_header=True),
                RoundSpec(fetches=((LOOKUP_FILE, 1),)),
                RoundSpec(fetches=((COMBINED_FILE, region_set_span),)),
                RoundSpec(fetches=((COMBINED_FILE, final_round_pages),)),
            ]
        )
        header = HeaderInfo(
            scheme_name=cls.name,
            page_size=page_size,
            num_regions=num_regions,
            data_file=COMBINED_FILE,
            index_file=COMBINED_FILE,
            lookup_file=LOOKUP_FILE,
            data_pages_per_region=1,
            data_page_offset=num_index_pages,
            lookup_entries_per_page=lookup_entries_per_page(page_size),
            index_fetch_pages=region_set_span,
            data_round_pages=final_round_pages,
            num_index_pages=num_index_pages,
            num_data_pages=combined.num_pages - num_index_pages,
            num_lookup_pages=database.file(LOOKUP_FILE).num_pages,
            tree_splits=partitioning.tree_splits(),
            plan=plan,
            index_continuation_pages=continuation_pages,
        )
        database.set_header(header.encode())
        return cls(
            network,
            database,
            plan,
            header,
            partitioning,
            region_set_threshold,
            len(replaced),
            spec,
        )

    # ------------------------------------------------------------------ #
    # query processing
    # ------------------------------------------------------------------ #
    def query(self, source: NodeId, target: NodeId) -> QueryResult:
        return self.prepare_query(source, target).solve()

    def prepare_query(self, source: NodeId, target: NodeId) -> PreparedQuery:
        """All four PIR rounds; CSR assembly and the search run in ``solve()``."""
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

        # round 3: r pages of the combined file at the entry's position
        rounds.begin_round()
        window = header.index_pages_starting_at(index_start_page)
        fetched_index = rounds.pad(COMBINED_FILE, header.index_fetch_pages, pages=window)
        key = (source_region, target_region)
        with timer:
            entry = decode_index_entry(fetched_index, key)
            if entry is None:
                raise SchemeError(f"missing combined-index entry for pair {key}")

        # round 4: continuation pages (subgraph case), region data pages, dummies
        rounds.begin_round()
        continuation: list = []
        if entry.edges is not None and header.index_continuation_pages > 0:
            first_continuation = window[-1] + 1 if window else 0
            last_continuation = min(
                header.num_index_pages, first_continuation + header.index_continuation_pages
            )
            continuation = list(range(first_continuation, last_continuation))
        if entry.regions is not None:
            regions_to_fetch = sorted(set(entry.regions) | {source_region, target_region})
        else:
            regions_to_fetch = sorted({source_region, target_region})
        fetched = rounds.pad(
            COMBINED_FILE,
            header.data_round_pages,
            pages=continuation + header.data_pages_for_regions(regions_to_fetch),
        )
        continuation_pages = fetched[: len(continuation)]
        payloads = header.region_payloads(fetched[len(continuation) :])
        is_subgraph_entry = entry.edges is not None
        round3_entry = entry

        def solve() -> QueryResult:
            with timer:
                if is_subgraph_entry:
                    # continuation pages may extend the entry; re-decode from
                    # the full page list (skipped on an assembly-cache hit)
                    index_pages = list(fetched_index) + continuation_pages
                    graph = assembly.assemble_passage_csr(
                        payloads,
                        index_pages,
                        key,
                        entry=None if continuation_pages else round3_entry,
                    )
                else:
                    graph = assembly.assemble_region_csr(payloads)
                path = csr_shortest_path(graph, source, target)
            return self.finish_query(path, trace, timer.seconds)

        return PreparedQuery(solve)
