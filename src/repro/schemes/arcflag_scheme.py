"""Arc-flag baseline (AF) — Section 4 of the paper.

AF stores with every edge a bit vector holding one bit per region; processing
a query towards a destination in region ``j`` only relaxes edges whose ``j``
bit is set.  Region data (adjacency lists plus the edge bit vectors) no longer
fits one page per region, so every region is allocated a fixed number of pages
that are retrieved together whenever the search first touches the region.

Like LM, the fixed query plan forces every query to pay for the worst case,
which makes AF read a large fraction of the database per query.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..costmodel import DEFAULT_SPEC, SystemSpec
from ..exceptions import PlanViolationError, SchemeError
from ..network import NodeId, Path, RoadNetwork, shortest_path
from ..partition import (
    BorderNodeIndex,
    Partitioning,
    compute_border_nodes,
    packed_kdtree_partition,
)
from ..precompute import ArcFlagIndex, build_arc_flags
from ..storage import Database, RecordWriter
from .base import QueryResult, Scheme, Timer
from .files import DATA_FILE, HeaderInfo, lookup_entries_per_page
from .landmark_scheme import generate_plan_pairs
from .plan import QueryPlan, RoundSpec

_PAYLOAD_RESERVE = 8


def _encode_arcflag_region(
    network: RoadNetwork, flags: ArcFlagIndex, node_ids: Iterable[NodeId]
) -> bytes:
    node_ids = list(node_ids)
    writer = RecordWriter()
    writer.varint(len(node_ids))
    for node_id in node_ids:
        node = network.node(node_id)
        writer.uint32(node_id).float32(node.x).float32(node.y)
        neighbors = network.neighbors(node_id)
        writer.varint(len(neighbors))
        for neighbor, weight in neighbors:
            writer.uint32(neighbor).float32(weight)
            writer.raw(flags.bit_vector(node_id, neighbor))
    return writer.getvalue()


class ArcFlagScheme(Scheme):
    """The Arc-flag (AF) baseline."""

    name = "AF"

    def __init__(
        self,
        network: RoadNetwork,
        database: Database,
        plan: QueryPlan,
        header: HeaderInfo,
        partitioning: Partitioning,
        flags: ArcFlagIndex,
        pages_per_region: int,
        max_regions: int,
        spec: SystemSpec = DEFAULT_SPEC,
    ) -> None:
        super().__init__(network, database, plan, spec)
        self.header = header
        self.partitioning = partitioning
        self.flags = flags
        self.pages_per_region = pages_per_region
        self.max_regions = max_regions

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        network: RoadNetwork,
        spec: SystemSpec = DEFAULT_SPEC,
        plan_pairs: Optional[Sequence[Tuple[NodeId, NodeId]]] = None,
        partitioning: Optional[Partitioning] = None,
        border_index: Optional[BorderNodeIndex] = None,
        flags: Optional[ArcFlagIndex] = None,
    ) -> "ArcFlagScheme":
        """Build the AF baseline (the number of regions is the flag-vector width)."""
        page_size = spec.page_size
        if partitioning is None:
            partitioning = packed_kdtree_partition(network, page_size - _PAYLOAD_RESERVE)
        if border_index is None:
            border_index = compute_border_nodes(network, partitioning)
        if flags is None:
            flags = build_arc_flags(network, partitioning, border_index)

        payloads = {
            region.region_id: _encode_arcflag_region(network, flags, region.node_ids)
            for region in partitioning.regions()
        }
        pages_per_region = max(
            1, max((len(p) + page_size - 1) // page_size for p in payloads.values())
        )

        database = Database(page_size)
        data_file = database.create_file(DATA_FILE)
        for region in partitioning.regions():
            payload = payloads[region.region_id]
            for chunk_start in range(0, pages_per_region * page_size, page_size):
                chunk = payload[chunk_start:chunk_start + page_size]
                page = data_file.new_page()
                if chunk:
                    page.append(chunk)

        if plan_pairs is None:
            plan_pairs = generate_plan_pairs(network)
        max_regions = 2
        for source, target in plan_pairs:
            touched = cls._regions_touched(network, partitioning, flags, source, target)
            max_regions = max(max_regions, len(touched))

        rounds = [
            RoundSpec(includes_header=True),
            RoundSpec(fetches=((DATA_FILE, 2 * pages_per_region),)),
        ]
        rounds.extend(
            RoundSpec(fetches=((DATA_FILE, pages_per_region),))
            for _ in range(max_regions - 2)
        )
        plan = QueryPlan.from_rounds(rounds)

        header = HeaderInfo(
            scheme_name=cls.name,
            page_size=page_size,
            num_regions=partitioning.num_regions,
            data_file=DATA_FILE,
            index_file=DATA_FILE,
            lookup_file=DATA_FILE,
            data_pages_per_region=pages_per_region,
            data_page_offset=0,
            lookup_entries_per_page=lookup_entries_per_page(page_size),
            index_fetch_pages=0,
            data_round_pages=max_regions * pages_per_region,
            num_index_pages=0,
            num_data_pages=data_file.num_pages,
            num_lookup_pages=0,
            tree_splits=partitioning.tree_splits(),
            plan=plan,
        )
        database.set_header(header.encode())
        return cls(
            network,
            database,
            plan,
            header,
            partitioning,
            flags,
            pages_per_region,
            max_regions,
            spec,
        )

    # ------------------------------------------------------------------ #
    # flag-restricted search
    # ------------------------------------------------------------------ #
    @staticmethod
    def _restricted_network(
        network: RoadNetwork, flags: ArcFlagIndex, destination_region: int
    ) -> RoadNetwork:
        """The subgraph of edges whose flag for ``destination_region`` is set."""
        restricted = RoadNetwork()
        for node in network.nodes():
            restricted.add_node(node.node_id, node.x, node.y)
        for edge in network.edges():
            if flags.is_useful(edge.source, edge.target, destination_region):
                restricted.add_edge(edge.source, edge.target, edge.weight)
        return restricted

    @classmethod
    def _regions_touched(
        cls,
        network: RoadNetwork,
        partitioning: Partitioning,
        flags: ArcFlagIndex,
        source: NodeId,
        target: NodeId,
    ) -> List[int]:
        source_region = partitioning.region_of_node(source)
        target_region = partitioning.region_of_node(target)
        touched: List[int] = [source_region]
        if target_region not in touched:
            touched.append(target_region)
        seen = set(touched)
        restricted = cls._restricted_network(network, flags, target_region)

        from ..network import SearchStats, dijkstra_tree

        stats = SearchStats()
        dijkstra_tree(restricted, source, targets=[target], stats=stats)
        for node_id in stats.visited_nodes:
            region = partitioning.region_of_node(node_id)
            if region not in seen:
                seen.add(region)
                touched.append(region)
        return touched

    # ------------------------------------------------------------------ #
    # query processing
    # ------------------------------------------------------------------ #
    def query(self, source: NodeId, target: NodeId) -> QueryResult:
        from ..pir import AccessTrace

        trace = AccessTrace()
        rounds = self.new_round_manager(trace)
        timer = Timer()

        rounds.begin_round()
        header_bytes = rounds.download_header()
        with timer:
            header = HeaderInfo.decode(header_bytes)
            header.check_page_counts(rounds.file_pages)
            target_region = self.partitioning.region_of_node(target)
            restricted = self._restricted_network(self.network, self.flags, target_region)
            path = shortest_path(restricted, source, target)
            touched = self._regions_touched(
                self.network, self.partitioning, self.flags, source, target
            )
        if len(touched) > self.max_regions:
            raise PlanViolationError(
                f"query touches {len(touched)} regions but the derived plan only "
                f"covers {self.max_regions}; rebuild the scheme with this query in plan_pairs"
            )

        # round 2: source and destination regions
        rounds.begin_round()
        per_region = self.pages_per_region
        rounds.pad(DATA_FILE, 2 * per_region, pages=header.data_pages_for_regions(touched[:2]))

        # subsequent rounds: one region per round, then dummy rounds
        later_rounds = [[region_id] for region_id in touched[2:]]
        later_rounds += [[]] * (self.max_regions - max(len(touched), 2))
        for round_regions in later_rounds:
            rounds.begin_round()
            rounds.pad(DATA_FILE, per_region, pages=header.data_pages_for_regions(round_regions))

        return self.finish_query(path, trace, timer.seconds)
