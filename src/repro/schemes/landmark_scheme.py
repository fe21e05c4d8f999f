"""Landmark baseline (LM) — Section 4 of the paper.

LM adapts the Landmark/ALT pre-computation to the private setting: every node
stores a vector of shortest-path costs to a small set of anchor nodes, and an
A* search guided by the triangle-inequality lower bound expands from the
source towards the destination.  The network is partitioned into one-page
regions; whenever the search first touches a region, the corresponding region
data page is fetched through the PIR interface in a new round.

Because the query plan must cover the worst query, LM ends up fetching a large
fraction of the database for *every* query, which is exactly the weakness the
paper's CI/PI schemes address.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, Tuple

from ..costmodel import DEFAULT_SPEC, SystemSpec
from ..exceptions import PlanViolationError, SchemeError
from ..network import NodeId, RoadNetwork, astar_search
from ..partition import Partitioning, node_record_size, packed_kdtree_partition
from ..precompute import LandmarkIndex, build_landmark_index
from ..storage import Database, RecordWriter
from .base import QueryResult, Scheme, Timer
from .files import DATA_FILE, HeaderInfo, lookup_entries_per_page
from .plan import QueryPlan, RoundSpec

_PAYLOAD_RESERVE = 8


def _landmark_size_fn(landmarks: LandmarkIndex):
    """Node-record size including the landmark vector."""

    def size_fn(network: RoadNetwork, node_id: NodeId) -> int:
        return node_record_size(network, node_id) + 4 * landmarks.num_anchors

    return size_fn


def _encode_landmark_region(
    network: RoadNetwork, landmarks: LandmarkIndex, node_ids: Iterable[NodeId]
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
        for cost in landmarks.vector(node_id):
            writer.float32(cost if cost != float("inf") else 3.4e38)
    return writer.getvalue()


def generate_plan_pairs(
    network: RoadNetwork, count: int = 300, seed: int = 7
) -> List[Tuple[NodeId, NodeId]]:
    """A seeded sample of source/destination pairs used to derive baseline plans."""
    rng = random.Random(seed)
    node_ids = list(network.node_ids())
    pairs = []
    for _ in range(count):
        source = rng.choice(node_ids)
        target = rng.choice(node_ids)
        pairs.append((source, target))
    return pairs


class LandmarkScheme(Scheme):
    """The Landmark (LM) baseline."""

    name = "LM"

    def __init__(
        self,
        network: RoadNetwork,
        database: Database,
        plan: QueryPlan,
        header: HeaderInfo,
        partitioning: Partitioning,
        landmarks: LandmarkIndex,
        max_pages: int,
        spec: SystemSpec = DEFAULT_SPEC,
    ) -> None:
        super().__init__(network, database, plan, spec)
        self.header = header
        self.partitioning = partitioning
        self.landmarks = landmarks
        self.max_pages = max_pages

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        network: RoadNetwork,
        spec: SystemSpec = DEFAULT_SPEC,
        num_landmarks: int = 5,
        plan_pairs: Optional[Sequence[Tuple[NodeId, NodeId]]] = None,
        landmark_seed: int = 0,
    ) -> "LandmarkScheme":
        """Build the LM baseline with ``num_landmarks`` anchors.

        ``plan_pairs`` is the query sample over which the (fixed) query plan is
        derived; the paper derives it over all source/destination pairs, which
        is intractable here, so a large seeded sample plus all evaluated
        workload queries is used instead.
        """
        page_size = spec.page_size
        landmarks = build_landmark_index(network, num_landmarks, seed=landmark_seed)
        size_fn = _landmark_size_fn(landmarks)
        partitioning = packed_kdtree_partition(network, page_size - _PAYLOAD_RESERVE, size_fn)

        database = Database(page_size)
        data_file = database.create_file(DATA_FILE)
        for region in partitioning.regions():
            payload = _encode_landmark_region(network, landmarks, region.node_ids)
            if len(payload) > page_size:
                raise SchemeError(
                    f"LM region {region.region_id} does not fit a page ({len(payload)} bytes)"
                )
            page = data_file.new_page()
            page.append(payload)

        if plan_pairs is None:
            plan_pairs = generate_plan_pairs(network)
        max_pages = 2
        for source, target in plan_pairs:
            touched = cls._regions_touched(network, partitioning, landmarks, source, target)
            max_pages = max(max_pages, len(touched))

        rounds = [RoundSpec(includes_header=True), RoundSpec(fetches=((DATA_FILE, 2),))]
        rounds.extend(RoundSpec(fetches=((DATA_FILE, 1),)) for _ in range(max_pages - 2))
        plan = QueryPlan.from_rounds(rounds)

        header = HeaderInfo(
            scheme_name=cls.name,
            page_size=page_size,
            num_regions=partitioning.num_regions,
            data_file=DATA_FILE,
            index_file=DATA_FILE,
            lookup_file=DATA_FILE,
            data_pages_per_region=1,
            data_page_offset=0,
            lookup_entries_per_page=lookup_entries_per_page(page_size),
            index_fetch_pages=0,
            data_round_pages=max_pages,
            num_index_pages=0,
            num_data_pages=data_file.num_pages,
            num_lookup_pages=0,
            tree_splits=partitioning.tree_splits(),
            plan=plan,
        )
        database.set_header(header.encode())
        return cls(network, database, plan, header, partitioning, landmarks, max_pages, spec)

    # ------------------------------------------------------------------ #
    # search simulation shared by plan derivation and query processing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _regions_touched(
        network: RoadNetwork,
        partitioning: Partitioning,
        landmarks: LandmarkIndex,
        source: NodeId,
        target: NodeId,
    ) -> List[int]:
        """Regions in first-touch order: source and destination regions first,
        then every region the guided A* search settles a node in."""
        source_region = partitioning.region_of_node(source)
        target_region = partitioning.region_of_node(target)
        touched: List[int] = [source_region]
        if target_region not in touched:
            touched.append(target_region)
        seen = set(touched)

        def on_settle(node_id: NodeId) -> None:
            region = partitioning.region_of_node(node_id)
            if region not in seen:
                seen.add(region)
                touched.append(region)

        astar_search(
            network, source, target, heuristic=landmarks.heuristic_for(target), on_settle=on_settle
        )
        return touched

    # ------------------------------------------------------------------ #
    # query processing
    # ------------------------------------------------------------------ #
    def query(self, source: NodeId, target: NodeId) -> QueryResult:
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
            path = astar_search(
                self.network, source, target, heuristic=self.landmarks.heuristic_for(target)
            )
            touched = self._regions_touched(
                self.network, self.partitioning, self.landmarks, source, target
            )
        if len(touched) > self.max_pages:
            raise PlanViolationError(
                f"query touches {len(touched)} regions but the derived plan only "
                f"covers {self.max_pages}; rebuild the scheme with this query in plan_pairs"
            )

        # round 2: source and destination regions
        rounds.begin_round()
        rounds.pad(DATA_FILE, 2, pages=header.data_pages_for_regions(touched[:2]))

        # subsequent rounds: one page per region touched by the search, then dummies
        later_rounds = [[region_id] for region_id in touched[2:]]
        later_rounds += [[]] * (self.max_pages - max(len(touched), 2))
        for round_regions in later_rounds:
            rounds.begin_round()
            rounds.pad(DATA_FILE, 1, pages=header.data_pages_for_regions(round_regions))

        return self.finish_query(path, trace, timer.seconds)
