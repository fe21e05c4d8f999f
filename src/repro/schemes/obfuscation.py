"""Obfuscation baseline (OBF) — the prior art of Lee et al. [22].

The client hides the real source ``s`` and destination ``t`` inside
obfuscation sets ``S`` and ``T`` (decoys drawn uniformly from the network, as
in Section 7.3 of the paper, to leak as little as possible).  The LBS — which
operates on plaintext data — computes all ``|S|·|T|`` shortest paths and ships
them back; the client keeps the one for the real pair.

OBF provides only weak privacy (the LBS learns a finite candidate set for
``s`` and ``t`` and strong clues about the path); it is measured here purely
as the performance yard-stick of Figure 6.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..costmodel import CostModel, DEFAULT_SPEC, ResponseTime, SystemSpec
from ..exceptions import SchemeError
from ..network import NodeId, Path, RoadNetwork, SearchStats, shortest_path


@dataclass
class ObfuscationResult:
    """Outcome of one obfuscated shortest-path query."""

    path: Path
    response: ResponseTime
    obfuscation_set_size: int
    candidate_paths: int

class ObfuscationScheme:
    """The OBF baseline (weak privacy; no PIR involved)."""

    name = "OBF"

    def __init__(
        self,
        network: RoadNetwork,
        spec: SystemSpec = DEFAULT_SPEC,
        set_size: int = 20,
        seed: int = 0,
    ) -> None:
        if set_size < 1:
            raise SchemeError("the obfuscation set size must be at least 1")
        self.network = network
        self.spec = spec
        self.set_size = set_size
        self.cost_model = CostModel(spec)
        self._rng = random.Random(seed)
        #: Bytes used to encode one edge of a returned path.
        self.bytes_per_path_edge = 8
        #: Bytes used to upload one candidate location.
        self.bytes_per_location = 16

    def choose_decoys(self, exclude: NodeId, count: int) -> List[NodeId]:
        """Decoy locations drawn uniformly from the whole network."""
        node_ids = [node_id for node_id in self.network.node_ids() if node_id != exclude]
        if count > len(node_ids):
            raise SchemeError("not enough nodes to draw the requested number of decoys")
        return self._rng.sample(node_ids, count)

    def query(self, source: NodeId, target: NodeId) -> ObfuscationResult:
        """Answer a query through obfuscation sets of the configured size."""
        sources = [source] + self.choose_decoys(source, self.set_size - 1)
        targets = [target] + self.choose_decoys(target, self.set_size - 1)
        candidate_paths = len(sources) * len(targets)

        # The client-relevant path is computed exactly; the server cost of the
        # remaining |S|·|T| - 1 paths is modelled from the measured search size.
        stats = SearchStats()
        path = shortest_path(self.network, source, target, stats=stats)
        settled_per_search = max(stats.settled_nodes, 1)

        server = self.cost_model.plaintext_server_work(settled_per_search * candidate_paths)
        upload_bytes = (len(sources) + len(targets)) * self.bytes_per_location
        download_bytes = candidate_paths * max(path.num_edges, 1) * self.bytes_per_path_edge
        communication = self.cost_model.plaintext_transfer(upload_bytes + download_bytes, rounds=1)
        response = server + communication

        return ObfuscationResult(
            path=path,
            response=response,
            obfuscation_set_size=self.set_size,
            candidate_paths=candidate_paths,
        )
