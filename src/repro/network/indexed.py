"""Array-backed (CSR) graph core: the search fast path.

:class:`CsrGraph` compiles a :class:`~repro.network.graph.RoadNetwork` into
contiguous integer node ids with flat adjacency/weight arrays (``array``
module).  The public search functions in :mod:`repro.network.dijkstra` and
:mod:`repro.network.astar` compile the network once (cached on the network
object, keyed by its node/edge counts — networks are append-only) and run on
this representation, avoiding the per-step dict lookups, method calls and
tuple churn of the reference implementations.

The module-level search routines here operate purely on dense ids and return
raw arrays/lists; the compatibility wrappers translate back to the public
``ShortestPathTree``/``Path`` vocabulary.  A querying client's graph is not
compiled at all: :class:`QueryGraph` holds the columns of the fetched region
records and :func:`csr_shortest_path` searches them in place.
"""

from __future__ import annotations

import heapq
import math
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..exceptions import GraphError, NoPathError
from .graph import NodeId, RoadNetwork
from .paths import Path, SearchStats

_INF = math.inf

#: Below this many nodes the pure-Python core beats the SciPy call overhead
#: (the full road networks of the benchmarks are far larger).
SCIPY_MIN_NODES = 256


class CsrGraph:
    """A road network compiled to compressed-sparse-row form.

    Nodes are renumbered to the dense range ``0 .. num_nodes - 1`` (in the
    network's insertion order).  The out-edges of dense node ``u`` occupy the
    slice ``offsets[u]:offsets[u + 1]`` of the flat ``targets``/``weights``
    arrays.  Coordinates live in the parallel ``xs``/``ys`` arrays.
    """

    __slots__ = (
        "node_ids",
        "offsets",
        "targets",
        "weights",
        "xs",
        "ys",
        "heuristic_safe",
        "_index_of",
        "_adjacency",
        "_scipy_matrix",
        "_identity_ids",
    )

    def __init__(
        self,
        node_ids: List[NodeId],
        offsets: array,
        targets: array,
        weights: array,
        xs: array,
        ys: array,
        index_of: Optional[dict] = None,
        heuristic_safe: bool = True,
    ) -> None:
        self.node_ids = node_ids
        self.offsets = offsets
        self.targets = targets
        self.weights = weights
        self.xs = xs
        self.ys = ys
        #: False when some coordinates are placeholders (e.g. passage nodes
        #: whose real position is unknown to the client); geometric A*
        #: heuristics are inadmissible on such graphs.
        self.heuristic_safe = heuristic_safe
        self._index_of = (
            index_of
            if index_of is not None
            else {node_id: dense for dense, node_id in enumerate(node_ids)}
        )
        self._adjacency: Optional[List[Tuple[Tuple[float, int], ...]]] = None
        self._scipy_matrix = None
        self._identity_ids: Optional[bool] = None

    # ------------------------------------------------------------------ #
    # compilation
    # ------------------------------------------------------------------ #
    @classmethod
    def from_network(cls, network: RoadNetwork) -> "CsrGraph":
        """Compile ``network`` into CSR form."""
        node_ids = list(network.node_ids())
        index_of = {node_id: dense for dense, node_id in enumerate(node_ids)}
        offsets = array("q", [0])
        targets = array("q")
        weights = array("d")
        xs = array("d")
        ys = array("d")
        for node_id in node_ids:
            node = network.node(node_id)
            xs.append(node.x)
            ys.append(node.y)
            for neighbor, weight in network.neighbors(node_id):
                targets.append(index_of[neighbor])
                weights.append(weight)
            offsets.append(len(targets))
        return cls(
            node_ids,
            offsets,
            targets,
            weights,
            xs,
            ys,
            index_of,
            heuristic_safe=getattr(network, "heuristic_safe", True),
        )

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_edges(self) -> int:
        return len(self.targets)

    def dense_id(self, node_id: NodeId) -> int:
        """Map an original node id to its dense id; unknown ids are an error."""
        try:
            return self._index_of[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id}") from None

    @property
    def identity_ids(self) -> bool:
        """True when dense and original ids coincide (ids were 0..n-1 in order)."""
        if self._identity_ids is None:
            self._identity_ids = self.node_ids == list(range(len(self.node_ids)))
        return self._identity_ids

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._index_of

    def adjacency(self) -> List[Tuple[Tuple[float, int], ...]]:
        """Per-node ``((weight, dense_target), ...)`` tuples for the hot loops.

        Built lazily from the flat arrays the first time a search runs, so
        the boxed tuples are paid for once per compiled graph rather than
        once per relaxed edge.
        """
        adjacency = self._adjacency
        if adjacency is None:
            offsets, targets, weights = self.offsets, self.targets, self.weights
            adjacency = [
                tuple(zip(weights[offsets[u]:offsets[u + 1]], targets[offsets[u]:offsets[u + 1]]))
                for u in range(len(self.node_ids))
            ]
            self._adjacency = adjacency
        return adjacency

    def scipy_csgraph(self):
        """The graph as a ``scipy.sparse.csr_matrix`` (cached), or ``None``.

        Built directly from the flat CSR arrays (no copies, no coordinate
        round trip).  Parallel edges stay as duplicate column entries in the
        row, which the ``csgraph`` routines relax independently — the
        cheapest one wins, exactly like the pure-Python core.  Returns
        ``None`` when SciPy is not installed; callers fall back to the
        pure-Python core.
        """
        if self._scipy_matrix is None:
            modules = _scipy_modules()
            if modules is None:
                return None
            np, csr_matrix, _ = modules
            n = len(self.node_ids)
            self._scipy_matrix = csr_matrix(
                (
                    np.asarray(self.weights),
                    np.asarray(self.targets),
                    np.asarray(self.offsets),
                ),
                shape=(n, n),
            )
        return self._scipy_matrix

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CsrGraph(nodes={self.num_nodes}, edges={self.num_edges})"


class QueryGraph:
    """A client's search graph: the fetched region columns, searched in place.

    Dense node ``u`` is ``node_ids[u]``.  Its payload out-edges are entries
    ``offsets[u]:offsets[u + 1]`` of ``neighbours``/``weights``; they hold
    *original* ids, which the search resolves through ``payload_index`` as
    it relaxes each edge, skipping ids outside the fetched regions.
    ``extra`` maps a dense node to its passage edges ``[(dense target,
    weight), ...]``, relaxed after its payload edges.  Nodes after the
    payload nodes are passage-only placeholders: they have no payload edges
    and sit at ``(0, 0)``, so geometric A* heuristics would be inadmissible
    and ``heuristic_safe`` is False.
    """

    __slots__ = (
        "node_ids",
        "offsets",
        "neighbours",
        "weights",
        "xy",
        "payload_index",
        "index_of",
        "extra",
        "heuristic_safe",
    )

    def __init__(
        self,
        node_ids: Sequence[NodeId],
        offsets: Sequence[int],
        neighbours: Sequence[NodeId],
        weights: Sequence[float],
        xy: Sequence[float],
        payload_index: Dict[NodeId, int],
        index_of: Optional[Dict[NodeId, int]] = None,
        extra: Optional[Dict[int, List[Tuple[int, float]]]] = None,
    ) -> None:
        self.node_ids = node_ids
        self.offsets = offsets
        self.neighbours = neighbours
        self.weights = weights
        self.xy = xy
        self.payload_index = payload_index
        self.index_of = payload_index if index_of is None else index_of
        self.extra = {} if extra is None else extra
        self.heuristic_safe = len(self.index_of) == len(payload_index)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self.index_of

    def dense_id(self, node_id: NodeId) -> int:
        """Map an original node id to its dense id; unknown ids are an error."""
        try:
            return self.index_of[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id}") from None


def csr_shortest_path(graph: QueryGraph, source: NodeId, target: NodeId) -> Path:
    """Point-to-point shortest path over a client's :class:`QueryGraph`.

    Early-terminating Dijkstra over the graph's columns: dense ids break
    heap ties and edges relax in payload-then-passage order, so the path is
    the one a search over the same graph compiled to a :class:`CsrGraph`
    returns.  Raises :class:`~repro.exceptions.NoPathError` when the target
    is unreachable and :class:`~repro.exceptions.GraphError` on unknown ids.
    """
    dense_source = graph.dense_id(source)
    dense_target = graph.dense_id(target)
    if source == target:
        return Path((source,), 0.0)
    offsets, neighbours, weights = graph.offsets, graph.neighbours, graph.weights
    resolve = graph.payload_index.get
    extra = graph.extra
    n = len(graph.node_ids)
    dist = [_INF] * n
    parent = [-1] * n
    dist[dense_source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, dense_source)]
    push, pop = heapq.heappush, heapq.heappop

    while heap:
        d, u = pop(heap)
        if d > dist[u]:  # stale heap entry; u already settled cheaper
            continue
        if u == dense_target:
            break
        for k in range(offsets[u], offsets[u + 1]):
            v = resolve(neighbours[k])
            if v is not None:
                nd = d + weights[k]
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    push(heap, (nd, v))
        if extra and u in extra:
            for v, w in extra[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    push(heap, (nd, v))

    if dist[dense_target] == _INF:
        raise NoPathError(source, target)
    node_ids = graph.node_ids
    dense_nodes = [dense_target]
    current = dense_target
    while current != dense_source:
        current = parent[current]
        dense_nodes.append(current)
    dense_nodes.reverse()
    return Path(tuple(node_ids[dense] for dense in dense_nodes), dist[dense_target])


#: Lazily imported (numpy, csr_matrix, csgraph.dijkstra), or None when SciPy
#: is unavailable.  The import is deferred so that environments without the
#: scientific stack never pay for (or fail on) it.
_SCIPY_MODULES = None
_SCIPY_CHECKED = False


def _scipy_modules():
    global _SCIPY_MODULES, _SCIPY_CHECKED
    if not _SCIPY_CHECKED:
        _SCIPY_CHECKED = True
        try:
            import numpy
            from scipy.sparse import csr_matrix
            from scipy.sparse.csgraph import dijkstra
        except ImportError:  # pragma: no cover - exercised without scipy
            _SCIPY_MODULES = None
        else:
            _SCIPY_MODULES = (numpy, csr_matrix, dijkstra)
    return _SCIPY_MODULES


def scipy_dijkstra_arrays(csr: CsrGraph, source: int):
    """Full single-source Dijkstra through SciPy's C implementation.

    Returns ``(dist, predecessors)`` numpy arrays (``inf`` distance for
    unreachable nodes, negative predecessor sentinel for the source and
    unreachable nodes), or ``None`` when SciPy is unavailable.
    """
    matrix = csr.scipy_csgraph()
    if matrix is None:
        return None
    _, _, dijkstra = _scipy_modules()
    dist, predecessors = dijkstra(
        matrix, directed=True, indices=source, return_predecessors=True
    )
    return dist, predecessors


def csr_for(network: RoadNetwork) -> CsrGraph:
    """The compiled CSR form of ``network``, cached on the network object.

    ``RoadNetwork`` is append-only (nodes and edges can be added but never
    removed or re-weighted), so ``(num_nodes, num_edges)`` is a sufficient
    validity key for the cache.
    """
    key = (network.num_nodes, network.num_edges)
    cached = getattr(network, "_csr_cache", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    csr = CsrGraph.from_network(network)
    network._csr_cache = (key, csr)
    return csr


# ---------------------------------------------------------------------- #
# dense-id search cores
# ---------------------------------------------------------------------- #
def dijkstra_arrays(
    csr: CsrGraph,
    source: int,
    target_set: Optional[Set[int]] = None,
    stats: Optional[SearchStats] = None,
) -> Tuple[List[float], List[int], List[int]]:
    """Dijkstra from dense id ``source``.

    Returns ``(dist, parent, touched)`` where ``dist``/``parent`` are dense
    lists (``inf``/``-1`` for unreached nodes) and ``touched`` lists every
    dense id that received a finite distance, source first.  When
    ``target_set`` is given the search stops once every member is settled
    (an *empty* set stops after the first settle, matching the reference
    implementation).
    """
    adjacency = csr.adjacency()
    n = len(adjacency)
    dist = [_INF] * n
    parent = [-1] * n
    dist[source] = 0.0
    touched = [source]
    heap: List[Tuple[float, int]] = [(0.0, source)]
    push, pop = heapq.heappush, heapq.heappop
    remaining = set(target_set) if target_set is not None else None
    track = stats is not None
    node_ids = csr.node_ids

    while heap:
        d, u = pop(heap)
        if d > dist[u]:  # stale heap entry; u already settled cheaper
            continue
        if track:
            stats.settled_nodes += 1
            stats.visited_nodes.append(node_ids[u])
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for w, v in adjacency[u]:
            nd = d + w
            if nd < dist[v]:
                if parent[v] < 0 and v != source:
                    touched.append(v)
                dist[v] = nd
                parent[v] = u
                push(heap, (nd, v))
                if track:
                    stats.relaxed_edges += 1
    return dist, parent, touched


def astar_arrays(
    csr: CsrGraph,
    source: int,
    target: int,
    heuristic: Optional[Callable[[int], float]] = None,
    stats: Optional[SearchStats] = None,
    on_settle: Optional[Callable[[NodeId], None]] = None,
) -> Optional[Tuple[float, List[int]]]:
    """A* between dense ids; ``heuristic`` maps a *dense* id to a lower bound.

    ``None`` selects the built-in Euclidean lower bound computed from the
    compiled coordinate arrays.  ``on_settle`` receives *original* node ids,
    in settle order, exactly like the reference implementation.  Returns
    ``(cost, dense_node_sequence)`` or ``None`` when no path exists.
    """
    adjacency = csr.adjacency()
    n = len(adjacency)
    if heuristic is None:
        xs, ys = csr.xs, csr.ys
        tx, ty = xs[target], ys[target]
        hypot = math.hypot

        def heuristic(v: int) -> float:
            return hypot(xs[v] - tx, ys[v] - ty)

    g_score = [_INF] * n
    parent = [-1] * n
    settled = bytearray(n)
    g_score[source] = 0.0
    heap: List[Tuple[float, int]] = [(heuristic(source), source)]
    push, pop = heapq.heappush, heapq.heappop
    track = stats is not None
    node_ids = csr.node_ids

    while heap:
        _, u = pop(heap)
        if settled[u]:
            continue
        settled[u] = 1
        if track:
            stats.settled_nodes += 1
            stats.visited_nodes.append(node_ids[u])
        if on_settle is not None:
            on_settle(node_ids[u])
        if u == target:
            nodes = [u]
            while parent[u] >= 0:
                u = parent[u]
                nodes.append(u)
            nodes.reverse()
            return g_score[target], nodes
        gu = g_score[u]
        for w, v in adjacency[u]:
            if settled[v]:
                continue
            ng = gu + w
            if ng < g_score[v]:
                g_score[v] = ng
                parent[v] = u
                push(heap, (ng + heuristic(v), v))
                if track:
                    stats.relaxed_edges += 1
    return None
