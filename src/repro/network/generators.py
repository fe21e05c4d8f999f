"""Synthetic road-network generators.

The paper evaluates on six real road networks (Table 1) obtained from the
Brinkhoff generator and the Digital Chart of the World.  Those datasets are
not redistributable here, so this module produces synthetic stand-ins with the
same structural characteristics that the schemes depend on:

* planar-like topology with strong spatial locality,
* sparsity ``|E| ≈ 1.0–1.2 · |V|`` (directed-edge counts as in Table 1),
* Euclidean node coordinates consistent with edge weights (edge weight is the
  Euclidean length scaled by a detour factor ``≥ 1``), so Euclidean/landmark
  heuristics remain admissible.

Two generators are provided: a Delaunay-based random planar network (the
default for the dataset registry in :mod:`repro.bench.datasets`) and a
streaming perturbed grid for out-of-core builds.

numpy and scipy are optional: with numpy installed the generators draw from
``numpy.random.default_rng`` exactly as before (byte-identical networks for a
given seed), and with scipy installed candidate edges come from the true
Delaunay triangulation.  Without them a pure-Python RNG stands in and
candidate edges come from a bucketed k-nearest-neighbor graph
(:func:`_knn_candidate_edges`) patched to connectivity — structurally
equivalent (planar-like, local, sparse), not bit-identical.
"""

from __future__ import annotations

import math
import random as _random
from typing import Iterator, List, Sequence, Tuple

try:  # numpy is optional; the pure-Python RNG below stands in without it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

from ..exceptions import GraphError
from .graph import RoadNetwork


class _PurePythonRng:
    """Just enough of the ``numpy.random.Generator`` surface for this module."""

    def __init__(self, seed: int) -> None:
        self._rng = _random.Random(seed)

    def uniform(self, low: float, high: float, size=None):
        if size is None:
            return self._rng.uniform(low, high)
        if isinstance(size, tuple):
            count, width = size
            return [
                tuple(self._rng.uniform(low, high) for _ in range(width))
                for _ in range(count)
            ]
        return [self._rng.uniform(low, high) for _ in range(size)]

    def shuffle(self, items) -> None:
        self._rng.shuffle(items)

    def integers(self, low: int, high: int) -> int:
        return self._rng.randrange(low, high)


def _default_rng(seed: int):
    """The numpy generator when numpy is present (identical output to the
    historical hard dependency), a pure-Python stand-in otherwise."""
    if _np is not None:
        return _np.random.default_rng(seed)
    return _PurePythonRng(seed)

#: One streaming node record: ``(node_id, x, y, [(neighbor, weight), ...])``.
NodeRecord = Tuple[int, float, float, List[Tuple[int, float]]]


class _UnionFind:
    """Minimal union-find used to build spanning trees."""

    def __init__(self, size: int) -> None:
        self._parent = list(range(size))

    def find(self, item: int) -> int:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: int, b: int) -> bool:
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return False
        self._parent[root_b] = root_a
        return True


def random_planar_network(
    num_nodes: int,
    edge_factor: float = 1.15,
    extent: float = 100.0,
    detour_max: float = 1.3,
    seed: int = 0,
) -> RoadNetwork:
    """A random planar-like road network.

    Nodes are uniform random points in ``[0, extent]²``.  Candidate edges come
    from the Delaunay triangulation of the points (guaranteeing planarity and
    locality); a random spanning tree subset ensures connectivity, and the
    shortest remaining candidates are added until the number of *undirected*
    edges reaches ``edge_factor · num_nodes`` (matching the sparsity of the
    paper's datasets).  Each undirected edge is stored as two directed edges.

    Edge weights are the Euclidean length multiplied by a per-edge detour
    factor drawn uniformly from ``[1, detour_max]``.
    """
    if num_nodes < 3:
        raise GraphError("random planar network needs at least 3 nodes")
    if edge_factor < 1.0:
        raise GraphError("edge_factor below 1.0 cannot keep the network connected")
    rng = _default_rng(seed)
    points = rng.uniform(0.0, extent, size=(num_nodes, 2))

    candidates = _delaunay_edges(points)
    lengths = {
        (a, b): math.hypot(points[a][0] - points[b][0], points[a][1] - points[b][1])
        for a, b in candidates
    }

    # spanning tree over the candidate edges (random order ⇒ random tree)
    order = list(candidates)
    rng.shuffle(order)
    union_find = _UnionFind(num_nodes)
    chosen: List[Tuple[int, int]] = []
    for a, b in order:
        if union_find.union(a, b):
            chosen.append((a, b))
    if len(chosen) != num_nodes - 1:
        raise GraphError("Delaunay candidate edges did not span all nodes")

    target_edges = int(round(edge_factor * num_nodes))
    chosen_set = set(chosen)
    extras = sorted(
        (edge for edge in candidates if edge not in chosen_set),
        key=lambda edge: lengths[edge],
    )
    for edge in extras:
        if len(chosen) >= target_edges:
            break
        chosen.append(edge)

    network = RoadNetwork()
    for node_id in range(num_nodes):
        network.add_node(node_id, float(points[node_id][0]), float(points[node_id][1]))
    for a, b in chosen:
        detour = rng.uniform(1.0, detour_max)
        weight = max(lengths[(a, b)] * detour, 1e-9)
        network.add_undirected_edge(a, b, weight)
    return network


def _mix64(value: int) -> int:
    """SplitMix64 finalizer: a deterministic 64-bit integer mix."""
    value = value & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def _unit_hash(seed: int, node_id: int, salt: int) -> float:
    """Deterministic pseudo-random float in ``[-1, 1)`` from ``(seed, node, salt)``.

    Unlike a sequential RNG, the value only depends on its arguments, so any
    node's jitter is computable in O(1) — the property that lets the streaming
    generators derive a neighbor's coordinates without materializing it.
    """
    mixed = _mix64(seed * 0x9E3779B97F4A7C15 + node_id * 0xD1342543DE82EF95 + salt)
    return (mixed >> 11) / float(1 << 52) - 1.0


def _grid_point(
    row: int, col: int, cols: int, spacing: float, jitter: float, seed: int
) -> Tuple[float, float]:
    node_id = row * cols + col
    x = col * spacing + _unit_hash(seed, node_id, 0) * jitter * spacing
    y = row * spacing + _unit_hash(seed, node_id, 1) * jitter * spacing
    return x, y


def stream_grid_network(
    rows: int,
    cols: int,
    spacing: float = 1.0,
    jitter: float = 0.2,
    seed: int = 0,
) -> Iterator[NodeRecord]:
    """Stream a rows x cols grid as :data:`NodeRecord` tuples, in node-id order.

    Designed to be piped straight into
    :func:`repro.storage.stream_node_database` so networks of 10⁶+ nodes
    land on an out-of-core page store without ever materializing a
    :class:`RoadNetwork`.  Memory use is O(1) per node — coordinates use the
    stateless hash jitter of :func:`_unit_hash`, so each record derives its
    neighbors' positions (and hence symmetric edge weights) locally.

    Every undirected grid edge appears as two directed edges, one in each
    endpoint's record; weights are the Euclidean length of the jittered edge.
    """
    if rows < 1 or cols < 1:
        raise GraphError("grid dimensions must be positive")
    for row in range(rows):
        for col in range(cols):
            node_id = row * cols + col
            x, y = _grid_point(row, col, cols, spacing, jitter, seed)
            neighbors: List[Tuple[int, float]] = []
            for d_row, d_col in ((-1, 0), (0, -1), (0, 1), (1, 0)):
                n_row, n_col = row + d_row, col + d_col
                if not (0 <= n_row < rows and 0 <= n_col < cols):
                    continue
                nx, ny = _grid_point(n_row, n_col, cols, spacing, jitter, seed)
                weight = max(math.hypot(nx - x, ny - y), 1e-9)
                neighbors.append((n_row * cols + n_col, weight))
            yield node_id, x, y, neighbors


def _delaunay_edges(points) -> List[Tuple[int, int]]:
    """Undirected candidate edge list over ``points``.

    With scipy this is the Delaunay triangulation (the historical behaviour,
    bit-for-bit).  Without it, :func:`_knn_candidate_edges` supplies a
    bucketed nearest-neighbor graph with the same structural properties —
    local, sparse, connected — so the planar generator (and with it the
    tier-1 test suite) works on a pure-Python install.
    """
    try:
        from scipy.spatial import Delaunay  # imported lazily; scipy is optional
    except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
        return _knn_candidate_edges(points)

    triangulation = Delaunay(points)
    edges = set()
    for simplex in triangulation.simplices:
        a, b, c = int(simplex[0]), int(simplex[1]), int(simplex[2])
        for u, v in ((a, b), (b, c), (a, c)):
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def _knn_candidate_edges(points, neighbors_per_node: int = 8) -> List[Tuple[int, int]]:
    """Scipy-free candidate edges: bucketed k-nearest neighbors, made connected.

    Points are hashed into a ``sqrt(N) x sqrt(N)`` grid of spatial buckets;
    each point connects to its ``neighbors_per_node`` nearest points found by
    expanding rings of buckets, which keeps the search local (amortized O(k)
    per node) and the resulting graph planar-like.  k-NN graphs can come out
    disconnected, which the spanning-tree stage downstream would reject, so
    isolated components are patched in by repeatedly joining the smallest
    component to its nearest outside point.
    """
    count = len(points)
    xs = [float(point[0]) for point in points]
    ys = [float(point[1]) for point in points]
    side = max(1, int(math.sqrt(count)))
    min_x, min_y = min(xs), min(ys)
    span_x = (max(xs) - min_x) or 1.0
    span_y = (max(ys) - min_y) or 1.0

    def bucket_of(index: int) -> Tuple[int, int]:
        return (
            min(side - 1, int((xs[index] - min_x) / span_x * side)),
            min(side - 1, int((ys[index] - min_y) / span_y * side)),
        )

    buckets: dict = {}
    for index in range(count):
        buckets.setdefault(bucket_of(index), []).append(index)

    edges = set()
    for index in range(count):
        bucket_x, bucket_y = bucket_of(index)
        ring = 1
        while True:
            nearby = [
                other
                for dx in range(-ring, ring + 1)
                for dy in range(-ring, ring + 1)
                for other in buckets.get((bucket_x + dx, bucket_y + dy), [])
                if other != index
            ]
            if len(nearby) >= neighbors_per_node or ring > side:
                break
            ring += 1
        nearby.sort(
            key=lambda other: (xs[index] - xs[other]) ** 2
            + (ys[index] - ys[other]) ** 2
        )
        for other in nearby[:neighbors_per_node]:
            edges.add((min(index, other), max(index, other)))

    # patch k-NN disconnection: join the smallest component to its nearest
    # outside point until one component remains
    union_find = _UnionFind(count)
    for a, b in edges:
        union_find.union(a, b)
    while True:
        components: dict = {}
        for index in range(count):
            components.setdefault(union_find.find(index), []).append(index)
        if len(components) <= 1:
            break
        _, members = min(components.items(), key=lambda item: len(item[1]))
        member_roots = {union_find.find(members[0])}
        best = None
        for inside in members:
            for outside in range(count):
                if union_find.find(outside) in member_roots:
                    continue
                gap = (xs[inside] - xs[outside]) ** 2 + (ys[inside] - ys[outside]) ** 2
                if best is None or gap < best[0]:
                    best = (gap, inside, outside)
        _, inside, outside = best
        edges.add((min(inside, outside), max(inside, outside)))
        union_find.union(inside, outside)
    return sorted(edges)


def _drop_edges_keeping_connectivity(
    undirected: Sequence[Tuple[int, int]],
    num_nodes: int,
    drop_fraction: float,
    rng,
) -> List[Tuple[int, int]]:
    """Remove up to ``drop_fraction`` of the edges without disconnecting the graph."""
    if drop_fraction <= 0:
        return list(undirected)
    if drop_fraction >= 1:
        raise GraphError("cannot drop all edges")
    edges = list(undirected)
    rng.shuffle(edges)
    to_drop = int(len(edges) * drop_fraction)

    # Keep a spanning structure: greedily mark edges as required via union-find,
    # then drop only from the non-required ones.
    union_find = _UnionFind(num_nodes)
    required = set()
    for edge in edges:
        if union_find.union(edge[0], edge[1]):
            required.add(edge)
    droppable = [edge for edge in edges if edge not in required]
    dropped = set(droppable[:to_drop])
    return [edge for edge in edges if edge not in dropped]
