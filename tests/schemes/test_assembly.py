"""Tests for client-side assembly (:mod:`repro.schemes.assembly`): fetched
region columns searched in place, the merge rules they must share with the
dict-merge oracle (``tests/oracles/region_rows_reference.py``), and the
passage-node placeholder-coordinate regression (A* heuristic safety).
"""

import struct

import pytest

from region_rows_reference import (
    reference_passage_graph,
    reference_region_graph,
    subgraph_from_entry,
)
from repro.engine import LruCache
from repro.exceptions import GraphError, NoPathError, SchemeError
from repro.network import (
    RoadNetwork,
    astar_search,
    csr_shortest_path,
    euclidean_heuristic,
    random_planar_network,
    reference_astar_search,
    shortest_path,
)
from repro.partition import encode_region_payload
from repro.schemes import assembly
from repro.schemes.files import decode_cache_scope
from repro.schemes.index_entries import IndexEntry
from repro.storage import encode_varint


def _group(rows):
    """One fetched region (a one-page group) holding ``{node: (x, y, adjacency)}``."""
    ids = list(rows)
    xy = [c for x, y, _ in rows.values() for c in (x, y)]
    degrees = b"".join(encode_varint(len(adjacency)) for _, _, adjacency in rows.values())
    edges = [edge for _, _, adjacency in rows.values() for edge in adjacency]
    n, m = len(ids), len(edges)
    payload = b"".join(
        (
            encode_varint(n),
            struct.pack(f"<{n}I{2 * n}f", *ids, *xy),
            degrees,
            struct.pack(f"<{m}I{m}f", *(v for v, _ in edges), *(w for _, w in edges)),
        )
    )
    return [payload]


def _coordinates(graph, node):
    """A node's coordinates; placeholders (past the payload columns) sit at (0, 0)."""
    dense, xy = graph.dense_id(node), graph.xy
    return (xy[2 * dense], xy[2 * dense + 1]) if 2 * dense < len(xy) else (0.0, 0.0)


def _out_edges(graph, node):
    """``(target, weight)`` in the order the search relaxes them: payload
    edges into the fetched payloads, then passage edges."""
    u = graph.dense_id(node)
    payload = [
        (graph.neighbours[k], graph.weights[k])
        for k in range(graph.offsets[u], graph.offsets[u + 1])
        if graph.neighbours[k] in graph.payload_index
    ]
    return payload + [(graph.node_ids[v], w) for v, w in graph.extra.get(u, ())]


def _layout(graph):
    """Every node's id, coordinates and out-edges in dense (search) order."""
    return [
        (node, _coordinates(graph, node), _out_edges(graph, node)) for node in graph.node_ids
    ]


def _reference_layout(network):
    return [
        (node.node_id, (node.x, node.y), list(network.neighbors(node.node_id)))
        for node in network.nodes()
    ]


def _edge_entry(*edges):
    return IndexEntry((0, 1), None, frozenset(edges))


class TestAssemblySemantics:
    """The merge rules of assembled graphs equal the dict-merge oracle's."""

    def test_single_payload_matches_reference_merge(self):
        groups = [
            _group(
                {
                    1: (0.0, 0.0, [(2, 1.0), (3, 2.5)]),
                    2: (1.0, 0.0, [(1, 1.0)]),
                    3: (0.0, 1.0, [(1, 2.5), (9, 4.0)]),  # 9 is outside: dropped
                }
            )
        ]
        graph = assembly.assemble_region_csr(groups)
        assert _layout(graph) == _reference_layout(reference_region_graph(groups))
        assert _out_edges(graph, 3) == [(1, 2.5)]
        assert graph.heuristic_safe

    def test_overlapping_payloads_last_wins_first_position(self):
        groups = [
            _group({1: (0.0, 0.0, [(2, 1.0)]), 2: (1.0, 0.0, [])}),
            _group({2: (1.5, 0.5, [(1, 3.0)]), 3: (2.0, 0.0, [(2, 1.5)])}),
        ]
        graph = assembly.assemble_region_csr(groups)
        assert list(graph.node_ids) == [1, 2, 3]
        assert _coordinates(graph, 2) == (1.5, 0.5)
        assert _out_edges(graph, 2) == [(1, 3.0)]
        assert _layout(graph) == _reference_layout(reference_region_graph(groups))
        assert csr_shortest_path(graph, 3, 1).cost == pytest.approx(4.5)

    def test_passage_edges_are_appended_and_deduplicated(self):
        groups = [_group({1: (0.0, 0.0, [(2, 1.0)]), 2: (1.0, 0.0, [])})]
        # (1, 2) duplicates a payload edge and is skipped; of the two (2, 1)
        # edges the first in sorted order is kept
        entry = _edge_entry((1, 2, 9.0), (2, 1, 4.0), (2, 1, 5.0))
        graph = assembly.assemble_passage_csr(groups, [], (0, 1), entry=entry)
        assert graph.heuristic_safe  # no placeholder nodes were added
        assert [_out_edges(graph, node) for node in (1, 2)] == [[(2, 1.0)], [(1, 4.0)]]
        reference = reference_passage_graph(groups, [], (0, 1), entry=entry)
        assert _layout(graph) == _reference_layout(reference)

    def test_passage_edges_follow_payload_edges(self):
        groups = [_group({1: (0.0, 0.0, [(2, 1.0)]), 2: (1.0, 0.0, []), 3: (2.0, 0.0, [])})]
        entry = _edge_entry((1, 3, 0.5))
        graph = assembly.assemble_passage_csr(groups, [], (0, 1), entry=entry)
        assert _out_edges(graph, 1) == [(2, 1.0), (3, 0.5)]

    def test_placeholder_nodes_mark_graph_heuristic_unsafe(self):
        groups = [_group({1: (5.0, 5.0, []), 2: (6.0, 5.0, [])})]
        entry = _edge_entry((1, 77, 1.0), (77, 2, 1.0))
        graph = assembly.assemble_passage_csr(groups, [], (0, 1), entry=entry)
        assert not graph.heuristic_safe
        assert 77 in graph
        assert _coordinates(graph, 77) == (0.0, 0.0)
        # added after every payload node, in encounter order
        assert list(graph.node_ids) == [1, 2, 77]
        assert csr_shortest_path(graph, 1, 2).nodes == (1, 77, 2)

    def test_payload_edge_to_passage_only_node_stays_dropped(self):
        # a payload edge pointing at a node that only the passage entry
        # carries is dropped, exactly like the reference merge (which filters
        # before the entry nodes exist)
        groups = [_group({1: (0.0, 0.0, [(7, 2.0)]), 2: (1.0, 0.0, [])})]
        entry = _edge_entry((2, 7, 1.0))
        graph = assembly.assemble_passage_csr(groups, [], (0, 1), entry=entry)
        assert _out_edges(graph, 1) == []
        with pytest.raises(NoPathError):
            csr_shortest_path(graph, 1, 7)
        reference = reference_passage_graph(groups, [], (0, 1), entry=entry)
        assert _layout(graph) == _reference_layout(reference)

    def test_randomized_equivalence_with_reference_merge(self, rng):
        # split a random network into chunky regions and compare searches
        network = random_planar_network(120, seed=21)
        node_ids = list(network.node_ids())
        groups = [
            [encode_region_payload(network, node_ids[start : start + 40])]
            for start in range(0, len(node_ids), 40)
        ]
        # drop one region so cross-region filtering actually triggers
        kept = groups[:-1]
        reference = reference_region_graph(kept)
        graph = assembly.assemble_region_csr(kept)
        assert _layout(graph) == _reference_layout(reference)
        kept_ids = node_ids[:80]
        for _ in range(25):
            source, target = rng.choice(kept_ids), rng.choice(kept_ids)
            try:
                expected = shortest_path(reference, source, target)
            except NoPathError:
                with pytest.raises(NoPathError):
                    csr_shortest_path(graph, source, target)
                continue
            actual = csr_shortest_path(graph, source, target)
            assert actual.nodes == expected.nodes
            assert actual.cost == pytest.approx(expected.cost, rel=1e-12)


class TestCsrShortestPath:
    def test_small_graph(self):
        groups = [
            _group(
                {
                    1: (0.0, 0.0, [(2, 1.0), (3, 5.0)]),
                    2: (0.5, 0.0, [(3, 1.0)]),
                    3: (1.0, 0.0, []),
                }
            )
        ]
        path = csr_shortest_path(assembly.assemble_region_csr(groups), 1, 3)
        assert path.nodes == (1, 2, 3)
        assert path.cost == pytest.approx(2.0)

    def test_source_equals_target(self):
        graph = assembly.assemble_region_csr([_group({1: (0.0, 0.0, [])})])
        path = csr_shortest_path(graph, 1, 1)
        assert path.nodes == (1,)
        assert path.cost == 0.0
        with pytest.raises(GraphError):
            csr_shortest_path(graph, 99, 99)

    def test_unknown_and_unreachable_ids(self):
        graph = assembly.assemble_region_csr(
            [_group({1: (0.0, 0.0, []), 2: (1.0, 0.0, [])})]
        )
        with pytest.raises(GraphError):
            csr_shortest_path(graph, 1, 99)
        with pytest.raises(GraphError):
            csr_shortest_path(graph, 99, 1)
        with pytest.raises(NoPathError):
            csr_shortest_path(graph, 1, 2)


def _expensive_detour_network():
    """Payload nodes on an expensive road; a passage node offers a shortcut.

    The passage node's position is unknown to the client (it lives in no
    fetched region), so the merged graph places it at ``(0, 0)`` — far from
    the real geometry around ``(100, 100)``.
    """
    network = RoadNetwork()
    network.add_node(1, 100.0, 100.0)
    network.add_node(2, 101.0, 100.0)
    network.add_node(3, 102.0, 100.0)
    network.add_edge(1, 2, 10.0)
    network.add_edge(2, 3, 10.0)
    payload = {
        node.node_id: (node.x, node.y, list(network.neighbors(node.node_id)))
        for node in network.nodes()
    }
    entry = IndexEntry((0, 1), None, frozenset({(1, 4, 1.0), (4, 3, 1.0)}))
    return payload, entry


class TestPassageNodePlaceholderRegression:
    def test_merged_graph_is_flagged_heuristic_unsafe(self):
        payload, entry = _expensive_detour_network()
        graph = subgraph_from_entry(entry, [payload])
        assert graph.heuristic_safe is False
        assembled = assembly.assemble_passage_csr([_group(payload)], [], (0, 1), entry=entry)
        assert assembled.heuristic_safe is False
        assert csr_shortest_path(assembled, 1, 3).cost == pytest.approx(2.0)

    def test_astar_returns_true_shortest_cost_despite_placeholders(self):
        payload, entry = _expensive_detour_network()
        graph = subgraph_from_entry(entry, [payload])
        truth = shortest_path(graph, 1, 3)
        assert truth.cost == pytest.approx(2.0)  # via the passage node
        assert astar_search(graph, 1, 3).cost == pytest.approx(truth.cost)
        assert reference_astar_search(graph, 1, 3).cost == pytest.approx(truth.cost)

    def test_euclidean_heuristic_on_placeholders_is_inadmissible(self):
        # documents the bug this guards against: forcing the Euclidean bound
        # on the placeholder-coordinate graph skips the passage shortcut
        payload, entry = _expensive_detour_network()
        graph = subgraph_from_entry(entry, [payload])
        suboptimal = astar_search(graph, 1, 3, heuristic=euclidean_heuristic(graph, 3))
        assert suboptimal.cost == pytest.approx(20.0)

    def test_graphs_without_placeholders_keep_euclidean_astar(self):
        payload, _ = _expensive_detour_network()
        entry = IndexEntry((0, 1), None, frozenset({(3, 1, 1.0)}))  # known nodes only
        graph = subgraph_from_entry(entry, [payload])
        assert graph.heuristic_safe is True
        assert astar_search(graph, 1, 3).cost == pytest.approx(20.0)
        assembled = assembly.assemble_passage_csr([_group(payload)], [], (0, 1), entry=entry)
        assert assembled.heuristic_safe is True


def _region_payload_bytes():
    network = RoadNetwork()
    for node_id, (x, y) in enumerate([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]):
        network.add_node(node_id, x, y)
    network.add_undirected_edge(0, 1, 1.0)
    network.add_undirected_edge(1, 2, 1.0)
    network.add_undirected_edge(2, 3, 1.0)
    group_a = encode_region_payload(network, [0, 1])
    group_b = encode_region_payload(network, [2, 3])
    return network, [[group_a], [group_b]]


class TestAssembleCsr:
    def test_region_assembly_matches_reference_graph(self):
        _, payload_groups = _region_payload_bytes()
        graph = assembly.assemble_region_csr(payload_groups)
        reference = reference_region_graph(payload_groups)
        for source, target in [(0, 3), (3, 0), (1, 2)]:
            expected = shortest_path(reference, source, target)
            actual = csr_shortest_path(graph, source, target)
            assert actual.nodes == expected.nodes
            assert actual.cost == pytest.approx(expected.cost)

    def test_passage_assembly_appends_entry_edges(self):
        _, payload_groups = _region_payload_bytes()
        entry = IndexEntry((0, 1), None, frozenset({(0, 3, 0.5)}))
        graph = assembly.assemble_passage_csr(payload_groups, [], (0, 1), entry=entry)
        assert csr_shortest_path(graph, 0, 3).cost == pytest.approx(0.5)
        reference = reference_passage_graph(payload_groups, [], (0, 1), entry=entry)
        assert shortest_path(reference, 0, 3).cost == pytest.approx(0.5)

    def test_missing_entry_raises_scheme_error(self):
        _, payload_groups = _region_payload_bytes()
        with pytest.raises(SchemeError, match="missing passage-subgraph entry"):
            assembly.assemble_passage_csr(payload_groups, [], (4, 5))

    def test_regions_decode_once_per_cache(self):
        # assembly is a concatenation: only the decoded regions are cached
        _, payload_groups = _region_payload_bytes()
        cache = LruCache(16)
        with decode_cache_scope(cache):
            first = assembly.assemble_region_csr(payload_groups)
            second = assembly.assemble_region_csr(payload_groups)
        assert (cache.misses, cache.hits) == (2, 2)
        assert first is not second
        assert _layout(first) == _layout(second)

    def test_each_entry_gets_its_own_graph(self):
        _, payload_groups = _region_payload_bytes()
        entry_a = IndexEntry((0, 1), None, frozenset({(0, 3, 0.5)}))
        entry_b = IndexEntry((0, 2), None, frozenset({(3, 0, 0.25)}))
        cache = LruCache(16)
        with decode_cache_scope(cache):
            graph_a = assembly.assemble_passage_csr(payload_groups, [], (0, 1), entry=entry_a)
            graph_b = assembly.assemble_passage_csr(payload_groups, [], (0, 2), entry=entry_b)
        assert csr_shortest_path(graph_a, 0, 3).cost == pytest.approx(0.5)
        assert csr_shortest_path(graph_b, 3, 0).cost == pytest.approx(0.25)
        assert csr_shortest_path(graph_a, 3, 0).cost == pytest.approx(3.0)
