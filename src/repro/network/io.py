"""Plain-text serialization of road networks.

The format is the node/edge file convention of the Brinkhoff generator
datasets: ``v <node_id> <x> <y>`` / ``e <source> <target> <weight>`` lines and
``#`` comments, via :func:`write_network`/:func:`read_network`.  Both work with
paths or open file objects.
"""

from __future__ import annotations

from pathlib import Path as FilePath
from typing import TextIO, Union

from ..exceptions import GraphError
from .graph import RoadNetwork

PathLike = Union[str, FilePath]


def write_network(network: RoadNetwork, destination: Union[PathLike, TextIO]) -> None:
    """Write ``network`` to ``destination`` in the node/edge text format."""
    if hasattr(destination, "write"):
        _write_stream(network, destination)  # type: ignore[arg-type]
        return
    with open(destination, "w", encoding="utf-8") as stream:
        _write_stream(network, stream)


def read_network(source: Union[PathLike, TextIO]) -> RoadNetwork:
    """Read a network previously written by :func:`write_network`."""
    if hasattr(source, "read"):
        return _read_stream(source)  # type: ignore[arg-type]
    with open(source, "r", encoding="utf-8") as stream:
        return _read_stream(stream)


def _write_stream(network: RoadNetwork, stream: TextIO) -> None:
    stream.write(f"# road network: {network.num_nodes} nodes, {network.num_edges} edges\n")
    for node in sorted(network.nodes(), key=lambda n: n.node_id):
        stream.write(f"v {node.node_id} {node.x!r} {node.y!r}\n")
    for node in sorted(network.nodes(), key=lambda n: n.node_id):
        for neighbor, weight in network.neighbors(node.node_id):
            stream.write(f"e {node.node_id} {neighbor} {weight!r}\n")


def _read_stream(stream: TextIO) -> RoadNetwork:
    network = RoadNetwork()
    pending_edges = []
    for line_number, raw_line in enumerate(stream, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "v":
            if len(parts) != 4:
                raise GraphError(f"line {line_number}: malformed node line {line!r}")
            network.add_node(int(parts[1]), float(parts[2]), float(parts[3]))
        elif kind == "e":
            if len(parts) != 4:
                raise GraphError(f"line {line_number}: malformed edge line {line!r}")
            pending_edges.append((int(parts[1]), int(parts[2]), float(parts[3])))
        else:
            raise GraphError(f"line {line_number}: unknown record type {kind!r}")
    for source, target, weight in pending_edges:
        network.add_edge(source, target, weight)
    return network
