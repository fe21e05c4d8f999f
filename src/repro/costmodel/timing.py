"""Response-time decomposition.

The paper reports, per query, (i) the PIR time for fetching pages through the
secure co-processor, (ii) the communication time over the 3G link, and (iii)
the client-side computation time (Table 3).  This module converts access
traces into those three components using the :class:`~repro.costmodel.spec.SystemSpec`.

The PIR page-retrieval time follows the hardware-aided protocol of Williams &
Sion [36]: amortized ``O(log² N)`` page operations per retrieval (reads,
writes, encryptions and decryptions during pyramid reshuffling) plus a
logarithmic number of disk seeks.  The constants are calibrated so that
retrieving a page from a 1 GByte file costs on the order of one second, as
reported in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from .spec import DEFAULT_SPEC, SystemSpec


def pir_page_retrieval_time(num_pages_in_file: int, spec: SystemSpec = DEFAULT_SPEC) -> float:
    """Amortized time (seconds) to obliviously retrieve one page from a file.

    ``num_pages_in_file`` is the total number of pages N in the accessed file;
    the cost grows with ``log²(N)`` as in [36].
    """
    if num_pages_in_file <= 0:
        raise ValueError("a PIR-accessible file must contain at least one page")
    levels = max(1.0, math.log2(num_pages_in_file))
    page = spec.page_size
    # One logical page operation moves the page through the disk, the SCP I/O
    # path, and the SCP crypto engine (once in each direction).
    page_op_s = page * (
        2.0 / spec.disk_rate_bps
        + 2.0 / spec.scp_io_rate_bps
        + 2.0 / spec.scp_crypto_rate_bps
    )
    compute_s = spec.oram_overhead_factor * (levels ** 2) * page_op_s
    seek_s = levels * spec.disk_seek_s
    return compute_s + seek_s


def communication_time(bytes_transferred: int, rounds: int, spec: SystemSpec = DEFAULT_SPEC) -> float:
    """Time to ship ``bytes_transferred`` to the client over ``rounds`` exchanges."""
    if bytes_transferred < 0 or rounds < 0:
        raise ValueError("bytes and rounds must be non-negative")
    return rounds * spec.round_trip_s + bytes_transferred / spec.bandwidth_bps


@dataclass
class ResponseTime:
    """The response-time decomposition reported in Table 3."""

    pir_s: float = 0.0
    communication_s: float = 0.0
    client_s: float = 0.0
    server_s: float = 0.0  # only non-zero for the plaintext OBF baseline

    @property
    def total_s(self) -> float:
        return self.pir_s + self.communication_s + self.client_s + self.server_s

    def __add__(self, other: "ResponseTime") -> "ResponseTime":
        return ResponseTime(
            self.pir_s + other.pir_s,
            self.communication_s + other.communication_s,
            self.client_s + other.client_s,
            self.server_s + other.server_s,
        )

    def scaled(self, factor: float) -> "ResponseTime":
        return ResponseTime(
            self.pir_s * factor,
            self.communication_s * factor,
            self.client_s * factor,
            self.server_s * factor,
        )


@dataclass
class CostModel:
    """Accumulates the response time of one query from its observable events."""

    spec: SystemSpec = field(default_factory=lambda: DEFAULT_SPEC)

    def header_download(self, header_bytes: int) -> ResponseTime:
        """Round 1: the header is downloaded in full, without the PIR interface."""
        return ResponseTime(
            pir_s=0.0,
            communication_s=communication_time(header_bytes, rounds=1, spec=self.spec),
        )

    def pir_round(self, pages_per_file: Dict[str, int], file_sizes: Dict[str, int]) -> ResponseTime:
        """One processing round that fetches pages from PIR-accessible files.

        ``pages_per_file`` maps file name → number of pages retrieved this
        round; ``file_sizes`` maps file name → total number of pages in that
        file (which determines the per-page PIR cost).
        """
        pir_s = 0.0
        transferred = 0
        for file_name, count in pages_per_file.items():
            if count < 0:
                raise ValueError("page counts must be non-negative")
            per_page = pir_page_retrieval_time(file_sizes[file_name], self.spec)
            pir_s += count * per_page
            transferred += count * self.spec.page_size
        comm_s = communication_time(transferred, rounds=1, spec=self.spec)
        return ResponseTime(pir_s=pir_s, communication_s=comm_s)

    def plaintext_server_work(self, settled_nodes: int) -> ResponseTime:
        """Server CPU time for plaintext processing (OBF baseline only)."""
        return ResponseTime(server_s=settled_nodes * self.spec.server_dijkstra_s_per_node)

    def plaintext_transfer(self, payload_bytes: int, rounds: int = 1) -> ResponseTime:
        """Plain data transfer to the client (OBF result paths, for instance)."""
        return ResponseTime(
            communication_s=communication_time(payload_bytes, rounds, spec=self.spec)
        )
