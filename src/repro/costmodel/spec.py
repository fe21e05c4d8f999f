"""System specification (Table 2 of the paper).

The paper simulates the IBM 4764 PCI-X cryptographic co-processor and a
commodity hard disk; all response-time figures are derived from the constants
below.  This module reproduces those constants and exposes them as a frozen
dataclass so experiments can tweak individual knobs (e.g. a faster link) while
keeping the defaults faithful to the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SystemSpec:
    """Hardware and network constants used by the cost model.

    Default values are Table 2 plus the SCP characteristics stated in
    Section 3.2 (32 MByte SCP RAM, 2.5 GByte maximum file size, memory factor
    ``c = 10`` for the Williams & Sion protocol).
    """

    #: Disk page size in bytes.
    page_size: int = 4096
    #: Disk seek time in seconds (11 ms).
    disk_seek_s: float = 0.011
    #: Disk sequential read/write rate in bytes per second (125 MByte/s).
    disk_rate_bps: float = 125 * 1024 * 1024
    #: SCP read/write rate in bytes per second (80 MByte/s).
    scp_io_rate_bps: float = 80 * 1024 * 1024
    #: SCP encryption/decryption rate in bytes per second (10 MByte/s).
    scp_crypto_rate_bps: float = 10 * 1024 * 1024
    #: Client-LBS communication bandwidth in bytes per second (48 KByte/s, 3G).
    bandwidth_bps: float = 48 * 1024
    #: Communication round-trip time in seconds (700 ms).
    round_trip_s: float = 0.7
    #: SCP memory in bytes (32 MByte on the IBM 4764).
    scp_memory_bytes: int = 32 * 1024 * 1024
    #: Memory requirement factor of the PIR protocol: it needs ``c · sqrt(N)`` memory.
    scp_memory_factor: float = 10.0
    #: Maximum file size supported by the PIR interface (2.5 GByte).
    max_file_bytes: int = int(2.5 * 1024 * 1024 * 1024)
    #: Calibration factor accounting for the ORAM reshuffling overhead of [36].
    oram_overhead_factor: float = 2.0
    #: Estimated server CPU time per settled node for plain (unsecured) Dijkstra,
    #: used only by the OBF baseline whose server operates on plaintext data.
    server_dijkstra_s_per_node: float = 2.0e-6

    def with_overrides(self, **kwargs) -> "SystemSpec":
        """A copy of the spec with selected fields replaced."""
        return replace(self, **kwargs)

#: The default specification used throughout the evaluation (Table 2).
DEFAULT_SPEC = SystemSpec()
