"""Secure co-processor (SCP) and hardware-aided PIR simulator.

The paper employs the protocol of Williams & Sion [36] running on an IBM 4764
cryptographic co-processor installed at the LBS, and *strictly simulates* its
performance (Section 7.1).  This module reproduces that simulation:

* :class:`SecureCoprocessor` models the device: its memory, the ``c·sqrt(N)``
  memory requirement of the protocol, and the resulting maximum supported
  file size (2.5 GByte with 32 MByte of SCP RAM).
* :class:`UsablePirSimulator` is the PIR black box the schemes talk to.  It
  returns the requested page content (the SCP is trusted, so functionally the
  retrieval simply succeeds) while charging the amortized ``O(log² N)``
  retrieval cost and recording what the adversary observes.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..costmodel import DEFAULT_SPEC, SystemSpec, pir_page_retrieval_time
from ..exceptions import FileSizeLimitError, PirError
from ..storage import Database, PageFile
from .access_log import AccessTrace
from .kernels import answer_shares, draw_shares, resolve_kernel, shared_kernel


class SecureCoprocessor:
    """A tamper-resistant secure co-processor installed at the LBS."""

    def __init__(self, spec: SystemSpec = DEFAULT_SPEC) -> None:
        self.spec = spec

    @property
    def memory_bytes(self) -> int:
        return self.spec.scp_memory_bytes

    def memory_required_for(self, num_pages: int) -> float:
        """Memory the PIR protocol of [36] needs to serve a file of ``num_pages`` pages."""
        return self.spec.scp_memory_factor * math.sqrt(num_pages * self.spec.page_size)

    def supports_file(self, page_file: PageFile) -> bool:
        """Whether the SCP can serve PIR requests against ``page_file``."""
        if page_file.size_bytes > self.spec.max_file_bytes:
            return False
        return self.memory_required_for(page_file.num_pages) <= self.memory_bytes

    def check_file(self, page_file: PageFile) -> None:
        """Raise :class:`FileSizeLimitError` when the file cannot be supported."""
        if not self.supports_file(page_file):
            raise FileSizeLimitError(
                page_file.name, page_file.size_bytes, self.spec.max_file_bytes
            )


class UsablePirSimulator:
    """Simulated hardware-aided PIR access to the files of a :class:`Database`.

    Every retrieval:

    * validates the file against the SCP limits,
    * records the adversary-visible event (file touched, not which page) and
      the private page number in the supplied :class:`AccessTrace`,
    * accumulates the simulated PIR time, and
    * returns the page bytes.

    ``xor_kernel`` additionally routes every page read through a real
    two-server XOR retrieval served by a packed server kernel
    (:mod:`repro.pir.kernels`): ``"auto"``/``"numpy"``/``"bigint"`` select
    the kernel, ``None`` (the default) keeps direct page reads — eagerly
    packing every file would defeat the out-of-core storage backends, so XOR
    serving is a per-simulator opt-in.  The page bytes returned, the traces
    and the simulated cost model are identical either way; what changes is
    that the server-side work is *actually performed*, which is what the
    kernel benchmarks measure.  ``log_queries`` records the server-visible
    subsets in ``queries_seen`` as ``(file name, subset)`` — with the same
    ``kernel_seed``, both kernels produce identical logs (property-tested).
    """

    def __init__(
        self,
        database: Database,
        scp: Optional[SecureCoprocessor] = None,
        spec: SystemSpec = DEFAULT_SPEC,
        enforce_limits: bool = True,
        xor_kernel: Optional[str] = None,
        log_queries: bool = False,
        kernel_seed: int = 0,
    ) -> None:
        self.database = database
        self.spec = spec
        self.scp = scp if scp is not None else SecureCoprocessor(spec)
        self.enforce_limits = enforce_limits
        self.xor_kernel: Optional[str] = (
            None if xor_kernel in (None, "off") else resolve_kernel(xor_kernel)
        )
        self.log_queries = log_queries
        self.queries_seen: List[Tuple[str, frozenset]] = []
        self._kernel_rng = random.Random(kernel_seed)
        self._pir_time_s = 0.0

    @property
    def simulated_pir_time_s(self) -> float:
        """Total simulated PIR time accumulated so far."""
        return self._pir_time_s

    def reset_time(self) -> None:
        self._pir_time_s = 0.0

    def file_page_counts(self) -> Dict[str, int]:
        return {name: self.database.file(name).num_pages for name in self.database.file_names()}

    def retrieve_page(
        self, file_name: str, page_number: int, trace: Optional[AccessTrace] = None
    ) -> bytes:
        """Obliviously retrieve one page of ``file_name``."""
        return self.retrieve_pages(file_name, [page_number], trace)[0]

    def retrieve_pages(
        self,
        file_name: str,
        page_numbers: Sequence[int],
        trace: Optional[AccessTrace] = None,
    ) -> List[bytes]:
        """Retrieve a batch of pages — one round's requests against one file.

        Validation, cost accounting and trace recording run per page in
        request order, so traces and simulated times do not depend on how
        pages are batched; the bytes come from :meth:`_read_pages`, which the
        sharded simulators override to serve each shard's sub-batch.
        """
        page_numbers = list(page_numbers)
        page_file = self.database.file(file_name)
        if self.enforce_limits:
            self.scp.check_file(page_file)
        for page_number in page_numbers:
            if page_number < 0 or page_number >= page_file.num_pages:
                raise PirError(
                    f"page {page_number} out of range for file {file_name!r} "
                    f"({page_file.num_pages} pages)"
                )
        results = self._read_pages(page_file, page_numbers)
        page_time_s = pir_page_retrieval_time(page_file.num_pages, self.spec)
        for page_number in page_numbers:
            self._pir_time_s += page_time_s
            if trace is not None:
                trace.record_pir_access(file_name, page_number)
        return results

    def _read_pages(self, page_file: PageFile, page_numbers: List[int]) -> List[bytes]:
        """The bytes of validated pages: one batched page-store read, or —
        under XOR serving — one mask draw and one kernel call for the batch.

        The packed kernel for each file is memoised per backing store
        (:func:`~repro.pir.kernels.shared_kernel`), so every simulator over
        the same database — e.g. all engine worker contexts — answers off
        one packed image.
        """
        if self.xor_kernel is None:
            return page_file.read_pages_batch(page_numbers)
        kernel = shared_kernel(page_file, kernel=self.xor_kernel)
        log: Optional[Callable[[frozenset], None]] = None
        if self.log_queries:
            file_name = page_file.name
            log = lambda subset: self.queries_seen.append((file_name, subset))
        shares = draw_shares(self._kernel_rng, kernel.num_blocks, page_numbers, log)
        return answer_shares(kernel, *shares)

    def download_header(self, trace: Optional[AccessTrace] = None) -> bytes:
        """Download the header file in full, without the PIR interface."""
        header = self.database.header
        if trace is not None:
            trace.record_header_download(len(header))
        return header
