"""Workload runner: executes a query workload against a scheme and aggregates
the metrics the paper reports (response-time components, PIR page accesses per
file, storage space, page utilization)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..costmodel import ResponseTime
from ..engine import QueryEngine
from ..exceptions import SchemeError
from ..schemes import Scheme
from ..schemes.obfuscation import ObfuscationScheme
from .workloads import QueryPair


@dataclass
class WorkloadSummary:
    """Aggregate metrics of one scheme over one workload."""

    scheme_name: str
    num_queries: int
    #: Mean response-time decomposition per query (seconds).
    mean_response_s: float
    mean_pir_s: float
    mean_communication_s: float
    mean_client_s: float
    mean_server_s: float
    #: Mean PIR page accesses per file, and the file sizes (in pages).
    mean_page_accesses: Dict[str, float]
    file_pages: Dict[str, int]
    #: Database size in MBytes (header included).
    storage_mb: float
    #: Average page utilization of the region data file (None when absent).
    data_file_utilization: Optional[float]
    #: Whether every query returned the true shortest-path cost.
    all_costs_correct: bool
    #: Whether every query produced the identical adversary view.
    indistinguishable: bool
    #: Client-side decode-cache statistics of the underlying batch.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Worker contexts the batch was sharded across.
    workers: int = 1
    #: PIR database shards each worker context connected to.
    shards: int = 1

def run_workload(
    scheme: Scheme,
    pairs: Sequence[QueryPair],
    verify_costs: bool = True,
    cost_tolerance: float = 1e-4,
    engine: Optional[QueryEngine] = None,
    workers: int = 1,
    cache_entries: int = 512,
    shards: int = 1,
    store_backend: Optional[str] = None,
    store_dir=None,
    pir_kernel: Optional[str] = "off",
) -> WorkloadSummary:
    """Execute every query of the workload and aggregate the paper's metrics.

    Workloads run through a :class:`~repro.engine.QueryEngine` (one is created
    per call unless ``engine`` is supplied, e.g. to share its page cache
    across several workloads of the same scheme): queries execute under the
    scheme's fixed plan with client-side decode caching, and the true-cost
    verification is batched by source over the compiled network.  ``workers``
    shards the batch across that many engine worker threads and ``shards``
    splits the PIR page store into that many independent sub-databases;
    both leave the results bit-identical to serial execution.  ``cache_entries`` sizes
    each worker's decode cache (``0`` disables caching; ignored when
    ``engine`` is supplied, as are ``shards`` and ``store_backend``).
    ``store_backend``/``store_dir`` re-home the scheme's database onto the
    named page-store backend (memory/mmap/sqlite) and serve the workload's
    PIR reads from it.  ``pir_kernel`` serves every PIR read through a real
    two-server XOR retrieval over the named packed server kernel
    ("auto"/"numpy"/"bigint"; results stay bit-identical — see
    :mod:`repro.pir.kernels`).  It is pinned ``"off"`` (direct page reads)
    here: the experiments measure the paper's *simulated* response times,
    and folding every page through the XOR protocol only slows the
    regeneration without changing a single reported number.
    """
    if not pairs:
        raise SchemeError("cannot run an empty workload")
    if engine is None:
        engine = QueryEngine(
            scheme,
            cache_entries=cache_entries,
            shards=shards,
            store_backend=store_backend,
            store_dir=store_dir,
            pir_kernel=pir_kernel,
        )
    batch = engine.run_batch(
        pairs,
        verify_costs=verify_costs,
        cost_tolerance=cost_tolerance,
        workers=workers,
    )

    responses: List[ResponseTime] = []
    per_file_accesses: Dict[str, float] = {}
    for result in batch.results:
        responses.append(result.response)
        for file_name, count in result.pages_per_file.items():
            per_file_accesses[file_name] = per_file_accesses.get(file_name, 0.0) + count
    costs_correct = batch.all_costs_correct

    count = len(pairs)
    mean_accesses = {name: total / count for name, total in per_file_accesses.items()}
    file_pages = {name: scheme.database.file(name).num_pages for name in scheme.database.file_names()}

    data_utilization: Optional[float] = None
    if scheme.database.has_file("data"):
        data_utilization = scheme.database.file("data").utilization

    return WorkloadSummary(
        scheme_name=scheme.name,
        num_queries=count,
        mean_response_s=sum(r.total_s for r in responses) / count,
        mean_pir_s=sum(r.pir_s for r in responses) / count,
        mean_communication_s=sum(r.communication_s for r in responses) / count,
        mean_client_s=sum(r.client_s for r in responses) / count,
        mean_server_s=sum(r.server_s for r in responses) / count,
        mean_page_accesses=mean_accesses,
        file_pages=file_pages,
        storage_mb=scheme.storage_mb,
        data_file_utilization=data_utilization,
        all_costs_correct=costs_correct,
        indistinguishable=batch.indistinguishable,
        cache_hits=batch.cache_hits,
        cache_misses=batch.cache_misses,
        workers=batch.workers,
        shards=batch.shards,
    )


def run_obfuscation_workload(
    scheme: ObfuscationScheme, pairs: Sequence[QueryPair]
) -> Dict[str, float]:
    """Run the OBF baseline over a workload; returns mean response components."""
    if not pairs:
        raise SchemeError("cannot run an empty workload")
    responses = [scheme.query(source, target).response for source, target in pairs]
    count = len(pairs)
    return {
        "scheme": "OBF",
        "set_size": scheme.set_size,
        "response_s": sum(r.total_s for r in responses) / count,
        "server_s": sum(r.server_s for r in responses) / count,
        "communication_s": sum(r.communication_s for r in responses) / count,
    }
