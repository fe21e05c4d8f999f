"""Experiment functions: one per table/figure of the paper's evaluation.

Every public function regenerates the data behind one table or figure of
Section 7 and returns plain dictionaries/lists so that the pytest-benchmark
targets in ``benchmarks/`` can both time them and print the same rows/series
the paper reports.  Paper-reported reference values are included as constants
where the paper states them explicitly (Table 3), so reports can show
paper-vs-measured side by side.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..costmodel import DEFAULT_SPEC
from ..schemes import (
    ArcFlagScheme,
    ClusteredPassageIndexScheme,
    ConciseIndexScheme,
    HybridScheme,
    LandmarkScheme,
    ObfuscationScheme,
    PassageIndexScheme,
)
from .cache import BuildCache, get_cache
from .datasets import DATASETS, LARGE_DATASETS, SMALL_DATASETS, dataset_spec
from .runner import WorkloadSummary, run_obfuscation_workload, run_workload
from .workloads import generate_workload

#: Default workload size for the quick profile (the paper uses 1,000 queries).
DEFAULT_NUM_QUERIES = 30

#: Table 3 of the paper (Argentina, 4 KByte pages, IBM 4764 simulation).
PAPER_TABLE3 = {
    "AF": {"response_s": 324.18, "pir_s": 272.56, "communication_s": 51.47, "storage_mb": 3.28},
    "LM": {"response_s": 311.93, "pir_s": 265.38, "communication_s": 46.43, "storage_mb": 4.38},
    "CI": {"response_s": 105.45, "pir_s": 88.09, "communication_s": 17.34, "storage_mb": 8.40},
    "PI": {"response_s": 58.17, "pir_s": 54.21, "communication_s": 3.94, "storage_mb": 1102.0},
}


# ---------------------------------------------------------------------- #
# shared builders (cached)
# ---------------------------------------------------------------------- #
def _build_ci(cache: BuildCache, dataset: str, packed: bool = True, compress: bool = True):
    key = ("CI", dataset, packed, compress)
    return cache.scheme(
        key,
        lambda: ConciseIndexScheme.build(
            cache.network(dataset),
            spec=cache.spec,
            packed=packed,
            compress=compress,
            partitioning=cache.partitioning(dataset, packed),
            border_index=cache.border_index(dataset, packed),
            products=cache.border_products(dataset, packed),
        ),
    )


def _build_pi(cache: BuildCache, dataset: str, packed: bool = True, compress: bool = True):
    key = ("PI", dataset, packed, compress)
    return cache.scheme(
        key,
        lambda: PassageIndexScheme.build(
            cache.network(dataset),
            spec=cache.spec,
            packed=packed,
            compress=compress,
            partitioning=cache.partitioning(dataset, packed),
            border_index=cache.border_index(dataset, packed),
            products=cache.border_products(dataset, packed, want_subgraphs=True),
        ),
    )


def _build_hybrid(cache: BuildCache, dataset: str, threshold: int):
    key = ("HY", dataset, threshold)
    products = cache.border_products(dataset, want_subgraphs=True)
    return cache.scheme(
        key,
        lambda: HybridScheme.build(
            cache.network(dataset),
            spec=cache.spec,
            region_set_threshold=threshold,
            partitioning=cache.partitioning(dataset),
            border_index=cache.border_index(dataset),
            products=products,
            passage_subgraphs=products.passage_subgraphs,
        ),
    )


def _build_clustered(cache: BuildCache, dataset: str, cluster_pages: int):
    key = ("PI*", dataset, cluster_pages)
    capacity = cluster_pages * cache.spec.page_size - 8
    return cache.scheme(
        key,
        lambda: ClusteredPassageIndexScheme.build(
            cache.network(dataset),
            spec=cache.spec,
            cluster_pages=cluster_pages,
            partitioning=cache.partitioning(dataset, capacity=capacity),
            border_index=cache.border_index(dataset, capacity=capacity),
            products=cache.border_products(dataset, capacity=capacity, want_subgraphs=True),
        ),
    )


def _build_lm(cache: BuildCache, dataset: str, num_landmarks: int, plan_pairs):
    key = ("LM", dataset, num_landmarks, len(plan_pairs))
    return cache.scheme(
        key,
        lambda: LandmarkScheme.build(
            cache.network(dataset),
            spec=cache.spec,
            num_landmarks=num_landmarks,
            plan_pairs=plan_pairs,
        ),
    )


def _build_af(cache: BuildCache, dataset: str, plan_pairs):
    key = ("AF", dataset, len(plan_pairs))
    return cache.scheme(
        key,
        lambda: ArcFlagScheme.build(
            cache.network(dataset),
            spec=cache.spec,
            plan_pairs=plan_pairs,
            partitioning=cache.partitioning(dataset),
            border_index=cache.border_index(dataset),
        ),
    )


def _workload(cache: BuildCache, dataset: str, num_queries: int, seed: int = 42):
    return generate_workload(cache.network(dataset), count=num_queries, seed=seed)


# ---------------------------------------------------------------------- #
# Table 1 and Table 2
# ---------------------------------------------------------------------- #
def table1_datasets(profile: str = "quick") -> List[Dict[str, object]]:
    """Table 1: the road networks (paper sizes and generated stand-in sizes)."""
    cache = get_cache(profile)
    rows = []
    for name in DATASETS:
        spec = dataset_spec(name)
        network = cache.network(name)
        rows.append(
            {
                "dataset": spec.label,
                "paper_nodes": spec.paper_nodes,
                "paper_edges": spec.paper_edges,
                "generated_nodes": network.num_nodes,
                "generated_edges": network.num_edges,
                "edge_factor": round(network.num_edges / (2 * network.num_nodes), 3),
            }
        )
    return rows


def table2_system(profile: str = "quick") -> List[Dict[str, object]]:
    """Table 2: the system specification in force for the chosen profile."""
    cache = get_cache(profile)
    spec = cache.spec
    return [
        {"parameter": "Disk page size", "value": f"{spec.page_size} bytes"},
        {"parameter": "Disk seek time", "value": f"{spec.disk_seek_s * 1000:.0f} ms"},
        {"parameter": "Disk read/write rate", "value": f"{spec.disk_rate_bps / 2**20:.0f} MByte/s"},
        {"parameter": "SCP read/write rate", "value": f"{spec.scp_io_rate_bps / 2**20:.0f} MByte/s"},
        {
            "parameter": "SCP encryption/decryption rate",
            "value": f"{spec.scp_crypto_rate_bps / 2**20:.0f} MByte/s",
        },
        {"parameter": "Communication bandwidth", "value": f"{spec.bandwidth_bps / 1024:.0f} KByte/s"},
        {"parameter": "Communication round-trip time", "value": f"{spec.round_trip_s * 1000:.0f} ms"},
        {"parameter": "SCP memory", "value": f"{spec.scp_memory_bytes / 2**20:.0f} MByte"},
        {"parameter": "Max PIR file size", "value": f"{spec.max_file_bytes / 2**30:.2f} GByte"},
    ]


# ---------------------------------------------------------------------- #
# Figure 5: LM fine-tuning
# ---------------------------------------------------------------------- #
def fig5_lm_tuning(
    dataset: str = "argentina",
    landmark_counts: Sequence[int] = (1, 2, 5, 10, 20),
    num_queries: int = DEFAULT_NUM_QUERIES,
    profile: str = "quick",
    workers: int = 1,
    shards: int = 1,
) -> List[Dict[str, object]]:
    """Figure 5: LM response time and space vs. the number of landmarks."""
    cache = get_cache(profile)
    workload = _workload(cache, dataset, num_queries)
    rows = []
    for count in landmark_counts:
        scheme = _build_lm(cache, dataset, count, workload)
        summary = run_workload(scheme, workload, workers=workers, shards=shards)
        rows.append(
            {
                "landmarks": count,
                "response_s": round(summary.mean_response_s, 2),
                "storage_mb": round(summary.storage_mb, 3),
                "pages_per_query": round(sum(summary.mean_page_accesses.values()), 1),
            }
        )
    return rows


# ---------------------------------------------------------------------- #
# Table 3: response-time components on Argentina
# ---------------------------------------------------------------------- #
def table3_components(
    dataset: str = "argentina",
    num_queries: int = DEFAULT_NUM_QUERIES,
    profile: str = "quick",
    num_landmarks: int = 5,
    workers: int = 1,
    shards: int = 1,
) -> List[Dict[str, object]]:
    """Table 3: response-time decomposition and page accesses for AF, LM, CI, PI."""
    cache = get_cache(profile)
    workload = _workload(cache, dataset, num_queries)
    schemes = [
        _build_af(cache, dataset, workload),
        _build_lm(cache, dataset, num_landmarks, workload),
        _build_ci(cache, dataset),
        _build_pi(cache, dataset),
    ]
    rows = []
    for scheme in schemes:
        summary = run_workload(scheme, workload, workers=workers, shards=shards)
        paper = PAPER_TABLE3.get(scheme.name, {})
        data_accesses = summary.mean_page_accesses.get("data", 0.0) + (
            summary.mean_page_accesses.get("combined", 0.0)
        )
        index_accesses = summary.mean_page_accesses.get("index", 0.0)
        rows.append(
            {
                "scheme": scheme.name,
                "response_s": round(summary.mean_response_s, 2),
                "pir_s": round(summary.mean_pir_s, 2),
                "communication_s": round(summary.mean_communication_s, 2),
                "client_s": round(summary.mean_client_s, 4),
                "data_pages_per_query": round(data_accesses, 1),
                "data_file_pages": summary.file_pages.get("data", 0),
                "index_pages_per_query": round(index_accesses, 1),
                "index_file_pages": summary.file_pages.get("index", 0),
                "storage_mb": round(summary.storage_mb, 3),
                "paper_response_s": paper.get("response_s"),
                "paper_storage_mb": paper.get("storage_mb"),
                "costs_correct": summary.all_costs_correct,
                "indistinguishable": summary.indistinguishable,
            }
        )
    return rows


# ---------------------------------------------------------------------- #
# Figure 6: the obfuscation baseline
# ---------------------------------------------------------------------- #
def fig6_obfuscation(
    dataset: str = "argentina",
    set_sizes: Sequence[int] = (20, 40, 60, 80, 100),
    num_queries: int = 20,
    profile: str = "quick",
    workers: int = 1,
    shards: int = 1,
) -> Dict[str, object]:
    """Figure 6: OBF response time vs. obfuscation set size, with CI/PI reference lines."""
    cache = get_cache(profile)
    workload = _workload(cache, dataset, num_queries)
    ci_summary = run_workload(
        _build_ci(cache, dataset),
        workload,
        workers=workers,
        shards=shards,
    )
    pi_summary = run_workload(
        _build_pi(cache, dataset),
        workload,
        workers=workers,
        shards=shards,
    )
    rows = []
    for size in set_sizes:
        obf = ObfuscationScheme(cache.network(dataset), spec=cache.spec, set_size=size, seed=size)
        rows.append(run_obfuscation_workload(obf, workload))
    return {
        "obf": rows,
        "ci_response_s": round(ci_summary.mean_response_s, 2),
        "pi_response_s": round(pi_summary.mean_response_s, 2),
    }


# ---------------------------------------------------------------------- #
# Figure 7: the four schemes across datasets
# ---------------------------------------------------------------------- #
def fig7_datasets(
    datasets: Sequence[str] = tuple(SMALL_DATASETS),
    num_queries: int = DEFAULT_NUM_QUERIES,
    profile: str = "quick",
    num_landmarks: int = 5,
    workers: int = 1,
    shards: int = 1,
) -> List[Dict[str, object]]:
    """Figure 7: AF/LM/CI/PI response time and space on the smaller networks."""
    cache = get_cache(profile)
    rows = []
    for dataset in datasets:
        workload = _workload(cache, dataset, num_queries)
        schemes = [
            _build_af(cache, dataset, workload),
            _build_lm(cache, dataset, num_landmarks, workload),
            _build_ci(cache, dataset),
            _build_pi(cache, dataset),
        ]
        for scheme in schemes:
            summary = run_workload(scheme, workload, workers=workers, shards=shards)
            rows.append(
                {
                    "dataset": dataset_spec(dataset).label,
                    "scheme": scheme.name,
                    "response_s": round(summary.mean_response_s, 2),
                    "storage_mb": round(summary.storage_mb, 3),
                }
            )
    return rows


# ---------------------------------------------------------------------- #
# Figure 8: effect of packed partitioning
# ---------------------------------------------------------------------- #
def fig8_packing(
    datasets: Sequence[str] = tuple(SMALL_DATASETS),
    num_queries: int = DEFAULT_NUM_QUERIES,
    profile: str = "quick",
    workers: int = 1,
    shards: int = 1,
) -> List[Dict[str, object]]:
    """Figure 8: CI/PI with packed vs. plain KD-tree partitioning."""
    cache = get_cache(profile)
    rows = []
    for dataset in datasets:
        workload = _workload(cache, dataset, num_queries)
        variants = [
            ("CI", _build_ci(cache, dataset, packed=True)),
            ("CI-P", _build_ci(cache, dataset, packed=False)),
            ("PI", _build_pi(cache, dataset, packed=True)),
            ("PI-P", _build_pi(cache, dataset, packed=False)),
        ]
        for label, scheme in variants:
            summary = run_workload(scheme, workload, workers=workers, shards=shards)
            rows.append(
                {
                    "dataset": dataset_spec(dataset).label,
                    "scheme": label,
                    "fd_utilization_pct": round(100.0 * (summary.data_file_utilization or 0.0), 1),
                    "response_s": round(summary.mean_response_s, 2),
                    "storage_mb": round(summary.storage_mb, 3),
                }
            )
    return rows


# ---------------------------------------------------------------------- #
# Figure 9: effect of index compression
# ---------------------------------------------------------------------- #
def fig9_compression(
    datasets: Sequence[str] = tuple(SMALL_DATASETS),
    num_queries: int = DEFAULT_NUM_QUERIES,
    profile: str = "quick",
    workers: int = 1,
    shards: int = 1,
) -> List[Dict[str, object]]:
    """Figure 9: CI/PI with and without in-page index compression."""
    cache = get_cache(profile)
    rows = []
    for dataset in datasets:
        workload = _workload(cache, dataset, num_queries)
        variants = [
            ("CI", _build_ci(cache, dataset, compress=True)),
            ("CI-C", _build_ci(cache, dataset, compress=False)),
            ("PI", _build_pi(cache, dataset, compress=True)),
            ("PI-C", _build_pi(cache, dataset, compress=False)),
        ]
        for label, scheme in variants:
            summary = run_workload(scheme, workload, workers=workers, shards=shards)
            rows.append(
                {
                    "dataset": dataset_spec(dataset).label,
                    "scheme": label,
                    "response_s": round(summary.mean_response_s, 2),
                    "storage_mb": round(summary.storage_mb, 3),
                    "index_pages": summary.file_pages.get("index", 0),
                }
            )
    return rows


# ---------------------------------------------------------------------- #
# Figure 10: HY on Denmark
# ---------------------------------------------------------------------- #
def fig10_hybrid(
    dataset: str = "denmark",
    thresholds: Optional[Sequence[int]] = None,
    num_queries: int = DEFAULT_NUM_QUERIES,
    profile: str = "quick",
    workers: int = 1,
    shards: int = 1,
) -> Dict[str, object]:
    """Figure 10: distribution of |S_ij| and HY's space/time trade-off vs. threshold."""
    cache = get_cache(profile)
    workload = _workload(cache, dataset, num_queries)
    products = cache.border_products(dataset, want_subgraphs=True)
    sizes = sorted(len(regions) for regions in products.region_sets.values())
    max_size = sizes[-1] if sizes else 0

    histogram: Dict[int, int] = {}
    bucket = max(1, max_size // 10 or 1)
    for size in sizes:
        key = (size // bucket) * bucket
        histogram[key] = histogram.get(key, 0) + 1

    if thresholds is None:
        step = max(1, max_size // 5)
        thresholds = sorted({max(1, step * k) for k in range(1, 6)})

    ci_summary = run_workload(
        _build_ci(cache, dataset),
        workload,
        workers=workers,
        shards=shards,
    )
    rows = []
    for threshold in thresholds:
        scheme = _build_hybrid(cache, dataset, threshold)
        summary = run_workload(scheme, workload, workers=workers, shards=shards)
        rows.append(
            {
                "threshold": threshold,
                "replaced_pairs": scheme.num_replaced_pairs,
                "response_s": round(summary.mean_response_s, 2),
                "storage_mb": round(summary.storage_mb, 3),
            }
        )
    return {
        "histogram": dict(sorted(histogram.items())),
        "max_region_set_size": max_size,
        "hybrid": rows,
        "ci_response_s": round(ci_summary.mean_response_s, 2),
        "ci_storage_mb": round(ci_summary.storage_mb, 3),
    }


# ---------------------------------------------------------------------- #
# Figure 11: PI* on Denmark
# ---------------------------------------------------------------------- #
def fig11_clustered(
    dataset: str = "denmark",
    cluster_sizes: Sequence[int] = (2, 4, 8, 16),
    num_queries: int = DEFAULT_NUM_QUERIES,
    profile: str = "quick",
    workers: int = 1,
    shards: int = 1,
) -> Dict[str, object]:
    """Figure 11: PI* response time and space vs. the number of cluster pages."""
    cache = get_cache(profile)
    workload = _workload(cache, dataset, num_queries)
    ci_summary = run_workload(
        _build_ci(cache, dataset),
        workload,
        workers=workers,
        shards=shards,
    )
    rows = []
    for cluster_pages in cluster_sizes:
        scheme = _build_clustered(cache, dataset, cluster_pages)
        summary = run_workload(scheme, workload, workers=workers, shards=shards)
        rows.append(
            {
                "cluster_pages": cluster_pages,
                "regions": scheme.partitioning.num_regions,
                "response_s": round(summary.mean_response_s, 2),
                "storage_mb": round(summary.storage_mb, 3),
            }
        )
    return {
        "clustered": rows,
        "ci_response_s": round(ci_summary.mean_response_s, 2),
        "ci_storage_mb": round(ci_summary.storage_mb, 3),
    }


# ---------------------------------------------------------------------- #
# Figure 12: larger networks
# ---------------------------------------------------------------------- #
def fig12_larger(
    datasets: Sequence[str] = tuple(LARGE_DATASETS),
    num_queries: int = DEFAULT_NUM_QUERIES,
    profile: str = "quick",
    cluster_pages: int = 2,
    workers: int = 1,
    shards: int = 1,
) -> List[Dict[str, object]]:
    """Figure 12: CI, HY and PI* on the larger networks."""
    cache = get_cache(profile)
    rows = []
    for dataset in datasets:
        workload = _workload(cache, dataset, num_queries)
        products = cache.border_products(dataset, want_subgraphs=True)
        max_size = products.max_region_set_size()
        threshold = max(4, max_size // 4)
        schemes = [
            _build_ci(cache, dataset),
            _build_hybrid(cache, dataset, threshold),
            _build_clustered(cache, dataset, cluster_pages),
        ]
        for scheme in schemes:
            summary = run_workload(scheme, workload, workers=workers, shards=shards)
            rows.append(
                {
                    "dataset": dataset_spec(dataset).label,
                    "scheme": scheme.name,
                    "response_s": round(summary.mean_response_s, 2),
                    "storage_mb": round(summary.storage_mb, 3),
                }
            )
    return rows
