"""Benchmark harness: datasets, workloads, runners and per-figure experiments."""

from .cache import BuildCache, get_cache
from .datasets import (
    DATASETS,
    LARGE_DATASETS,
    SMALL_DATASETS,
    DatasetSpec,
    dataset_spec,
    load_dataset,
    system_spec_for,
)
from .extensions import (
    ablation_approximate,
    ablation_oram_mechanism,
    ablation_region_compression,
    section4_full_materialization,
)
from .experiments import (
    DEFAULT_NUM_QUERIES,
    PAPER_TABLE3,
    fig5_lm_tuning,
    fig6_obfuscation,
    fig7_datasets,
    fig8_packing,
    fig9_compression,
    fig10_hybrid,
    fig11_clustered,
    fig12_larger,
    table1_datasets,
    table2_system,
    table3_components,
)
from .reporting import format_series, format_table
from .runner import WorkloadSummary, run_obfuscation_workload, run_workload
from .workloads import (
    DEFAULT_WORKLOAD_SIZE,
    generate_hotspot_workload,
    generate_workload,
)

__all__ = [
    "BuildCache",
    "DATASETS",
    "DEFAULT_NUM_QUERIES",
    "DEFAULT_WORKLOAD_SIZE",
    "DatasetSpec",
    "LARGE_DATASETS",
    "PAPER_TABLE3",
    "SMALL_DATASETS",
    "WorkloadSummary",
    "ablation_approximate",
    "ablation_oram_mechanism",
    "ablation_region_compression",
    "dataset_spec",
    "fig10_hybrid",
    "fig11_clustered",
    "fig12_larger",
    "fig5_lm_tuning",
    "fig6_obfuscation",
    "fig7_datasets",
    "fig8_packing",
    "fig9_compression",
    "format_series",
    "format_table",
    "generate_hotspot_workload",
    "generate_workload",
    "get_cache",
    "load_dataset",
    "run_obfuscation_workload",
    "run_workload",
    "section4_full_materialization",
    "system_spec_for",
    "table1_datasets",
    "table2_system",
    "table3_components",
]
