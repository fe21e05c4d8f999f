"""Query-processing schemes: the paper's CI, PI, HY, PI* and the LM/AF/OBF baselines."""

from .approximate import ApproximatePassageIndexScheme, measure_cost_deviation
from .arcflag_scheme import ArcFlagScheme
from .base import (
    QueryResult,
    RoundManager,
    Scheme,
    response_time_from_trace,
    verify_plan_conformance,
)
from .ci import ConciseIndexScheme
from .clustered import ClusteredPassageIndexScheme
from .files import (
    COMBINED_FILE,
    DATA_FILE,
    HeaderInfo,
    INDEX_FILE,
    LOOKUP_FILE,
    build_lookup_file,
    build_region_data_file,
    read_lookup_entry,
)
from .hybrid import HybridScheme
from .index_entries import (
    IndexEntry,
    IndexFileBuilder,
    decode_index_entry,
    resolve_page_image,
)
from .landmark_scheme import LandmarkScheme, generate_plan_pairs
from .obfuscation import ObfuscationResult, ObfuscationScheme
from .pi import PassageIndexScheme
from .plan import QueryPlan, RoundSpec

__all__ = [
    "COMBINED_FILE",
    "DATA_FILE",
    "INDEX_FILE",
    "LOOKUP_FILE",
    "ApproximatePassageIndexScheme",
    "ArcFlagScheme",
    "ClusteredPassageIndexScheme",
    "ConciseIndexScheme",
    "HeaderInfo",
    "HybridScheme",
    "IndexEntry",
    "IndexFileBuilder",
    "LandmarkScheme",
    "ObfuscationResult",
    "ObfuscationScheme",
    "PassageIndexScheme",
    "QueryPlan",
    "QueryResult",
    "RoundManager",
    "RoundSpec",
    "Scheme",
    "build_lookup_file",
    "build_region_data_file",
    "decode_index_entry",
    "generate_plan_pairs",
    "measure_cost_deviation",
    "read_lookup_entry",
    "resolve_page_image",
    "response_time_from_trace",
    "verify_plan_conformance",
]
