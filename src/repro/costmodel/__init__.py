"""Cost model: Table 2 system specification and response-time decomposition."""

from .spec import DEFAULT_SPEC, SystemSpec
from .timing import (
    CostModel,
    ResponseTime,
    communication_time,
    pir_page_retrieval_time,
)

__all__ = [
    "DEFAULT_SPEC",
    "CostModel",
    "ResponseTime",
    "SystemSpec",
    "communication_time",
    "pir_page_retrieval_time",
]
