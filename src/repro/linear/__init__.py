"""Linear analysis: nodes, extraction, expansion, combination, replacement."""

from .combine import LinearityMap, analyze, maximal_linear_replacement
from .expansion import expand, expand_firings
from .extraction import ExtractionResult, extract_filter
from .filters import LinearFilter
from .node import LinearNode
from .pipeline_comb import combine_pipeline, combine_pipeline_pair
from .splitjoin_comb import (combine_duplicate_splitjoin, combine_splitjoin,
                             decimator_node, roundrobin_to_duplicate)

__all__ = [
    "LinearNode", "extract_filter", "ExtractionResult",
    "expand", "expand_firings",
    "combine_pipeline_pair", "combine_pipeline",
    "combine_duplicate_splitjoin", "combine_splitjoin",
    "decimator_node", "roundrobin_to_duplicate",
    "analyze", "LinearityMap", "maximal_linear_replacement", "LinearFilter",
]
