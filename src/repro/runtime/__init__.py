"""Execution engine: channels, flattening executor, FLOP profiler."""

from .builtins import (ChunkSource, Collector, FunctionSource, Identity,
                       ListSource)
from .channels import Channel
from .executor import (FlatGraph, count_ops, run_graph, run_stream,
                       sanity_check_schedulable)
from ..profiling import Counts, NullProfiler, Profiler

__all__ = [
    "Channel", "FlatGraph", "run_graph", "run_stream", "count_ops",
    "sanity_check_schedulable", "Profiler", "NullProfiler",
    "Counts", "ListSource", "FunctionSource", "Collector", "Identity",
    "ChunkSource",
]
