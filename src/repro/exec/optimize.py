"""Pre-plan graph rewriting: the ``optimize=`` stage of the plan pipeline.

``run_graph(..., optimize=...)`` rewrites the program with the paper's
optimization passes *before* handing it to the planner (or the scalar
executor), so the batched engine executes the collapsed/frequency form
instead of the graph as written:

* ``none``   — the graph as written;
* ``linear`` — maximal linear replacement (§4.4): every maximal linear
  region collapses to one matrix-multiply leaf — regions that carry
  state included (§7.1: IIR sections whose fields update affinely, and
  the pipeline runs that contain them);
* ``freq``   — maximal frequency replacement (§5.2): maximal linear
  regions become overlap-save FFT convolutions, a decimating one
  polyphase at its own pop rate (no decimator;
  :mod:`repro.frequency.filters`);
* ``auto``   — the §4.3 selection DP, run with the *batched* cost model
  (:func:`repro.selection.costs.batched_direct_cost` /
  :func:`~repro.selection.costs.batched_frequency_cost`), which amortizes
  per-firing overheads over plan-sized batches and prices the direct
  implementation as the dense BLAS product the plan backend actually runs.

All rewrites descend into ``FeedbackLoop`` bodies: leaves inside a cycle
are always replaceable, and multi-filter pipeline runs collapse when the
combination is *rate-preserving* (lookahead-free children firing once
each per combined firing), which cannot shrink the cycle's delay budget;
frequency blocks change granularity and are never placed inside a cycle.

All four rewrites preserve observable outputs; FLOP counts change by
design (that is the point of the optimizations).
"""

from __future__ import annotations

from ..graph.streams import Stream

#: Valid values of the ``optimize=`` argument, in pipeline order.
OPTIMIZE_MODES = ("none", "linear", "freq", "auto")


def optimize_stream(stream: Stream, mode: str, policy=None) -> Stream:
    """Apply one named optimization mode to ``stream`` (non-destructive).

    ``policy`` (a :class:`~repro.numeric.NumericPolicy` or None) only
    affects ``auto``: the selection DP consults the calibration cache
    for that dtype's measured throughputs when one is present.
    """
    if mode == "none":
        return stream
    # deferred: the passes pull in linear/frequency/selection machinery
    if mode == "linear":
        from ..linear.combine import maximal_linear_replacement
        return maximal_linear_replacement(stream, stateful=True)
    if mode == "freq":
        from ..frequency.replacer import maximal_frequency_replacement
        return maximal_frequency_replacement(stream, strategy="polyphase")
    if mode == "auto":
        from ..selection.dp import select_optimizations
        return select_optimizations(stream, cost_model="batched",
                                    stateful=True, policy=policy).stream
    raise ValueError(
        f"unknown optimize mode {mode!r} (expected one of {OPTIMIZE_MODES})")


def fission_stream(stream: Stream, workers: int, policy=None) -> Stream:
    """Data-parallel fission: replicate profitable linear leaves
    ``workers`` ways behind round-robin split/join (non-destructive).

    Runs *after* ``optimize_stream`` in the ``workers > 1`` compile
    path, so the replicated leaves are the already-selected fused
    kernels.  The construction and pricing live in
    :mod:`repro.parallel.fission`.
    """
    if workers <= 1:
        return stream
    from ..parallel.fission import fission_stream as _fission
    return _fission(stream, workers, policy=policy)
