"""repro — reproduction of "Linear Analysis and Optimization of Stream Programs".

The package implements the complete system from the PLDI 2003 paper /
MEng thesis by Andrew A. Lamb (with William Thies and Saman Amarasinghe):
a StreamIt-like stream language and runtime, linear dataflow extraction,
structural combination of linear filters, frequency-domain replacement,
cross-firing redundancy elimination, and dynamic-programming optimization
selection.

Quickstart — compile once, stream forever::

    import repro
    from repro.apps import fir

    session = repro.compile(fir.build(), optimize="auto")
    block = session.run(4096)        # np.ndarray; resumable
    more = session.run(4096)         # continues the stream
    print(session.profile.counts.flops)

Float->float graphs become *push* sessions fed incrementally::

    fir256 = repro.compile(low_pass_filter(1.0, math.pi / 3, 256))
    for chunk in chunks:
        out = fir256.push(chunk)     # ndarray-native end to end

Three execution backends share one FLOP-accounting contract (identical
counts, outputs equal to 1e-9):

* ``backend="interp"``   — reference tree-walking interpreter;
* ``backend="compiled"`` — generated Python per filter;
* ``backend="plan"``     — vectorized steady-state engine (the session
  default; :mod:`repro.exec`): batches firings, runs linear filters as
  NumPy matrix products.  Graphs the planner cannot batch (unknown
  primitive sources, unprobeable cycles) transparently fall back to
  ``compiled``; within a plan, stateless non-linear filters run as NumPy
  lane evaluations and what has no batched form through the compiled
  scalar fallback.

``runtime.run_graph`` / ``run_stream`` / ``count_ops`` remain as thin
one-shot wrappers over a session (``backend="compiled"`` default,
``list[float]`` results — pass ``as_array=True`` for ndarrays).

Benchmark CLI::

    python -m repro.bench --app fir --backend plan --outputs 10000
    python -m repro.bench --app radar --plan-report    # kernel per node
"""

from . import (errors, exec, faults, graph, ir, linear, numeric, runtime,
               serve, session)
from .numeric import DEFAULT_POLICY, POLICIES, NumericPolicy, resolve_policy
from .session import StreamSession, compile

__version__ = "1.4.0"

__all__ = ["errors", "exec", "graph", "ir", "linear", "numeric", "runtime",
           "serve", "session", "StreamSession", "compile", "NumericPolicy",
           "POLICIES", "DEFAULT_POLICY", "resolve_policy", "__version__"]
