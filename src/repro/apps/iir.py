"""IIR benchmark: a biquad cascade with a DC blocker — stateful linear.

Every stage carries persistent state fields updated affinely each firing
(direct-form II transposed sections: ``y = b0*x + s1``, ``s1' = b1*x +
a1*y + s2``, ``s2' = b2*x + a2*y``), so the stateless framework of the
thesis cannot touch it — this is exactly the §7.1 future-work workload.
Extraction lifts each stage to a :class:`~repro.linear.node.LinearNode`
with ``state_dim > 0``; under the plan backend
every stage advances a whole block of iterations per lifted matmul
(:class:`~repro.exec.kernels.StatefulLinearStep`), and the optimize
rewrites can collapse the cascade into a single state-space leaf.

Coefficient sets are fixed stable resonators (poles well inside the unit
circle) so long runs stay bounded on the ramp source.  The stages are
elaborated from ``apps/dsl/iir.str``; the cascade is composed here so
arbitrary section lists keep working.
"""

from __future__ import annotations

from ..graph.streams import Filter, Pipeline
from ._loader import load_unit
from .common import printer, ramp_source

NAME = "IIR"

#: (b0, b1, b2, a1, a2) per section, paper-style positive feedback sum
#: ``y[n] = b0 x[n] + b1 x[n-1] + b2 x[n-2] + a1 y[n-1] + a2 y[n-2]``.
DEFAULT_SECTIONS = (
    (0.2929, 0.5858, 0.2929, 0.0000, -0.1716),   # 2nd-order Butterworth LP
    (0.1867, 0.3734, 0.1867, 0.4629, -0.2097),   # resonator
    (0.3913, -0.7826, 0.3913, 0.3695, -0.1958),  # notch
)

DC_BLOCK_R = 0.995

_FILES = ("common", "iir")


def biquad(b0: float, b1: float, b2: float, a1: float, a2: float,
           name: str = "Biquad") -> Filter:
    """One direct-form II transposed second-order section."""
    f = load_unit(_FILES, "Biquad", b0, b1, b2, a1, a2)
    f.name = name
    return f


def dc_blocker(r: float = DC_BLOCK_R, name: str = "DCBlocker") -> Filter:
    """``y[n] = x[n] - x[n-1] + r*y[n-1]`` as one state field."""
    f = load_unit(_FILES, "DCBlocker", r)
    f.name = name
    return f


def cascade(sections=DEFAULT_SECTIONS, name: str = "BiquadCascade") \
        -> Pipeline:
    """DC blocker followed by the second-order sections (float->float)."""
    stages: list[Filter] = [dc_blocker()]
    stages += [biquad(*coeffs, name=f"Biquad{i}")
               for i, coeffs in enumerate(sections)]
    return Pipeline(stages, name=name)


def build(sections=DEFAULT_SECTIONS) -> Pipeline:
    """FloatSource -> DCBlocker -> Biquad0..N -> Printer."""
    return Pipeline([
        ramp_source(),
        cascade(sections),
        printer(),
    ], name="IIRProgram")
