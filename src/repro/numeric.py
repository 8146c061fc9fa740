"""Numeric policy: one dtype decision threaded through every layer.

The stack historically hardcoded ``float64`` everywhere — ring buffers,
kernels, the session push path, the serve wire protocol's ``f64le``
payloads.  A :class:`NumericPolicy` bundles the one decision all of
those sites share:

* the **storage/compute dtype** (rings, kernel matrices, FFT paths),
* the **comparison tolerance** differential tests may rely on
  (``f64`` scalar backends stay bitwise; ``f32``/complex compare at
  scaled tolerances),
* the **wire tag** typed serve frames carry so a client and a session
  can agree on the payload layout instead of both assuming ``f64le``.

Backend contract (documented in the README's "Numeric policy" section):
the scalar backends (``interp``/``compiled``) always *evaluate* in
Python floats (i.e. binary64) and cast to the policy dtype only at the
session boundary, so their ``f64`` outputs stay bit-identical to the
seed behavior; the ``plan`` backend allocates its ring buffers and runs
its batched kernels natively in the policy dtype.  FLOP accounting is
dtype-independent for real policies (parity with the scalar profile
holds for ``f32`` exactly as for ``f64``); complex policies scale the
reported counts through :meth:`NumericPolicy.adjust_counts` — a complex
multiply-add is 4 real multiplies and 2 real adds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CompileOptionError
from .profiling import Counts

__all__ = ["NumericPolicy", "POLICIES", "DEFAULT_POLICY",
           "DTYPE_CHOICES", "resolve_policy"]


@dataclass(frozen=True)
class NumericPolicy:
    """One end-to-end numeric configuration (dtype + tolerance + wire)."""

    #: canonical short name — also the plan-cache key component and the
    #: ``--dtype`` spelling: ``f32`` | ``f64`` | ``c64`` | ``c128``
    name: str
    #: NumPy storage/compute dtype for the plan backend
    dtype: np.dtype
    #: 1-byte tag that leads every chunk on the serve wire
    wire_tag: int
    #: little-endian wire layout of one sample, e.g. ``"<f8"``
    wire_fmt: str
    #: differential-comparison tolerances vs the float64 scalar reference
    rtol: float
    atol: float

    @property
    def is_complex(self) -> bool:
        return self.dtype.kind == "c"

    @property
    def is_default(self) -> bool:
        """The pre-policy behavior: float64 end-to-end, ``f64le`` wire."""
        return self.name == "f64"

    @property
    def itemsize(self) -> int:
        return int(np.dtype(self.wire_fmt).itemsize)

    def scalar(self, value):
        """Cast one sample to the policy's Python scalar type."""
        return complex(value) if self.is_complex else float(value)

    def cast(self, values) -> np.ndarray:
        """An ndarray of ``values`` in the policy dtype (copy only when
        a conversion is actually needed)."""
        return np.asarray(values, dtype=self.dtype)

    def adjust_counts(self, counts: Counts) -> Counts:
        """Rescale an analytic (real-arithmetic) FLOP profile to this
        policy.  Real policies are the identity — FLOP parity with the
        scalar backends is exact.  Complex policies apply the standard
        real-op equivalents: a complex multiply is 4 real multiplies and
        2 real adds, a complex add/sub/negate is 2 of the real op."""
        if not self.is_complex:
            return counts
        return Counts(fadd=2 * counts.fadd + 2 * counts.fmul,
                      fsub=2 * counts.fsub,
                      fmul=4 * counts.fmul,
                      fdiv=counts.fdiv,
                      fcmp=counts.fcmp,
                      fneg=2 * counts.fneg,
                      fabs=counts.fabs,
                      fcall=counts.fcall)


def _make(name, np_dtype, wire_tag, wire_fmt, rtol, atol) -> NumericPolicy:
    return NumericPolicy(name=name, dtype=np.dtype(np_dtype),
                         wire_tag=wire_tag, wire_fmt=wire_fmt,
                         rtol=rtol, atol=atol)


#: The supported policies.  ``f64``/``c128`` compare at near-bitwise
#: tolerances (batched kernels may reassociate sums); ``f32``/``c64``
#: accumulate in 24-bit significands and compare at scaled tolerances.
POLICIES: dict[str, NumericPolicy] = {
    p.name: p for p in (
        _make("f64", np.float64, 1, "<f8", 1e-9, 1e-12),
        _make("f32", np.float32, 2, "<f4", 1e-4, 1e-5),
        _make("c64", np.complex64, 3, "<c8", 1e-4, 1e-5),
        _make("c128", np.complex128, 4, "<c16", 1e-9, 1e-12),
    )
}

DEFAULT_POLICY = POLICIES["f64"]

#: the ``--dtype`` / ``compile(dtype=...)`` vocabulary, canonical first
DTYPE_CHOICES = ("f64", "f32", "c64", "c128")

_ALIASES = {
    "float32": "f32", "single": "f32",
    "float64": "f64", "double": "f64", "float": "f64",
    "complex64": "c64",
    "complex128": "c128", "complex": "c128",
}

_BY_TAG = {p.wire_tag: p for p in POLICIES.values()}


def policy_for_wire_tag(tag: int) -> NumericPolicy | None:
    """The policy a typed serve frame's tag byte names, or None."""
    return _BY_TAG.get(tag)


def resolve_policy(spec) -> NumericPolicy:
    """Resolve a user-facing dtype spec to a :class:`NumericPolicy`.

    Accepts ``None`` (the float64 default), a policy, a short name or
    NumPy-style alias string, or anything ``np.dtype`` understands
    (``np.float32``, ``"'<f4'"``...).  Unknown specs raise
    :class:`~repro.errors.CompileOptionError` listing the choices.
    """
    if spec is None:
        return DEFAULT_POLICY
    if isinstance(spec, NumericPolicy):
        return spec
    if isinstance(spec, str):
        name = spec.strip().lower()
        name = _ALIASES.get(name, name)
        if name in POLICIES:
            return POLICIES[name]
        try:
            name = np.dtype(name).name
        except TypeError:
            raise CompileOptionError("dtype", spec, DTYPE_CHOICES) from None
        name = _ALIASES.get(name, name)
        if name in POLICIES:
            return POLICIES[name]
        raise CompileOptionError("dtype", spec, DTYPE_CHOICES)
    try:
        name = np.dtype(spec).name
    except TypeError:
        raise CompileOptionError("dtype", spec, DTYPE_CHOICES) from None
    name = _ALIASES.get(name, name)
    if name in POLICIES:
        return POLICIES[name]
    raise CompileOptionError("dtype", spec, DTYPE_CHOICES)
