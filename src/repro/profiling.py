"""Floating-point operation accounting.

The thesis measures optimizations by counting IA-32 floating-point
instructions with a DynamoRIO client (Table 5.1) and separately counting the
multiplication family (fmul/fdiv...).  We reproduce that measurement with an
explicit profiler: the IR interpreter and the compiled filter kernels report
every float add/sub/mul/div/compare/negate/abs and every libm call into the
active :class:`Profiler`.

Vectorized kernels (matrix multiply, FFT) report analytic counts equal to
the operations the corresponding scalar loop nest would execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: Categories of float operations tracked, mirroring Table 5.1 groupings.
CATEGORIES = ("fadd", "fsub", "fmul", "fdiv", "fcmp", "fneg", "fabs", "fcall")


@dataclass
class Counts:
    """A bag of per-category float-op counters."""

    fadd: int = 0
    fsub: int = 0
    fmul: int = 0
    fdiv: int = 0
    fcmp: int = 0
    fneg: int = 0
    fabs: int = 0
    fcall: int = 0

    @property
    def flops(self) -> int:
        """Total floating-point operations (the paper's FLOPS metric)."""
        return (self.fadd + self.fsub + self.fmul + self.fdiv + self.fcmp
                + self.fneg + self.fabs + self.fcall)

    @property
    def mults(self) -> int:
        """Multiplication instructions (fmul + fdiv families, per §5.1)."""
        return self.fmul + self.fdiv

    def add(self, other: "Counts", times: int = 1) -> None:
        """Add ``times`` copies of ``other`` — spelled out per category:
        every batched kernel call ends here."""
        self.fadd += other.fadd * times
        self.fsub += other.fsub * times
        self.fmul += other.fmul * times
        self.fdiv += other.fdiv * times
        self.fcmp += other.fcmp * times
        self.fneg += other.fneg * times
        self.fabs += other.fabs * times
        self.fcall += other.fcall * times

    def scaled(self, k: int) -> "Counts":
        return Counts(**{c: getattr(self, c) * k for c in CATEGORIES})

    def copy(self) -> "Counts":
        return Counts(**{c: getattr(self, c) for c in CATEGORIES})

    def __sub__(self, other: "Counts") -> "Counts":
        return Counts(**{c: getattr(self, c) - getattr(other, c)
                         for c in CATEGORIES})


@dataclass
class Profiler:
    """Accumulates float-op counts; optionally also per-filter counts."""

    counts: Counts = field(default_factory=Counts)
    per_filter: dict = field(default_factory=dict)

    # scalar-op entry points (hot path of the tree interpreter) -----------
    def op(self, category: str, n: int = 1) -> None:
        setattr(self.counts, category, getattr(self.counts, category) + n)

    def bulk(self, fadd=0, fsub=0, fmul=0, fdiv=0, fcmp=0, fneg=0,
             fabs=0, fcall=0) -> None:
        c = self.counts
        c.fadd += fadd
        c.fsub += fsub
        c.fmul += fmul
        c.fdiv += fdiv
        c.fcmp += fcmp
        c.fneg += fneg
        c.fabs += fabs
        c.fcall += fcall

    def add_counts(self, counts: Counts, times: int = 1,
                   filter_name: str | None = None) -> None:
        self.counts.add(counts, times)
        if filter_name is not None:
            bucket = self.per_filter.get(filter_name)
            if bucket is None:
                bucket = self.per_filter[filter_name] = Counts()
            bucket.add(counts, times)

    @property
    def flops(self) -> int:
        return self.counts.flops

    @property
    def mults(self) -> int:
        return self.counts.mults


class NullProfiler(Profiler):
    """Profiler that discards everything (used for pure-speed runs)."""

    def op(self, category: str, n: int = 1) -> None:  # pragma: no cover
        pass

    def bulk(self, **kw) -> None:
        pass

    def add_counts(self, counts, times=1, filter_name=None) -> None:
        pass
