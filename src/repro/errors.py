"""Shared exception types for the repro package.

Besides the exception hierarchy this module defines the structured
diagnostic objects of the DSL frontend: a :class:`SourceSpan` locating a
region of source text and a :class:`Diagnostic` pairing a stable machine
code (mirroring :attr:`ProtocolError.code`) with a human message and an
optional caret-rendered snippet.  :class:`DSLError` carries a list of
them, so one failed parse can report *every* syntax error it recovered
past, each pointing at the offending text.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourceSpan:
    """A half-open region of DSL source text (1-based lines/columns).

    ``end_col`` is exclusive: the span of ``abc`` starting at column 5
    is ``col=5, end_col=8``.  Single-point spans (``end_col == col``)
    mark an insertion position, e.g. where a missing ``;`` belongs.
    """

    line: int
    col: int
    end_line: int = 0
    end_col: int = 0

    def __post_init__(self):
        if self.end_line <= 0:
            object.__setattr__(self, "end_line", self.line)
        if self.end_col <= 0:
            object.__setattr__(self, "end_col", self.col + 1)

    def merge(self, other: "SourceSpan | None") -> "SourceSpan":
        """The smallest span covering both spans."""
        if other is None:
            return self
        start = min((self.line, self.col), (other.line, other.col))
        end = max((self.end_line, self.end_col),
                  (other.end_line, other.end_col))
        return SourceSpan(start[0], start[1], end[0], end[1])

    def __str__(self) -> str:
        return f"line {self.line}, col {self.col}"


@dataclass(frozen=True)
class Diagnostic:
    """One structured DSL error: stable code, message, source span.

    ``code`` is machine-readable and stable across releases (the DSL
    counterpart of :attr:`ProtocolError.code`): tooling may dispatch on
    it.  ``render`` produces the human form — message, location, and
    the offending source line with a caret underline when the source
    text is available.
    """

    code: str
    message: str
    span: SourceSpan | None = None
    hint: str | None = None

    def describe(self) -> str:
        """One-line form: ``message at line L, col C [code]``."""
        loc = f" at {self.span}" if self.span is not None else ""
        return f"{self.message}{loc} [{self.code}]"

    def render(self, source: str | None = None) -> str:
        """Multi-line form with a caret snippet when ``source`` is given::

            error[dsl-expected]: expected ';' at line 3, col 12
              3 | push(sum)
                |          ^
        """
        head = f"error[{self.code}]: {self.message}"
        if self.span is not None:
            head += f" at {self.span}"
        lines = [head]
        if source is not None and self.span is not None:
            text_lines = source.splitlines()
            if 1 <= self.span.line <= len(text_lines):
                text = text_lines[self.span.line - 1]
                gutter = f"  {self.span.line} | "
                lines.append(f"{gutter}{text}")
                width = self.span.end_col - self.span.col \
                    if self.span.end_line == self.span.line else \
                    max(len(text) - self.span.col + 1, 1)
                width = max(width, 1)
                pad = " " * (len(str(self.span.line)) + 2)
                lines.append(f"  {pad}| "
                             + " " * (self.span.col - 1) + "^" * width)
        if self.hint is not None:
            lines.append(f"  hint: {self.hint}")
        return "\n".join(lines)


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class StreamGraphError(ReproError):
    """A stream graph is malformed (bad rates, unbalanced splitjoin, ...)."""


class SchedulingError(ReproError):
    """No valid steady-state schedule exists for a stream graph."""


class IRError(ReproError):
    """Malformed IR or an IR construct used out of context."""


class InterpError(ReproError):
    """Runtime failure while interpreting work-function IR."""


class NonLinearError(ReproError):
    """Raised internally by linear extraction when a filter is not linear.

    Carries a human-readable ``reason`` used for diagnostics.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class CombinationError(ReproError):
    """A structural linear combination rule could not be applied."""


class CompileOptionError(ReproError, ValueError):
    """A bad ``repro.compile`` / serve-protocol option value.

    Raised for unknown ``backend`` / ``optimize`` / session-mode values
    *before* any graph work happens, so callers (and the serve protocol)
    can map it to a precise client error instead of a ``KeyError`` or
    ``ValueError`` escaping from deeper layers.  Subclasses
    ``ValueError`` for backward compatibility.
    """

    def __init__(self, option: str, value, choices):
        self.option = option
        self.value = value
        self.choices = tuple(choices)
        super().__init__(
            f"unknown {option} {value!r} (expected one of "
            f"{', '.join(map(repr, self.choices))})")


class ChunkDtypeError(ReproError, TypeError):
    """A pushed chunk has a dtype that cannot feed the stream.

    ``push``/``feed`` accept numeric chunks castable to the session's
    numeric policy: float/int/bool arrays or sequences (plus complex
    under a complex policy); string, object, and other non-castable
    dtypes — and complex data into a real-dtype session — raise this
    instead of whatever ``np.asarray`` would.
    """

    def __init__(self, dtype, complex_ok: bool = False):
        self.dtype = dtype
        allowed = ("float/int/bool/complex" if complex_ok
                   else "float/int/bool")
        super().__init__(
            f"chunk dtype {dtype!s} cannot feed this stream; "
            f"push/feed require {allowed}-convertible data")


class SessionClosedError(ReproError, RuntimeError):
    """A :class:`~repro.session.StreamSession` was used after ``close()``."""


class SessionPoisonedError(ReproError, RuntimeError):
    """A request arrived for a session an earlier failure poisoned.

    A poisoned session's stream position is indeterminate (a timed-out
    worker may still be mutating it), so the server refuses further
    work on it instead of returning wrong samples; clients RESUME (the
    state after its last good request, restored) or open a new session.
    """


class DeadlineError(ReproError, TimeoutError):
    """A request ran past its deadline (``ServeConfig.request_timeout``
    or a shutdown drain deadline).  The session it ran on is poisoned —
    the worker thread may still be advancing it."""


class FaultInjected(ReproError):
    """An artificial failure raised at a :mod:`repro.faults` injection
    site.  Carries the ``site`` name (``"kernel.step"``, ``"wire.drop"``,
    ...) so recovery paths and tests can tell injected faults from
    organic ones."""

    def __init__(self, site: str):
        self.site = site
        super().__init__(f"injected fault at site {site!r}")


class ProtocolError(ReproError):
    """A serve-protocol failure (malformed frame, server error reply).

    ``code`` is the machine-readable error code carried by serve error
    frames (``"bad-frame"``, ``"backpressure"``, ``"timeout"``, ...).
    """

    def __init__(self, message: str, code: str = "protocol"):
        super().__init__(message)
        self.code = code


class DSLError(ReproError):
    """Lexing/parsing/elaboration failure in the textual mini-StreamIt DSL.

    Carries one or more :class:`Diagnostic` objects under
    ``.diagnostics`` — a recovering parse reports *all* the errors it
    found, not just the first.  ``.line``/``.col`` point at the first
    diagnostic (backward compatibility), ``.code`` is its stable error
    code, and :meth:`render` prints every diagnostic with a caret
    snippet (``.source`` is attached by the frontend when known).
    """

    def __init__(self, message: str | None = None,
                 line: int | None = None, col: int | None = None, *,
                 diagnostics: "tuple[Diagnostic, ...] | list" = (),
                 source: str | None = None):
        if not diagnostics:
            span = SourceSpan(line, col if col is not None else 1) \
                if line is not None else None
            diagnostics = (Diagnostic("dsl-error", message or "DSL error",
                                      span),)
        self.diagnostics: tuple[Diagnostic, ...] = tuple(diagnostics)
        self.source = source
        first = self.diagnostics[0]
        if message is None:
            if len(self.diagnostics) == 1:
                message = first.message
            else:
                message = (f"{len(self.diagnostics)} errors: "
                           + "; ".join(d.describe()
                                       for d in self.diagnostics))
        explicit_loc = line is not None
        if line is None and first.span is not None:
            line, col = first.span.line, first.span.col
        loc = ""
        if line is not None and (explicit_loc or len(self.diagnostics) == 1):
            loc = f" at line {line}"
            if col is not None:
                loc += f", col {col}"
        super().__init__(message + loc)
        self.line = line
        self.col = col

    @property
    def code(self) -> str:
        """Stable machine code of the first diagnostic."""
        return self.diagnostics[0].code

    def render(self, source: str | None = None) -> str:
        """Every diagnostic rendered with caret snippets."""
        src = source if source is not None else self.source
        return "\n".join(d.render(src) for d in self.diagnostics)
