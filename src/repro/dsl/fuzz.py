"""Grammar-driven differential fuzzer for the DSL frontend.

Generates random-but-valid DSL programs straight from the grammar —
filters with randomized rates and bodies, pipelines, rate-consistent
splitjoins (duplicate and roundrobin), *mixed* pipelines (rate-changing
runs alternating stateless and stateful linear leaves, a peeking stage
right after a stateful one: what ``linear``/``auto`` collapse into one
node with state), *sibling* splitjoins (one set of
filter declarations instantiated per branch with other coefficients:
the shape the plan backend runs as one step per stage, and its near
misses, which it must not), and echo-template feedback loops — then
runs every program through all three backends and demands the frontend
contract:

* **interp** and **compiled** outputs are bitwise identical (both
  scalar-evaluate the same elaborated IR);
* **plan** agrees to 1e-9 (batched kernels may reassociate float sums).

Two design rules keep the differential sound rather than flaky:

* *Rate consistency by construction.*  Every generated stream carries
  its reduced steady-state ``(pop, push)`` signature.  Duplicate-split
  joiner weights are ``w_i = (lcm(pop_*) / pop_i) * push_i``; roundrobin
  splitters use ``(pop_i, push_i)`` directly.  The rate simulator never
  sees an unschedulable program, so any failure is a backend bug, not a
  generator bug.
* *Continuity at branch points.*  Nonlinear bodies only use constructs
  that are continuous where they branch (clips, ``abs``, ``atan``,
  ``min``/``max``): a 1-ulp upstream difference between the scalar and
  batched paths can flip a comparison, but never produce an O(1) output
  divergence.  Discontinuous quantizers would make 1e-9 unfalsifiable.

CLI::

    python -m repro.dsl.fuzz --count 200 --seed 0

exits non-zero on the first mismatch, printing the offending program's
source so it can be replayed as a regression test.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..graph.streams import Filter, Pipeline, walk
from ..linear.extraction import extract_filter
from ..numeric import DTYPE_CHOICES, resolve_policy
from ..profiling import Profiler
from ..runtime import run_graph
from ..runtime.builtins import Collector
from .elaborator import compile_source

__all__ = ["FuzzProgram", "Mismatch", "generate", "check_program",
           "run_fuzz", "main"]

TOP = "FuzzProgram"
PLAN_RTOL = 1e-9
PLAN_ATOL = 1e-9
#: each plan mode also runs resumed, in this many calls, against the
#: one-call run: every call after the first starts from the leftovers of
#: the one before, the second half in a fresh session restored from the
#: first's snapshot
RESUMED_CALLS = 8


@dataclass
class FuzzProgram:
    """One generated program: source text plus its provenance."""
    seed: int
    source: str
    top: str = TOP
    #: reduced steady-state signature of the float->float body
    pop: int = 1
    push: int = 1
    #: construct census, e.g. {"filter": 4, "splitjoin": 1}
    census: dict = field(default_factory=dict)
    #: the plan report's census keys its plan sessions reached, e.g.
    #: {"matmul[fused]", "island:lanes"}
    kernels: set = field(default_factory=set)


@dataclass
class Mismatch:
    """A differential failure, with enough context to replay it."""
    program: FuzzProgram
    kind: str      # "elaborate" | "run:<backend>" | "diverge:<backend>"
    detail: str

    def render(self) -> str:
        return (f"seed {self.program.seed}: {self.kind}\n{self.detail}\n"
                f"--- program ---\n{self.program.source}")


def _reduce(pop: int, push: int) -> tuple[int, int]:
    g = math.gcd(pop, push)
    return (pop // g, push // g) if g > 1 else (pop, push)


def _compose(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Steady-state signature of ``a`` feeding ``b``."""
    (p1, q1), (p2, q2) = a, b
    m = math.lcm(q1, p2)
    return _reduce(p1 * (m // q1), q2 * (m // p2))


class _Gen:
    """Emits declarations bottom-up; every method returns
    ``(name, pop, push)`` for the stream it declared."""

    def __init__(self, rng: random.Random, max_depth: int):
        self.rng = rng
        self.max_depth = max_depth
        self.decls: list[str] = []
        self.uid = 0
        self.census: dict[str, int] = {}

    def _fresh(self, prefix: str) -> str:
        self.uid += 1
        return f"{prefix}{self.uid}"

    def _count(self, kind: str) -> None:
        self.census[kind] = self.census.get(kind, 0) + 1

    def _lit(self, x: float) -> str:
        return f"{x:.6f}"

    # ------------------------------------------------------------------
    # leaf filters (float -> float)
    # ------------------------------------------------------------------

    def _fir(self, dec: int | None = None) -> tuple[str, int, int]:
        rng = self.rng
        name = self._fresh("Fir")
        taps = rng.randint(2, 6)
        if dec is None:
            dec = rng.choice((0, 0, 1, 2))
        pop = 1 + dec
        freq = self._lit(rng.uniform(0.3, 1.2))
        phase = self._lit(rng.uniform(0.0, 3.0))
        self.decls.append(f"""\
float->float filter {name} {{
    float[{taps}] h;
    init {{
        for (int i = 0; i < {taps}; i++) {{
            h[i] = sin({freq} * i + {phase}) / {taps};
        }}
    }}
    work peek {max(taps, pop)} pop {pop} push 1 {{
        float sum = 0.0;
        for (int i = 0; i < {taps}; i++) {{
            sum = sum + h[i] * peek(i);
        }}
        push(sum);
        for (int i = 0; i < {pop}; i++) {{
            pop();
        }}
    }}
}}
""")
        self._count("filter")
        return name, pop, 1

    def _map(self) -> tuple[str, int, int]:
        rng = self.rng
        name = self._fresh("Map")
        k = rng.randint(1, 3)
        pops = "\n".join(f"        float x{i} = pop();" for i in range(k))
        pushes = []
        for i in range(k):
            a = self._lit(rng.uniform(-1.0, 1.0))
            b = self._lit(rng.uniform(-0.5, 0.5))
            j = rng.randrange(k)
            if j != i and rng.random() < 0.5:
                pushes.append(f"        push({a} * x{i} - {b} * x{j});")
            else:
                pushes.append(f"        push({a} * x{i} + {b});")
        body = "\n".join(pushes)
        self.decls.append(f"""\
float->float filter {name} {{
    work peek {k} pop {k} push {k} {{
{pops}
{body}
    }}
}}
""")
        self._count("filter")
        return name, k, k

    def _expander(self) -> tuple[str, int, int]:
        rng = self.rng
        name = self._fresh("Expand")
        n = rng.randint(2, 3)
        gain = self._lit(rng.uniform(0.2, 0.8))
        self.decls.append(f"""\
float->float filter {name} {{
    work peek 1 pop 1 push {n} {{
        float x = pop();
        push(x);
        for (int i = 0; i < {n - 1}; i++) {{
            push({gain} * x);
        }}
    }}
}}
""")
        self._count("filter")
        return name, 1, n

    def _compressor(self) -> tuple[str, int, int]:
        rng = self.rng
        name = self._fresh("Compress")
        n = rng.randint(2, 3)
        self.decls.append(f"""\
float->float filter {name} {{
    work peek {n} pop {n} push 1 {{
        float sum = 0.0;
        for (int i = 0; i < {n}; i++) {{
            sum = sum + peek(i);
        }}
        push(sum / {n}.0);
        for (int i = 0; i < {n}; i++) {{
            pop();
        }}
    }}
}}
""")
        self._count("filter")
        return name, n, 1

    #: body shapes :meth:`_nonlinear` draws from
    NONLINEAR_VARIANTS = 6

    def _nonlinear(self, variant: int | None = None) -> tuple[str, int, int]:
        rng = self.rng
        name = self._fresh("Shape")
        t = self._lit(rng.uniform(0.5, 4.0))
        g = self._lit(rng.uniform(0.2, 0.9))
        # Continuous at every branch point — see module docstring.
        if variant is None:
            # the windowed nest (5) takes most of the loop's (4) draws,
            # making the same rng calls: a seed's programs are as before
            # but for those leaves, with the same rates and extraction
            # verdicts
            variant = rng.randrange(self.NONLINEAR_VARIANTS - 1)
            if variant == 4 and float(g) > 0.4:
                variant = 5
        peek = 1
        if variant == 0:
            body = f"""\
        float x = pop();
        if (x > {t}) {{
            push({t});
        }} else {{
            push(x);
        }}"""
        elif variant == 1:
            body = f"""\
        float x = pop();
        push(atan({g} * x));"""
        elif variant == 2:
            body = f"""\
        float x = pop();
        push(abs(x) - {t});"""
        elif variant == 3:
            body = f"""\
        float x = pop();
        push(min(max(x, 0.0 - {t}), {t}));"""
        elif variant == 4:
            # a loop with a carried local under a branch: soft limiter
            # pulling y toward the threshold (y == x where x == t)
            body = f"""\
        float x = pop();
        float y = x;
        if (x > {t}) {{
            for (int i = 0; i < {rng.randint(1, 4)}; i++) {{
                y = y - {g} * (y - {t});
            }}
        }}
        push(y);"""
        else:
            # CorrPeak's reduction nest over a window of 2..5: the
            # largest scaled autocorrelation, floored at -t (a max)
            peek = rng.randint(1, 4) + 1
            body = f"""\
        float m = 0.0 - {t};
        for (int i = 0; i < {peek}; i++) {{
            float s = 0.0;
            for (int j = i; j < {peek}; j++) {{
                s = s + peek(i) * peek(j);
            }}
            float a = s * {g};
            if (a > m) {{
                m = a;
            }}
        }}
        push(m);
        pop();"""
        self.decls.append(f"""\
float->float filter {name} {{
    work peek {peek} pop 1 push 1 {{
{body}
    }}
}}
""")
        self._count("filter")
        return name, 1, 1

    def _stateful(self) -> tuple[str, int, int]:
        rng = self.rng
        name = self._fresh("Leaky")
        a = self._lit(rng.uniform(0.3, 0.9))
        self.decls.append(f"""\
float->float filter {name} {{
    float s;
    work peek 1 pop 1 push 1 {{
        s = {a} * s + pop();
        push(s);
    }}
}}
""")
        self._count("filter")
        return name, 1, 1

    def _dead_state(self) -> tuple[str, int, int]:
        """A gain that also writes a field no push reads — affinely (a
        counter) or not (a square): state that is not observable, so the
        filter is the stateless node whichever way it is asked."""
        rng = self.rng
        name = self._fresh("Idle")
        a = self._lit(rng.uniform(-1.0, 1.0))
        b = self._lit(rng.uniform(-0.5, 0.5))
        update = rng.choice(("n + 1.0", "peek(0) * peek(0)"))
        self.decls.append(f"""\
float->float filter {name} {{
    float n;
    work peek 1 pop 1 push 1 {{
        push({a} * peek(0) + {b});
        n = {update};
        pop();
    }}
}}
""")
        self._count("filter")
        return name, 1, 1

    def _delay(self) -> tuple[str, int, int]:
        name = self._fresh("Lag")
        self.decls.append(f"""\
float->float filter {name} {{
    prework push 1 {{
        push(0.0);
    }}
    work peek 1 pop 1 push 1 {{
        push(pop());
    }}
}}
""")
        self._count("filter")
        return name, 1, 1

    def _leaf(self) -> tuple[str, int, int]:
        return self.rng.choice((
            self._fir, self._map, self._map, self._expander,
            self._compressor, self._nonlinear, self._stateful,
            self._dead_state, self._delay))()

    # ------------------------------------------------------------------
    # composites
    # ------------------------------------------------------------------

    def _pipeline(self, depth: int) -> tuple[str, int, int]:
        name = self._fresh("Pipe")
        rates = (1, 1)
        adds = []
        for _ in range(self.rng.randint(2, 3)):
            child, p, q = self._stream(depth - 1)
            adds.append(f"    add {child}();")
            rates = _compose(rates, (p, q))
            if max(rates) > 24:
                break
        body = "\n".join(adds)
        self.decls.append(
            f"float->float pipeline {name} {{\n{body}\n}}\n")
        self._count("pipeline")
        return name, *rates

    def _mixed(self) -> tuple[str, int, int]:
        """A rate-changing run alternating ``k = 0`` and ``k > 0``
        leaves, a peeking FIR right after a stateful one: every pair the
        one pipeline combination has to get right (state upstream of
        lookahead, rate changes on either side of state)."""
        rng = self.rng
        stages = [rng.choice((self._expander, self._compressor))(),
                  self._stateful(), self._fir(dec=0)]
        for extra in (self._stateful, self._map, self._compressor):
            if rng.random() < 0.4:
                stages.append(extra())
        rates = (1, 1)
        for _, p, q in stages:
            rates = _compose(rates, (p, q))
        name = self._fresh("Mixed")
        body = "\n".join(f"    add {child}();" for child, _, _ in stages)
        self.decls.append(
            f"float->float pipeline {name} {{\n{body}\n}}\n")
        self._count("mixed")
        return name, *rates

    def _splitjoin(self, depth: int) -> tuple[str, int, int]:
        rng = self.rng
        name = self._fresh("Split")
        duplicate = rng.random() < 0.6
        children: list[tuple[str, int, int]] = []
        for _ in range(6):  # draw until the steady state stays small
            children = [self._stream(depth - 1)
                        for _ in range(rng.randint(2, 3))]
            if duplicate:
                big = math.lcm(*(p for _, p, _ in children)) > 12
            else:
                big = sum(p for _, p, _ in children) > 12
            if not big:
                break
        else:
            children = [self._map() for _ in range(2)]
        adds = "\n".join(f"    add {c}();" for c, _, _ in children)
        if duplicate:
            lcm = math.lcm(*(p for _, p, _ in children))
            weights = [q * (lcm // p) for _, p, q in children]
            pop, push = lcm, sum(weights)
            split = "split duplicate;"
        else:
            weights = [q for _, _, q in children]
            pop, push = (sum(p for _, p, _ in children), sum(weights))
            split = ("split roundrobin("
                     + ", ".join(str(p) for _, p, _ in children) + ");")
        join = "join roundrobin(" + ", ".join(map(str, weights)) + ");"
        self.decls.append(
            f"float->float splitjoin {name} {{\n    {split}\n{adds}\n"
            f"    {join}\n}}\n")
        self._count("splitjoin")
        return name, *_reduce(pop, push)

    def _feedback(self) -> tuple[str, int, int]:
        rng = self.rng
        name = self._fresh("Loop")
        mix, _, _ = self._map_mixer()
        damp, _, _ = self._damp()
        delay = rng.randint(1, 6)
        enq = "\n".join(
            f"    enqueue {self._lit(rng.uniform(-0.5, 0.5))};"
            for _ in range(delay))
        self.decls.append(f"""\
float->float feedbackloop {name} {{
    join roundrobin(1, 1);
    body {mix}();
    loop {damp}();
    split roundrobin(1, 1);
{enq}
}}
""")
        self._count("feedbackloop")
        return name, 1, 1

    def _map_mixer(self) -> tuple[str, int, int]:
        name = self._fresh("Mix")
        self.decls.append(f"""\
float->float filter {name} {{
    work peek 2 pop 2 push 2 {{
        float x = pop();
        float fb = pop();
        float y = x + fb;
        push(y);
        push(y);
    }}
}}
""")
        self._count("filter")
        return name, 2, 2

    def _damp(self) -> tuple[str, int, int]:
        g = self._lit(self.rng.uniform(0.1, 0.6)
                      * self.rng.choice((-1.0, 1.0)))
        name = self._fresh("Damp")
        self.decls.append(f"""\
float->float filter {name} {{
    work peek 1 pop 1 push 1 {{
        push({g} * pop());
    }}
}}
""")
        self._count("filter")
        return name, 1, 1

    # ------------------------------------------------------------------
    # sibling splitjoins
    # ------------------------------------------------------------------

    #: how a sibling splitjoin may fall short of being one (None: it
    #: does not).  Every one of these must plan branch by branch and
    #: still agree with the interpreter.
    NEAR_MISSES = (None, None, None, None, None, None, "rates", "weights",
                   "prework", "int field", "nested", "loop")

    def _siblings(self, void: bool = False,
                  miss: str | None = "draw") -> tuple[str, int, int]:
        """``b`` branches instantiating the same declarations — a
        peek > pop FIR, a stateless non-linear shaper with a float and
        an int field, under ``void`` a counter source in front — with
        per-branch coefficients, split by duplicate or equal weights."""
        rng = self.rng
        if miss == "draw":
            miss = rng.choice(self.NEAR_MISSES)
        if void and miss == "loop":
            miss = None
        b = 2 if miss == "loop" else rng.randint(2, 6)
        taps = 1 if miss == "loop" else rng.randint(2, 5)
        dec = 0 if miss in ("loop", "rates") else rng.choice((0, 0, 1))
        reps = 1 if miss in ("loop", "rates") else rng.choice((1, 1, 2))
        loops = rng.randint(1, 3)
        t = self._lit(rng.uniform(0.5, 2.0))
        duplicate = void or (miss != "loop" and rng.random() < 0.6)
        odd = rng.randrange(b)  # the branch a near miss sets apart

        fir, shape = self._fresh("SibFir"), self._fresh("SibShape")
        self.decls.append(f"""\
float->float filter {fir}(float f, float ph, int dec) {{
    float[{taps}] h;
    init {{
        for (int i = 0; i < {taps}; i++) {{
            h[i] = sin(f * i + ph) / {taps};
        }}
    }}
    work peek (max({taps}, 1 + dec)) pop (1 + dec) push 1 {{
        float sum = 0.0;
        for (int i = 0; i < {taps}; i++) {{
            sum = sum + h[i] * peek(i);
        }}
        push(sum);
        for (int i = 0; i < 1 + dec; i++) {{
            pop();
        }}
    }}
}}
""")
        # soft limiter toward t (continuous where it branches), then a
        # per-branch gain
        self.decls.append(f"""\
float->float filter {shape}(float g, int k, int reps) {{
    float gain = g;
    int loops = k;
    work peek 1 pop 1 push (reps) {{
        float x = pop();
        float y = x;
        if (x > {t}) {{
            for (int i = 0; i < loops; i++) {{
                y = y - 0.5 * (y - {t});
            }}
        }}
        for (int i = 0; i < reps; i++) {{
            push(gain * y);
        }}
    }}
}}
""")
        self._count("filter")
        self._count("filter")
        stages = [f"add {fir}(f, ph, dec);"]
        if miss == "prework":
            stages.append(f"add {self._delay()[0]}();")
        inner = (1, 1)  # rates of what sits between the two filters
        if miss == "nested":
            name, *inner = self._siblings(miss=None)
            stages.append(f"add {name}();")
        stages.append(f"add {shape}(g, k, reps);")
        kind = "float"
        if void:
            kind = "void"
            src = self._fresh("SibSrc")
            self.decls.append(f"""\
void->float filter {src}(float w, float ph) {{
    int n;
    float phase = ph;
    work push 1 {{
        push(sin(w * n + phase));
        n = n + 1;
    }}
}}
""")
            self._count("filter")
            stages.insert(0, f"add {src}({self._lit(rng.uniform(0.05, 0.9))}"
                             ", ph);")
        branch = self._fresh("SibBranch")
        body = "\n".join("    " + line for line in stages)
        self.decls.append(
            f"{kind}->float pipeline {branch}(float f, float ph, float g, "
            f"int dec, int k, int reps) {{\n{body}\n}}\n")
        self._count("pipeline")

        adds, rates = [], []
        for j in range(b):
            d, k, r = dec, loops, reps
            if j == odd:
                if miss == "rates":  # 2 -> 2 next to 1 -> 1: equal weights
                    d, r = 1, 2
                elif miss == "weights":
                    r += 1
                elif miss == "int field":
                    k += 1
            adds.append(
                f"    add {branch}({self._lit(rng.uniform(0.3, 1.2))}, "
                f"{self._lit(rng.uniform(0.0, 3.0))}, "
                f"{self._lit(rng.uniform(0.4, 1.5))}, {d}, {k}, {r});")
            rates.append(_compose(_compose((1 + d, 1), inner), (1, r)))
        name = self._fresh("Siblings")
        if duplicate:
            lcm = math.lcm(*(p for p, _ in rates))
            weights = [q * (lcm // p) for p, q in rates]
            pop, split = lcm, "split duplicate;"
        else:
            weights = [q for _, q in rates]
            pop = sum(p for p, _ in rates)
            split = ("split roundrobin("
                     + ", ".join(str(p) for p, _ in rates) + ");")
        join = "join roundrobin(" + ", ".join(map(str, weights)) + ");"
        self.decls.append(
            f"{kind}->float splitjoin {name} {{\n    {split}\n"
            + "\n".join(adds) + f"\n    {join}\n}}\n")
        self._count("siblings")
        if miss != "loop":
            return name, *_reduce(pop, sum(weights))
        # the echo template with the siblings behind its mixer
        mix, _, _ = self._map_mixer()
        damp, _, _ = self._damp()
        body = self._fresh("Pipe")
        self.decls.append(f"float->float pipeline {body} {{\n"
                          f"    add {mix}();\n    add {name}();\n}}\n")
        self._count("pipeline")
        loop = self._fresh("Loop")
        enq = "\n".join(
            f"    enqueue {self._lit(rng.uniform(-0.5, 0.5))};"
            for _ in range(rng.randint(1, 6)))
        self.decls.append(f"""\
float->float feedbackloop {loop} {{
    join roundrobin(1, 1);
    body {body}();
    loop {damp}();
    split roundrobin(1, 1);
{enq}
}}
""")
        self._count("feedbackloop")
        return loop, 1, 1

    def _stream(self, depth: int) -> tuple[str, int, int]:
        if depth <= 0:
            return self._leaf()
        roll = self.rng.random()
        if roll < 0.35:
            return self._leaf()
        if roll < 0.60:
            return self._pipeline(depth)
        if roll < 0.68:
            return self._mixed()
        if roll < 0.80:
            return self._splitjoin(depth)
        if roll < 0.90:
            return self._siblings()
        return self._feedback()

    def _source(self) -> str:
        rng = self.rng
        name = self._fresh("Src")
        kind = rng.randrange(4)
        if kind < 2:
            period = rng.randint(3, 12)
            amp = self._lit(rng.uniform(0.5, 2.0))
            self.decls.append(f"""\
void->float filter {name} {{
    float[{period}] table;
    int idx;
    init {{
        for (int i = 0; i < {period}; i++) {{
            table[i] = {amp} * sin(0.9 * i);
        }}
    }}
    work push 1 {{
        push(table[idx]);
        idx = (idx + 1) % {period};
    }}
}}
""")
        elif kind == 2:  # additive int counter
            w = self._lit(rng.uniform(0.05, 0.9))
            self.decls.append(f"""\
void->float filter {name} {{
    int n;
    work push 1 {{
        push(cos({w} * n));
        n = n + 1;
    }}
}}
""")
        else:  # additive float counter, read after its update
            w = self._lit(rng.uniform(0.05, 0.9))
            self.decls.append(f"""\
void->float filter {name} {{
    float phase;
    work push 1 {{
        phase = phase + {w};
        push(sin(phase));
    }}
}}
""")
        self._count("filter")
        return name


def generate(seed: int, max_depth: int = 3) -> FuzzProgram:
    """Deterministically generate one program from ``seed``."""
    rng = random.Random(seed)
    gen = _Gen(rng, max_depth)
    src = (gen._siblings(void=True)[0] if rng.random() < 0.15
           else gen._source())
    body, pop, push = gen._stream(max_depth)
    gen.decls.append(
        f"void->float pipeline {TOP} {{\n    add {src}();\n"
        f"    add {body}();\n}}\n")
    return FuzzProgram(seed=seed, source="\n".join(gen.decls),
                       pop=pop, push=push, census=dict(gen.census))


def _wrap(program: FuzzProgram) -> Pipeline:
    graph = compile_source(program.source, program.top)
    return Pipeline(list(graph.children) + [Collector("FuzzSink")],
                    name=graph.name)


def _run(program: FuzzProgram, n_outputs: int, backend: str,
         optimize: str = "none") -> list[float]:
    return run_graph(_wrap(program), n_outputs, backend=backend,
                     optimize=optimize)


def _run_plan(program: FuzzProgram, n_outputs: int, optimize: str,
              policy=None, workers: int = 1, profiler=None,
              calls: int = 1) -> np.ndarray:
    """Plan-backend run, under a numeric policy or on the parallel
    engine (``workers`` processes) if asked, counting into ``profiler``
    if given.  Adds the keys of the session's
    :meth:`~repro.exec.planner.PlanReport.census`, taken after the run,
    to the program's :attr:`~FuzzProgram.kernels`.

    ``calls > 1`` takes the outputs in that many equal calls (the last
    also takes the remainder), the calls from ``calls // 2`` on in a
    fresh session restored from the first one's snapshot, and adds to
    the census whether the compile hit the plan cache."""
    from ..exec import PLAN_CACHE
    from ..session import StreamSession

    policy = resolve_policy(policy)
    hits = PLAN_CACHE.hits

    def compiled():
        return StreamSession(_wrap(program), backend="plan",
                             optimize=optimize, dtype=policy,
                             profiler=profiler, workers=workers,
                             _program_mode=True)

    session = compiled()
    if calls > 1:
        for key, n in (("resumed", 1), ("hit", PLAN_CACHE.hits - hits)):
            program.census[key] = program.census.get(key, 0) + n
    try:
        size = n_outputs // calls
        sizes = [size] * (calls - 1) + [n_outputs - size * (calls - 1)]
        parts = [session.run(k) for k in sizes[:calls // 2]]
        if calls > 1:  # the rest in a fresh session, restored
            snap = session.snapshot()
            session.close()
            session = compiled()
            session.restore(snap)
        parts += [session.run(k) for k in sizes[calls // 2:]]
        program.kernels.update(session.report().census())
        return np.concatenate(parts)
    finally:
        session.close()


def check_program(program: FuzzProgram, n_outputs: int = 64,
                  optimize: str = "none", dtype=None,
                  workers: int = 1) -> Mismatch | None:
    """Run one program through all three backends; ``None`` means OK.

    ``optimize`` additionally reruns the plan backend with that rewrite
    pipeline (at the same 1e-9 tolerance) when not ``"none"``.

    ``dtype`` additionally runs the plan backend under that numeric
    policy and compares against the float64 interp reference at the
    policy's documented tolerances (``policy.rtol``/``policy.atol``) —
    the differential contract of reduced-precision execution.

    ``workers`` > 1 additionally runs every plan mode on the parallel
    engine and holds it to the same 1e-9 contract against the interp
    reference (region scheduling and data-parallel fission must not
    change observable outputs).
    """
    policy = resolve_policy(dtype)
    try:
        for leaf in walk(_wrap(program)):
            if isinstance(leaf, Filter) and leaf.pop:
                node = extract_filter(leaf).node
                verdict = ("rejected" if node is None else
                           "k>0" if node.state_dim else "k=0")
                program.census[verdict] = program.census.get(verdict, 0) + 1
        reference = _run(program, n_outputs, "interp")
    except Exception:
        return Mismatch(program, "run:interp", traceback.format_exc())

    try:
        compiled = _run(program, n_outputs, "compiled")
    except Exception:
        return Mismatch(program, "run:compiled", traceback.format_exc())
    if compiled != reference:
        delta = max(abs(a - b) for a, b in zip(reference, compiled))
        return Mismatch(program, "diverge:compiled",
                        f"interp vs compiled max|delta| = {delta!r}")

    plan_modes = ["none"] + ([optimize] if optimize != "none" else [])
    for mode in plan_modes:
        one_call = Profiler()
        try:
            plan = _run_plan(program, n_outputs, mode, profiler=one_call)
        except Exception:
            return Mismatch(program, f"run:plan/{mode}",
                            traceback.format_exc())
        if not np.allclose(plan, reference,
                           rtol=PLAN_RTOL, atol=PLAN_ATOL):
            delta = float(np.max(np.abs(np.asarray(plan)
                                        - np.asarray(reference))))
            return Mismatch(program, f"diverge:plan/{mode}",
                            f"interp vs plan max|delta| = {delta!r}")
        resumed = Profiler()
        where = f"plan/{mode}/{RESUMED_CALLS} calls"
        try:
            split = _run_plan(program, n_outputs, mode, profiler=resumed,
                              calls=RESUMED_CALLS)
        except Exception:
            return Mismatch(program, f"run:{where}", traceback.format_exc())
        if not np.allclose(split, plan, rtol=PLAN_RTOL, atol=PLAN_ATOL):
            delta = float(np.max(np.abs(split - plan)))
            return Mismatch(program, f"diverge:{where}",
                            f"one call vs {RESUMED_CALLS} max|delta| = "
                            f"{delta!r}")
        if resumed.counts != one_call.counts:
            return Mismatch(program, f"counts:{where}",
                            f"one call {one_call.counts} vs "
                            f"{RESUMED_CALLS} calls {resumed.counts}")
        program.census["restored"] = program.census.get("restored", 0) + 1
        if workers > 1:
            try:
                par = _run_plan(program, n_outputs, mode, workers=workers)
            except Exception:
                return Mismatch(program,
                                f"run:plan/{mode}/workers{workers}",
                                traceback.format_exc())
            ref = np.asarray(reference, dtype=np.float64)
            if not np.allclose(par, ref, rtol=PLAN_RTOL, atol=PLAN_ATOL):
                delta = float(np.max(np.abs(par - ref)))
                return Mismatch(
                    program, f"diverge:plan/{mode}/workers{workers}",
                    f"interp vs plan(workers={workers}) "
                    f"max|delta| = {delta!r}")
        if not policy.is_default:
            try:
                typed = _run_plan(program, n_outputs, mode, policy)
            except Exception:
                return Mismatch(program, f"run:plan/{mode}/{policy.name}",
                                traceback.format_exc())
            ref = np.asarray(reference, dtype=np.float64)
            if not np.allclose(typed.astype(np.complex128
                                            if policy.is_complex
                                            else np.float64), ref,
                               rtol=policy.rtol, atol=policy.atol):
                delta = float(np.max(np.abs(typed - ref)))
                return Mismatch(
                    program, f"diverge:plan/{mode}/{policy.name}",
                    f"interp(f64) vs plan({policy.name}) "
                    f"max|delta| = {delta!r} "
                    f"(rtol={policy.rtol}, atol={policy.atol})")
    return None


def run_fuzz(count: int, seed: int = 0, max_depth: int = 3,
             n_outputs: int = 64, optimize: str = "none",
             dtype=None, workers: int = 1, stop_on_first: bool = True,
             progress=None) -> list[Mismatch]:
    """Fuzz ``count`` programs; return every mismatch found."""
    mismatches: list[Mismatch] = []
    for i in range(count):
        program = generate(seed * 1_000_003 + i, max_depth=max_depth)
        bad = check_program(program, n_outputs=n_outputs,
                            optimize=optimize, dtype=dtype,
                            workers=workers)
        if bad is not None:
            mismatches.append(bad)
            if stop_on_first:
                break
        if progress is not None:
            progress(i + 1, program)
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dsl.fuzz",
        description="Differentially fuzz the DSL frontend across the "
                    "interp, compiled and plan backends.")
    parser.add_argument("--count", type=int, default=200,
                        help="programs to generate (default 200)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed (default 0)")
    parser.add_argument("--max-depth", type=int, default=3,
                        help="composite nesting bound (default 3)")
    parser.add_argument("--outputs", type=int, default=64,
                        help="samples to collect per program (default 64)")
    parser.add_argument("--optimize", default="none",
                        choices=("none", "linear", "freq", "auto"),
                        help="also differentially test this rewrite "
                             "pipeline under the plan backend")
    parser.add_argument("--dtype", default=None, choices=DTYPE_CHOICES,
                        help="also run the plan backend under this "
                             "numeric policy, compared to the float64 "
                             "interp reference at the policy's "
                             "tolerances (real policies only: the "
                             "fuzzer's nonlinear constructs — atan, "
                             "clips — are undefined on complex samples; "
                             "complex policies are covered by the "
                             "linear-app differential suite)")
    parser.add_argument("--workers", type=int, default=1,
                        help="also run every plan mode on the parallel "
                             "engine with this many worker processes, "
                             "held to the same 1e-9 differential "
                             "contract (default 1: skip)")
    parser.add_argument("--keep-going", action="store_true",
                        help="report every mismatch instead of stopping "
                             "at the first")
    parser.add_argument("--print-source", action="store_true",
                        help="dump each generated program to stdout")
    args = parser.parse_args(argv)
    if args.dtype is not None and resolve_policy(args.dtype).is_complex:
        parser.error("--dtype must be a real policy (f32/f64): the "
                     "fuzzer generates nonlinear real-valued programs")
    if args.workers < 1:
        parser.error("--workers must be a positive integer")

    census, kernels = Counter(), Counter()

    def progress(done: int, program: FuzzProgram) -> None:
        census.update(program.census)
        kernels.update(program.kernels)
        if args.print_source:
            print(f"// ---- seed {program.seed} ----")
            print(program.source)
        if done % 50 == 0 or done == args.count:
            print(f"[fuzz] {done}/{args.count} programs OK")

    mismatches = run_fuzz(args.count, seed=args.seed,
                          max_depth=args.max_depth,
                          n_outputs=args.outputs,
                          optimize=args.optimize,
                          dtype=args.dtype,
                          workers=args.workers,
                          stop_on_first=not args.keep_going,
                          progress=progress)
    if mismatches:
        for bad in mismatches:
            print(bad.render(), file=sys.stderr)
        print(f"[fuzz] FAILED: {len(mismatches)} mismatch(es)",
              file=sys.stderr)
        return 1
    hit, resumed = census.pop("hit", 0), census.pop("resumed", 0)
    restored = census.pop("restored", 0)
    leaves = " / ".join(f"{census.pop(verdict, 0)} {verdict}"
                        for verdict in ("k=0", "k>0", "rejected"))
    shape = ", ".join(f"{n} {kind}" for kind, n in sorted(census.items()))
    reach = ", ".join(f"{n} {key}" for key, n in sorted(kernels.items()))
    print(f"[fuzz] OK: {args.count} programs, 0 mismatches ({shape}; "
          f"non-source leaves {leaves}; programs per plan kernel: {reach}; "
          f"{hit}/{resumed} resumed runs compiled on a plan-cache hit; "
          f"{restored}/{resumed} restored runs matched)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
