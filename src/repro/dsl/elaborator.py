"""Elaboration: DSL AST -> stream graphs with IR work functions.

Filters instantiate with concrete parameter values: field initializers
fold over constants and ``init`` blocks run once as generated Python
(:func:`~repro.ir.pycodegen.compile_work`, the ``compiled`` backend's
emitter — exactly how StreamIt resolves coefficients at compile time),
work-function bodies lower to the IR, and I/O rates are constant-folded.
Composite bodies (pipelines, splitjoins, feedbackloops) are structural
programs over constants: ``add`` statements, ``for`` loops, and ``if``
over parameters execute at elaboration time.
"""

from __future__ import annotations

import numpy as np

from ..errors import Diagnostic, DSLError, SourceSpan
from ..graph.streams import (Duplicate, FeedbackLoop, Filter, Pipeline,
                             RoundRobin, SplitJoin, Stream)
from ..ir import nodes as N
from ..ir.pycodegen import compile_work
from . import ast
from .parser import parse

_COMPOUND_OPS = {"+=": "+", "-=": "-", "*=": "*", "/=": "/"}


def _err(code: str, message: str, span: SourceSpan | None = None,
         hint: str | None = None):
    """Raise a DSLError carrying one coded, source-located diagnostic."""
    raise DSLError(diagnostics=(Diagnostic(code, message, span, hint),))


def _const_eval(expr: ast.Expr, env: dict) -> float | int:
    """Evaluate a structural/rate expression over constants."""
    if isinstance(expr, ast.Num):
        return expr.value
    if isinstance(expr, ast.Name):
        if expr.ident in env:
            v = env[expr.ident]
            if isinstance(v, (int, float)):
                return v
        _err("elab-not-constant",
             f"{expr.ident!r} is not a constant here", expr.span,
             hint="only parameters and loop indices are usable here")
    if isinstance(expr, ast.BinOp):
        a = _const_eval(expr.left, env)
        b = _const_eval(expr.right, env)
        if expr.op == "%":  # structural code: Python's floored remainder
            return a % b
        return N.FOLD[expr.op](a, b)
    if isinstance(expr, ast.UnOp):
        v = _const_eval(expr.operand, env)
        return -v if expr.op == "-" else int(not v)
    if isinstance(expr, ast.CallExpr):
        if expr.fn not in N.INTRINSICS:
            _err("elab-unknown-function",
                 f"unknown function {expr.fn!r}", expr.span)
        return N.INTRINSIC_IMPL[expr.fn](
            *(_const_eval(a, env) for a in expr.args))
    if isinstance(expr, ast.IndexExpr):
        arr = env.get(expr.base)
        if arr is None:
            _err("elab-unknown-array",
                 f"unknown array {expr.base!r}", expr.span)
        return arr[int(_const_eval(expr.index, env))]
    _err("elab-not-constant",
         f"{type(expr).__name__} expression is not constant", expr.span)


def _lower_expr(expr: ast.Expr, consts: dict) -> N.Expr:
    """Lower a work-body expression to IR, folding parameter names.

    Operations whose operands are all constants fold at elaboration
    time (exactly as the Python graph builders precompute them), so
    e.g. a ``2 * dec`` loop bound costs nothing at run time and the
    FLOP accounting matches a hand-built graph op for op.
    """
    if isinstance(expr, ast.Num):
        return N.Const(expr.value)
    if isinstance(expr, ast.Name):
        if expr.ident in consts:
            return N.Const(consts[expr.ident])
        return N.Var(expr.ident)
    if isinstance(expr, ast.BinOp):
        left = _lower_expr(expr.left, consts)
        right = _lower_expr(expr.right, consts)
        if isinstance(left, N.Const) and isinstance(right, N.Const):
            return N.Const(N.FOLD[expr.op](left.value, right.value))
        return N.Bin(expr.op, left, right)
    if isinstance(expr, ast.UnOp):
        operand = _lower_expr(expr.operand, consts)
        if isinstance(operand, N.Const):
            return N.Const(-operand.value if expr.op == "-"
                           else int(not operand.value))
        return N.Un(expr.op, operand)
    if isinstance(expr, ast.CallExpr):
        if expr.fn not in N.INTRINSICS:
            _err("elab-unknown-function",
                 f"unknown function {expr.fn!r} in work body", expr.span)
        args = tuple(_lower_expr(a, consts) for a in expr.args)
        if all(isinstance(a, N.Const) for a in args):
            return N.Const(N.INTRINSIC_IMPL[expr.fn](
                *(a.value for a in args)))
        return N.Call(expr.fn, args)
    if isinstance(expr, ast.IndexExpr):
        return N.Index(expr.base, _lower_expr(expr.index, consts))
    if isinstance(expr, ast.PeekExpr):
        return N.Peek(_lower_expr(expr.index, consts))
    if isinstance(expr, ast.PopExpr):
        return N.Pop()
    _err("elab-bad-expr",
         f"cannot lower {type(expr).__name__} expression", expr.span)


def _lower_stmt(stmt: ast.Stmt, consts: dict) -> N.Stmt:
    if isinstance(stmt, ast.VarDecl):
        size = None
        if stmt.size is not None:
            size = int(_const_eval(stmt.size, consts))
        init = _lower_expr(stmt.init, consts) if stmt.init is not None \
            else None
        return N.Decl(stmt.name, stmt.ty, size, init)
    if isinstance(stmt, ast.AssignStmt):
        target = _lower_expr(stmt.target, consts)
        if not isinstance(target, (N.Var, N.Index)):
            _err("elab-bad-assign", "assignment to a constant parameter",
                 stmt.span)
        value = _lower_expr(stmt.value, consts)
        if stmt.op != "=":
            value = N.Bin(_COMPOUND_OPS[stmt.op], target, value)
        return N.Assign(target, value)
    if isinstance(stmt, ast.PushStmt):
        return N.PushS(_lower_expr(stmt.value, consts))
    if isinstance(stmt, ast.PopStmt):
        return N.PopS()
    if isinstance(stmt, ast.ExprStmt):
        expr = _lower_expr(stmt.expr, consts)
        if isinstance(expr, N.Pop):
            return N.PopS()
        _err("elab-bad-stmt",
             "expression statements other than pop() are side-effect free",
             stmt.span)
    if isinstance(stmt, ast.IfStmt):
        return N.If(_lower_expr(stmt.cond, consts),
                    tuple(_lower_stmt(s, consts) for s in stmt.then),
                    tuple(_lower_stmt(s, consts) for s in stmt.orelse))
    if isinstance(stmt, ast.ForStmt):
        return N.For(stmt.var,
                     _lower_expr(stmt.start, consts),
                     _lower_expr(stmt.stop, consts),
                     tuple(_lower_stmt(s, consts) for s in stmt.body),
                     _lower_expr(stmt.step, consts))
    _err("elab-bad-stmt",
         f"statement {type(stmt).__name__} not allowed in a work body",
         stmt.span)


def _no_tape(verb: str):
    def refuse(*_):
        _err("elab-init-io", f"init blocks cannot {verb}")
    return refuse


#: the ``peek, pop, push`` an ``init`` block runs against
_INIT_TAPE = tuple(map(_no_tape, ("peek", "pop", "push")))


def _no_flops(**counts):
    """Nobody counts what ``init`` computes."""


class Elaborator:
    """Instantiates streams from a parsed Program."""

    def __init__(self, program: ast.Program):
        self.program = program
        #: (filter name, its scalar constants) -> (init, work, prework)
        self._code: dict[tuple, tuple] = {}

    def instantiate(self, name: str, *args) -> Stream:
        decl = self.program.decls.get(name)
        if decl is None:
            known = ", ".join(self.program.order) or "none"
            _err("elab-unknown-stream", f"unknown stream {name!r}",
                 hint=f"declared streams: {known}")
        params = decl.params
        if len(args) != len(params):
            _err("elab-arity",
                 f"{name} expects {len(params)} argument(s), "
                 f"got {len(args)}", decl.span,
                 hint="(" + ", ".join(
                     f"{p.ty} {p.name}" for p in params) + ")")
        env = {}
        for param, arg in zip(params, args):
            if param.size is not None or isinstance(arg, (list, np.ndarray)):
                env[param.name] = np.asarray(arg, dtype=float)
            elif param.ty == "int":
                env[param.name] = int(arg)
            else:
                env[param.name] = float(arg)
        if isinstance(decl, ast.FilterDecl):
            return self._elaborate_filter(decl, env)
        return self._elaborate_composite(decl, env)

    # -- filters ------------------------------------------------------
    def _elaborate_filter(self, decl: ast.FilterDecl, env: dict) -> Filter:
        # 1. build the field store and run init
        fields: dict = {}
        scalar_consts = {k: v for k, v in env.items()
                         if isinstance(v, (int, float))}
        for fd in decl.fields:
            if fd.size is not None:
                size = int(_const_eval(fd.size, scalar_consts))
                fields[fd.name] = (np.zeros(size) if fd.ty == "float"
                                   else np.zeros(size, dtype=int))
            elif fd.init is not None:
                v = _const_eval(fd.init, {**scalar_consts, **fields})
                fields[fd.name] = float(v) if fd.ty == "float" else int(v)
            else:
                fields[fd.name] = 0.0 if fd.ty == "float" else 0
        # array parameters become coefficient fields
        for k, v in env.items():
            if isinstance(v, np.ndarray):
                fields[k] = v.copy()
        # 2. the code: lowered (and init compiled) once per distinct set
        # of constants, then shared — IR is immutable, and the twelve
        # identical stages of a filter bank are one work function
        key = (decl.name, tuple(scalar_consts.items()))
        code = self._code.get(key)
        init = code[0] if code is not None else self._compile_init(
            decl, scalar_consts, fields)
        if init is not None:
            init(*_INIT_TAPE, fields, _no_flops)
            # a scalar field keeps its declared type whatever init
            # assigned it (an int, or a NumPy scalar read from an array)
            for fd in decl.fields:
                if fd.size is None:
                    value = fields[fd.name]
                    fields[fd.name] = float(value) if fd.ty == "float" \
                        else int(value)
        if code is None:
            code = self._code[key] = (
                init, *self._lower_works(decl, scalar_consts))
        _, work, prework = code
        mutable = N.assigned_names(work.body) & set(fields)
        if prework is not None:
            mutable |= N.assigned_names(prework.body) & set(fields)
        return Filter(decl.name, work, prework, fields,
                      frozenset(mutable))

    @staticmethod
    def _compile_init(decl: ast.FilterDecl, scalar_consts: dict,
                      fields: dict):
        """``decl.init`` as a callable over a field store of ``fields``'
        names and types, or None."""
        if not decl.init:
            return None
        body = tuple(_lower_stmt(s, scalar_consts) for s in decl.init)
        return compile_work(N.WorkFunction(0, 0, 0, body), fields,
                            f"{decl.name}_init")

    @staticmethod
    def _lower_works(decl: ast.FilterDecl, scalar_consts: dict):
        """``(work, prework)`` of ``decl`` lowered over its constants."""
        work = prework = None
        for wd in decl.works:
            rates = {}
            for which, expr in (("peek", wd.peek), ("pop", wd.pop),
                                ("push", wd.push)):
                if expr is None:
                    rates[which] = 0
                    continue
                value = _const_eval(expr, scalar_consts)
                if value != int(value) or int(value) < 0:
                    _err("elab-bad-rate",
                         f"{which} rate of filter {decl.name!r} must be "
                         f"a non-negative integer, got {value!r}",
                         expr.span)
                rates[which] = int(value)
            if wd.peek is None:
                rates["peek"] = rates["pop"]
            body = tuple(_lower_stmt(s, scalar_consts) for s in wd.body)
            wf = N.WorkFunction(max(rates["peek"], rates["pop"]),
                                rates["pop"], rates["push"], body)
            if wd.kind == "work":
                work = wf
            else:
                prework = wf
        if work is None:
            _err("elab-no-work",
                 f"filter {decl.name} has no steady work", decl.span)
        return work, prework

    # -- composites -----------------------------------------------------
    def _elaborate_composite(self, decl: ast.CompositeDecl,
                             env: dict) -> Stream:
        children: list[Stream] = []
        splitter = None
        join_weights = None
        body_stream = None
        loop_stream = None
        enqueued: list[float] = []
        scalars = dict(env)

        def run_body(stmts):
            nonlocal splitter, join_weights, body_stream, loop_stream
            for stmt in stmts:
                if isinstance(stmt, ast.AddStmt):
                    args = [_const_eval(a, scalars) for a in stmt.args]
                    children.append(self.instantiate(stmt.stream, *args))
                elif isinstance(stmt, ast.SplitDecl):
                    if stmt.kind == "duplicate":
                        splitter = Duplicate()
                    else:
                        splitter = RoundRobin(
                            _weights(stmt, scalars, "split"))
                elif isinstance(stmt, ast.JoinDecl):
                    join_weights = _weights(stmt, scalars, "join")
                elif isinstance(stmt, ast.BodyDecl):
                    args = [_const_eval(a, scalars) for a in stmt.args]
                    body_stream = self.instantiate(stmt.stream, *args)
                elif isinstance(stmt, ast.LoopDecl):
                    args = [_const_eval(a, scalars) for a in stmt.args]
                    loop_stream = self.instantiate(stmt.stream, *args)
                elif isinstance(stmt, ast.EnqueueStmt):
                    enqueued.append(float(_const_eval(stmt.value, scalars)))
                elif isinstance(stmt, ast.ForStmt):
                    i = _const_eval(stmt.start, scalars)
                    step = _const_eval(stmt.step, scalars)
                    while (i < _const_eval(stmt.stop, scalars)
                           if step > 0 else
                           i > _const_eval(stmt.stop, scalars)):
                        scalars[stmt.var] = i
                        run_body(stmt.body)
                        i = scalars[stmt.var] + step
                    scalars[stmt.var] = i
                elif isinstance(stmt, ast.IfStmt):
                    if _const_eval(stmt.cond, scalars):
                        run_body(stmt.then)
                    else:
                        run_body(stmt.orelse)
                elif isinstance(stmt, ast.VarDecl):
                    v = _const_eval(stmt.init, scalars) \
                        if stmt.init is not None else 0
                    scalars[stmt.name] = int(v) if stmt.ty == "int" \
                        else float(v)
                elif isinstance(stmt, ast.AssignStmt):
                    if not isinstance(stmt.target, ast.Name):
                        _err("elab-bad-stmt",
                             "structural assignment must be to a scalar",
                             stmt.span)
                    v = _const_eval(stmt.value, scalars)
                    if stmt.op != "=":
                        base = scalars[stmt.target.ident]
                        v = _const_eval(
                            ast.BinOp(_COMPOUND_OPS[stmt.op],
                                      ast.Num(base), ast.Num(v)), {})
                    scalars[stmt.target.ident] = v
                else:
                    _err("elab-bad-stmt",
                         f"{type(stmt).__name__} not allowed in a "
                         f"{decl.kind} body", stmt.span)

        run_body(decl.body)

        if decl.kind == "pipeline":
            if not children:
                _err("elab-empty-pipeline",
                     f"pipeline {decl.name} adds no streams", decl.span)
            return Pipeline(children, name=decl.name)
        if decl.kind == "splitjoin":
            if splitter is None or join_weights is None:
                _err("elab-missing-split-join",
                     f"splitjoin {decl.name} needs split and join",
                     decl.span)
            if len(join_weights) == 1 and len(children) > 1:
                join_weights = tuple([join_weights[0]] * len(children))
            if isinstance(splitter, RoundRobin) and \
                    len(splitter.weights) == 1 and len(children) > 1:
                splitter = RoundRobin(
                    tuple([splitter.weights[0]] * len(children)))
            return SplitJoin(splitter, children, RoundRobin(join_weights),
                             name=decl.name)
        # feedbackloop
        if body_stream is None or loop_stream is None or \
                join_weights is None or splitter is None:
            _err("elab-missing-split-join",
                 f"feedbackloop {decl.name} needs join, body, "
                 f"loop and split", decl.span)
        if isinstance(splitter, Duplicate):
            _err("elab-bad-splitter",
                 "feedbackloop splitter must be roundrobin", decl.span)
        return FeedbackLoop(body_stream, loop_stream,
                            RoundRobin(join_weights),
                            RoundRobin(splitter.weights), enqueued,
                            name=decl.name)


def _weights(stmt, scalars, which: str) -> tuple[int, ...]:
    """Const-eval roundrobin weights, validating positive integers."""
    out = []
    for w in stmt.weights:
        value = _const_eval(w, scalars)
        if value != int(value) or int(value) < 0:
            _err("elab-bad-rate",
                 f"{which} roundrobin weight must be a non-negative "
                 f"integer, got {value!r}", w.span)
        out.append(int(value))
    return tuple(out) or (1,)


def compile_source(source: str, top: str | None = None, *args) -> Stream:
    """Parse + elaborate DSL source; instantiate ``top`` (or the last
    declared stream) with ``args``.

    Elaboration errors surface as :class:`DSLError` with the source
    text attached, so ``e.render()`` shows caret snippets.
    """
    program = parse(source)
    if not program.order:
        raise DSLError(diagnostics=(
            Diagnostic("elab-empty-program",
                       "no stream declarations found"),), source=source)
    elab = Elaborator(program)
    try:
        return elab.instantiate(
            top if top is not None else program.order[-1], *args)
    except DSLError as e:
        if e.source is None:
            e.source = source
        raise
