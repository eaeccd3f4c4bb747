"""Compile-to-closures backend: the lazy machine's fast path.

``Machine(backend="compiled")`` lowers each expression ONCE into a tree
of Python closures before running it, instead of re-``isinstance``-
dispatching on every AST node at every step.  The pipeline:

* a **resolver** computes, at each binder, the free variables of the
  scope being built and assigns every binding a fixed slot index;
* **environments become frames** — flat tuples of heap cells indexed
  by those slots (:mod:`repro.machine.frames`) — instead of
  string-keyed dicts copied wholesale on every application;
* **closures capture only their pruned free-variable slice**, in
  sorted name order, so application builds a frame of exactly
  ``1 + len(captures)`` slots;
* **top-level and prelude bindings resolve at compile time**: the
  compiler bakes the global environment's cells (built once per
  machine by ``machine_env``/``program_env``) directly into the
  generated code, so a global reference costs an attribute load, not a
  dict lookup;
* the **driver is an explicit work-loop**: application, ``let`` and
  case-alternative *tails* return a ``(code, frame)`` continuation to
  :func:`_run` instead of recursing, so spine-tail-recursive object
  programs use O(1) Python stack and the compiled path does not need
  the AST backend's 200k ``sys.setrecursionlimit`` bump.

The observable contract is the AST backend's, **exactly**: the same
``Cell`` heap (so ``ObjRaise`` trimming, thunk memoisation,
blackholing and async-resume semantics are shared code, not
re-implementations), the same strategy-ordered strict primitives
(stateful strategies like ``Shuffled`` are consulted per execution;
stateless ones are baked at compile time), the same fuel/async-event
ticks, and the same ``MachineStats`` counters and ``TraceSink`` event
stream node for node.  "Tracing is free when off" survives: every
generated code object ticks with the interpreter's one increment and
one compare against the machine's step watermark (``_watch``: the next
step any consumer — fuel, event plan, sink, governor, fault plan,
slice gate — needs), checks its allocations against the allocation
watermark, and guards emission with ``_tracing``, just like the
interpreter.

``tests/machine/test_backends.py`` pins outcome + counter parity and
``benchmarks/bench_compiled.py`` (E13) records the speedup.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Optional, Tuple

from repro.core.excset import DIVIDE_BY_ZERO, OVERFLOW, PATTERN_MATCH_FAIL
from repro.lang.ast import (
    App,
    Case,
    Con,
    Expr,
    Fix,
    Lam,
    Let,
    Lit,
    PCon,
    PLit,
    PrimOp,
    PVar,
    PWild,
    Raise,
    Var,
)
from repro.lang.names import free_vars
from repro.lang.ops import INT_MAX, INT_MIN
from repro.machine.eval import Machine, MachineError, _IO_TAGS
from repro.machine.frames import CClosure
from repro.machine.heap import Cell, ObjRaise
from repro.machine.values import VCon, VInt, VIO, VStr, Value
from repro.obs.events import ALLOC, PRIM_RAISE, RAISE

# A code object: called with (machine, frame), returns either a Value
# or a (code, frame) continuation for the work-loop to enter.
Code = Callable[["Machine", tuple], object]


def _run(machine: Machine, code: Code, frame) -> Value:
    """The work-loop.  Tails (application bodies, let bodies, case-alt
    bodies, ``seq``'s second argument) come back as ``(code, frame)``
    pairs and are entered iteratively — the compiled analogue of the
    interpreter's ``continue`` into its dispatch loop, minus the
    Python stack frame per step.  Hot generated code inlines this loop
    at each nested-evaluation site; this function is the entry point
    for cold paths."""
    result = code(machine, frame)
    while result.__class__ is tuple:
        code, frame = result
        result = code(machine, frame)
    return result


# -- generated tuple constructors ---------------------------------------
#
# Frames are built from slot picks out of the enclosing frame (plus
# pattern/let bindings).  A genexpr-into-tuple per construction costs a
# generator frame per element; since the slot lists are fixed at
# compile time we generate a direct constructor instead, e.g.
# ``lambda a, f: (a[0], a[2], f[1])``.


def _capturer(cap_src: Tuple[int, ...]):
    """f -> the pruned capture tuple."""
    parts = ", ".join(f"f[{j}]" for j in cap_src)
    return eval(f"lambda f: ({parts},)")


def _binder1(cap_src: Tuple[int, ...]):
    """(cell, f) -> frame with one binding in slot 0."""
    parts = ", ".join(["c"] + [f"f[{j}]" for j in cap_src])
    return eval(f"lambda c, f: ({parts},)")


def _picker(field_idx: Tuple[int, ...], cap_src: Tuple[int, ...]):
    """(constructor args, f) -> case-alt frame."""
    parts = ", ".join(
        [f"a[{i}]" for i in field_idx] + [f"f[{j}]" for j in cap_src]
    )
    return eval(f"lambda a, f: ({parts},)")


def _let_framer(n_binds: int, cap_src: Tuple[int, ...]):
    """(bind cells, f) -> let frame."""
    parts = ", ".join(
        [f"c[{i}]" for i in range(n_binds)] + [f"f[{j}]" for j in cap_src]
    )
    return eval(f"lambda c, f: ({parts},)")


# -- specialised strict appliers ----------------------------------------
#
# The interpreter funnels every strict primitive through the
# `_apply_prim` string-compare chain.  The compiler knows the op at
# compile time, so binary arithmetic and comparisons get direct
# appliers.  Semantics (error messages, overflow/zero checks) mirror
# `Machine._apply_prim`/`_arith` exactly.


def _mk_arith(op: str, fn) -> Callable[[Value, Value], Value]:
    def apply(a: Value, b: Value) -> Value:
        if a.__class__ is not VInt or b.__class__ is not VInt:
            raise MachineError(f"{op} on non-integers")
        result = fn(a.value, b.value)
        if not (INT_MIN < result < INT_MAX):
            raise ObjRaise(OVERFLOW)
        return VInt(result)

    return apply


def _mk_divmod(op: str, fn) -> Callable[[Value, Value], Value]:
    def apply(a: Value, b: Value) -> Value:
        if a.__class__ is not VInt or b.__class__ is not VInt:
            raise MachineError(f"{op} on non-integers")
        if b.value == 0:
            raise ObjRaise(DIVIDE_BY_ZERO)
        result = fn(a.value, b.value)
        if not (INT_MIN < result < INT_MAX):
            raise ObjRaise(OVERFLOW)
        return VInt(result)

    return apply


_TRUE = VCon("True")
_FALSE = VCon("False")


def _mk_cmp(op: str, fn) -> Callable[[Value, Value], Value]:
    def apply(a: Value, b: Value) -> Value:
        if a.__class__ is VInt and b.__class__ is VInt:
            return _TRUE if fn(a.value, b.value) else _FALSE
        av = a.value if isinstance(a, (VInt, VStr)) else None
        bv = b.value if isinstance(b, (VInt, VStr)) else None
        if av is None or bv is None:
            raise MachineError(f"{op} compares base values only")
        return _TRUE if fn(av, bv) else _FALSE

    return apply


_APPLY2: Dict[str, Callable[[Value, Value], Value]] = {
    "+": _mk_arith("+", operator.add),
    "-": _mk_arith("-", operator.sub),
    "*": _mk_arith("*", operator.mul),
    "div": _mk_divmod("div", operator.floordiv),
    "mod": _mk_divmod("mod", operator.mod),
    "==": _mk_cmp("==", operator.eq),
    "/=": _mk_cmp("/=", operator.ne),
    "<": _mk_cmp("<", operator.lt),
    "<=": _mk_cmp("<=", operator.le),
    ">": _mk_cmp(">", operator.gt),
    ">=": _mk_cmp(">=", operator.ge),
}


# -- the resolver/compiler ----------------------------------------------


class _Compiler:
    """Lowers one expression against a fixed global environment.

    ``scope`` maps every *lexically* bound name in the current frame to
    its slot index; names absent from the scope resolve through the
    global dict (baked at compile time) or compile to an
    unbound-variable raise.  Binders (Lam/Let/Case-alt/Fix) start a new
    frame: their own bindings take the low slots and the pruned
    captured slice fills the rest, so the generated capture code is a
    tuple-build of exactly the cells the body names.
    """

    __slots__ = ("glob", "strategy")

    def __init__(self, glob: Dict[str, Cell], strategy) -> None:
        self.glob = glob
        self.strategy = strategy

    # Captured-variable resolution: the sorted free names of `body`
    # that live in the current scope, minus `bound`.
    def _captures(self, exprs, bound, scope) -> Tuple[list, Tuple[int, ...]]:
        frees: set = set()
        for e in exprs:
            frees |= free_vars(e)
        names = sorted(n for n in frees - bound if n in scope)
        return names, tuple(scope[n] for n in names)

    def compile(self, expr: Expr, scope: Dict[str, int]) -> Code:
        code = self._compile_node(expr, scope)
        # Generated code objects carry their AST node's source span as
        # a function attribute: `Cell.force` reads `expr.span` off the
        # cell's payload for FORCE events and provenance chains, and
        # the payload here is the code object, not the AST node.  This
        # is what makes span attribution backend-invariant.
        code.span = expr.span
        return code

    def _compile_node(self, expr: Expr, scope: Dict[str, int]) -> Code:
        if isinstance(expr, Var):
            return self._compile_var(expr.name, scope)
        if isinstance(expr, Lit):
            if expr.kind == "int":
                value: Value = VInt(int(expr.value))
            else:
                value = VStr(str(expr.value))

            def lit_code(m, f):
                st = m.stats
                st.steps += 1
                if st.steps > m._watch:
                    m._tick_slow()
                return value

            return lit_code
        if isinstance(expr, Lam):
            return self._compile_lam(expr, scope)
        if isinstance(expr, App):
            return self._compile_app(expr, scope)
        if isinstance(expr, Con):
            return self._compile_con(expr, scope)
        if isinstance(expr, Case):
            return self._compile_case(expr, scope)
        if isinstance(expr, Raise):
            return self._compile_raise(expr, scope)
        if isinstance(expr, PrimOp):
            return self._compile_prim(expr, scope)
        if isinstance(expr, Fix):
            return self._compile_fix(expr, scope)
        if isinstance(expr, Let):
            return self._compile_let(expr, scope)
        raise MachineError(f"eval: unknown expression {expr!r}")

    def _compile_var(self, name: str, scope: Dict[str, int]) -> Code:
        idx = scope.get(name)
        if idx is not None:
            # The `state == 2` (_VALUE) test is `Cell.force`'s own
            # memoised fast path, inlined to skip three Python frames
            # per re-read of an already-forced binding.
            def local_code(m, f):
                st = m.stats
                st.steps += 1
                if st.steps > m._watch:
                    m._tick_slow()
                cell = f[idx]
                if cell.state == 2:
                    return cell.value
                return cell.force(m)

            return local_code
        cell = self.glob.get(name)
        if cell is not None:

            def global_code(m, f):
                st = m.stats
                st.steps += 1
                if st.steps > m._watch:
                    m._tick_slow()
                if cell.state == 2:
                    return cell.value
                return cell.force(m)

            return global_code

        def unbound_code(m, f):
            st = m.stats
            st.steps += 1
            if st.steps > m._watch:
                m._tick_slow()
            raise MachineError(f"unbound variable {name!r}")

        return unbound_code

    def _compile_lam(self, expr: Lam, scope: Dict[str, int]) -> Code:
        names, cap_src = self._captures((expr.body,), {expr.var}, scope)
        body_scope = {expr.var: 0}
        for i, n in enumerate(names):
            body_scope[n] = i + 1
        body_code = self.compile(expr.body, body_scope)
        var = expr.var
        if not cap_src:
            closure = CClosure(var, body_code, ())

            def lam_code0(m, f):
                st = m.stats
                st.steps += 1
                if st.steps > m._watch:
                    m._tick_slow()
                return closure

            return lam_code0
        capture = _capturer(cap_src)

        def lam_code(m, f):
            st = m.stats
            st.steps += 1
            if st.steps > m._watch:
                m._tick_slow()
            return CClosure(var, body_code, capture(f))

        return lam_code

    def _compile_app(self, expr: App, scope: Dict[str, int]) -> Code:
        fn_code = self.compile(expr.fn, scope)
        arg_code = self.compile(expr.arg, scope)

        def app_code(m, f):
            st = m.stats
            st.steps += 1
            if st.steps > m._watch:
                m._tick_slow()
            fn = fn_code(m, f)
            while fn.__class__ is tuple:
                c, fr = fn
                fn = c(m, fr)
            if fn.__class__ is not CClosure:
                raise MachineError(f"applied non-function {fn}")
            st.allocations += 1
            if st.allocations > m._awatch:
                m._watch = -1
            if m._tracing:
                m.sink.emit(ALLOC, kind="thunk")
            return fn.code, (Cell(arg_code, f),) + fn.captures

        return app_code

    def _compile_con(self, expr: Con, scope: Dict[str, int]) -> Code:
        name = expr.name
        arg_codes = tuple(self.compile(a, scope) for a in expr.args)
        if not arg_codes:
            con = VCon(name)

            def con_code0(m, f):
                st = m.stats
                st.steps += 1
                if st.steps > m._watch:
                    m._tick_slow()
                st.allocations += 1
                if st.allocations > m._awatch:
                    m._watch = -1
                if m._tracing:
                    m.sink.emit(ALLOC, kind="con")
                return con

            return con_code0

        n_args = len(arg_codes)
        if n_args == 1:
            (c0,) = arg_codes

            def con_code1(m, f):
                st = m.stats
                st.steps += 1
                if st.steps > m._watch:
                    m._tick_slow()
                st.allocations += 2
                if st.allocations > m._awatch:
                    m._watch = -1
                if m._tracing:
                    m.sink.emit(ALLOC, kind="con")
                    m.sink.emit(ALLOC, kind="thunk")
                return VCon(name, (Cell(c0, f),))

            return con_code1
        if n_args == 2:
            c0, c1 = arg_codes

            def con_code2(m, f):
                st = m.stats
                st.steps += 1
                if st.steps > m._watch:
                    m._tick_slow()
                st.allocations += 3
                if st.allocations > m._awatch:
                    m._watch = -1
                if m._tracing:
                    m.sink.emit(ALLOC, kind="con")
                    m.sink.emit(ALLOC, kind="thunk")
                    m.sink.emit(ALLOC, kind="thunk")
                return VCon(name, (Cell(c0, f), Cell(c1, f)))

            return con_code2

        def con_code(m, f):
            st = m.stats
            st.steps += 1
            if st.steps > m._watch:
                m._tick_slow()
            st.allocations += 1 + n_args
            if st.allocations > m._awatch:
                m._watch = -1
            if m._tracing:
                m.sink.emit(ALLOC, kind="con")
                for _ in arg_codes:
                    m.sink.emit(ALLOC, kind="thunk")
            return VCon(name, tuple(Cell(c, f) for c in arg_codes))

        return con_code

    def _compile_case(self, expr: Case, scope: Dict[str, int]) -> Code:
        scrut_code = self.compile(expr.scrutinee, scope)
        alt_codes = tuple(
            self._compile_alt(alt, scope) for alt in expr.alts
        )
        span = expr.span

        def case_code(m, f):
            st = m.stats
            st.steps += 1
            if st.steps > m._watch:
                m._tick_slow()
            scrut = scrut_code(m, f)
            while scrut.__class__ is tuple:
                c, fr = scrut
                scrut = c(m, fr)
            for try_alt in alt_codes:
                res = try_alt(m, f, scrut)
                if res is not None:
                    return res
            st.raises += 1
            if m._tracing:
                m.sink.emit(RAISE, exc=PATTERN_MATCH_FAIL.name, span=span)
            err = ObjRaise(PATTERN_MATCH_FAIL)
            if m._prov is not None:
                m._prov.annotate(err, span, st)
            raise err

        return case_code

    def _compile_alt(self, alt, scope: Dict[str, int]):
        """Compile one alternative to ``try_alt(m, f, scrut)`` returning
        ``None`` on mismatch or a ``(body_code, frame)`` continuation on
        match.  Non-binding alternatives reuse the incoming frame — the
        compiled mirror of the interpreter skipping its env copy when
        the binding dict is empty."""
        pattern, body = alt.pattern, alt.body

        if isinstance(pattern, PWild):
            body_code = self.compile(body, scope)

            def try_wild(m, f, scrut):
                return body_code, f

            return try_wild

        if isinstance(pattern, PVar):
            bname = pattern.name
            names, cap_src = self._captures((body,), {bname}, scope)
            body_scope = {bname: 0}
            for i, n in enumerate(names):
                body_scope[n] = i + 1
            body_code = self.compile(body, body_scope)
            bind = _binder1(cap_src)

            def try_var(m, f, scrut):
                return body_code, bind(Cell.ready(scrut), f)

            return try_var

        if isinstance(pattern, PLit):
            lit = pattern.value
            body_code = self.compile(body, scope)

            def try_lit(m, f, scrut):
                if isinstance(scrut, (VInt, VStr)):
                    if scrut.value == lit:
                        return body_code, f
                    return None
                raise MachineError("literal pattern against non-literal")

            return try_lit

        if isinstance(pattern, PCon):
            cname = pattern.name
            nested = any(
                not isinstance(sub, (PVar, PWild)) for sub in pattern.args
            )
            if nested:
                # Flattening happens upstream; mirror the interpreter's
                # runtime error if a nested pattern slips through — but
                # only after the constructor matches, as `_match` does.
                def try_nested(m, f, scrut):
                    if not isinstance(scrut, VCon) or scrut.name != cname:
                        return None
                    raise MachineError(
                        "nested pattern reached the machine; run "
                        "flatten_case_patterns first"
                    )

                return try_nested
            take = tuple(
                (i, sub.name)
                for i, sub in enumerate(pattern.args)
                if isinstance(sub, PVar)
            )
            if not take:
                body_code = self.compile(body, scope)

                def try_con0(m, f, scrut):
                    if not isinstance(scrut, VCon) or scrut.name != cname:
                        return None
                    return body_code, f

                return try_con0
            bound = {n for _i, n in take}
            names, cap_src = self._captures((body,), bound, scope)
            body_scope = {}
            # Later bindings of a repeated name win, matching the
            # interpreter's dict-update semantics.
            for slot, (_i, n) in enumerate(take):
                body_scope[n] = slot
            k = len(take)
            for j, n in enumerate(names):
                body_scope[n] = k + j
            body_code = self.compile(body, body_scope)
            field_idx = tuple(i for i, _n in take)
            pick = _picker(field_idx, cap_src)

            def try_con(m, f, scrut):
                if not isinstance(scrut, VCon) or scrut.name != cname:
                    return None
                return body_code, pick(scrut.args, f)

            return try_con

        raise MachineError(f"unknown pattern {pattern!r}")

    def _compile_raise(self, expr: Raise, scope: Dict[str, int]) -> Code:
        exc_code = self.compile(expr.exc, scope)
        span = expr.span

        def raise_code(m, f):
            st = m.stats
            st.steps += 1
            if st.steps > m._watch:
                m._tick_slow()
            value = _run(m, exc_code, f)
            st.raises += 1
            exc = m.exc_of_value(value)
            if m._tracing:
                m.sink.emit(RAISE, exc=exc.name, span=span)
            err = ObjRaise(exc)
            if m._prov is not None:
                m._prov.annotate(err, span, st)
            raise err

        return raise_code

    def _compile_fix(self, expr: Fix, scope: Dict[str, int]) -> Code:
        fn_code = self.compile(expr.fn, scope)

        def fix_code(m, f):
            st = m.stats
            st.steps += 1
            if st.steps > m._watch:
                m._tick_slow()
            fn = _run(m, fn_code, f)
            if fn.__class__ is not CClosure:
                raise MachineError("fix of a non-function")
            # The knot cell computes the body with itself bound to the
            # recursive variable: fix f = f (fix f).
            knot = Cell(None, None)
            knot.expr = fn.code
            knot.env = (knot,) + fn.captures
            return knot.force(m)

        return fix_code

    def _compile_let(self, expr: Let, scope: Dict[str, int]) -> Code:
        names = [name for name, _rhs in expr.binds]
        bound = set(names)
        sub_exprs = tuple(rhs for _n, rhs in expr.binds) + (expr.body,)
        cap_names, cap_src = self._captures(sub_exprs, bound, scope)
        inner_scope: Dict[str, int] = {}
        # Later duplicate binders shadow earlier ones, as dict insert
        # order does in the interpreter.
        for i, n in enumerate(names):
            inner_scope[n] = i
        k = len(names)
        for j, n in enumerate(cap_names):
            inner_scope[n] = k + j
        rhs_codes = tuple(
            self.compile(rhs, inner_scope) for _n, rhs in expr.binds
        )
        body_code = self.compile(expr.body, inner_scope)
        n_binds = len(rhs_codes)
        frame_of = _let_framer(n_binds, cap_src)

        def let_code(m, f):
            st = m.stats
            st.steps += 1
            if st.steps > m._watch:
                m._tick_slow()
            st.allocations += n_binds
            if st.allocations > m._awatch:
                m._watch = -1
            if m._tracing:
                for _ in rhs_codes:
                    m.sink.emit(ALLOC, kind="thunk")
            cells = [Cell(rc, None) for rc in rhs_codes]
            frame = frame_of(cells, f)
            # Recursive scope: the cells must see the frame they sit in.
            for c in cells:
                c.env = frame
            return body_code, frame

        return let_code

    def _compile_prim(self, expr: PrimOp, scope: Dict[str, int]) -> Code:
        op = expr.op

        tag = _IO_TAGS.get(op)
        if tag is not None:
            arg_codes = tuple(self.compile(a, scope) for a in expr.args)

            def io_code(m, f):
                st = m.stats
                st.steps += 1
                if st.steps > m._watch:
                    m._tick_slow()
                st.prim_ops += 1
                st.allocations += len(arg_codes)
                if st.allocations > m._awatch:
                    m._watch = -1
                if m._tracing:
                    for _ in arg_codes:
                        m.sink.emit(ALLOC, kind="thunk")
                return VIO(tag, tuple(Cell(c, f) for c in arg_codes))

            return io_code
        if op in ("getChar", "newEmptyMVar", "yieldIO"):
            vio_tag = "yield" if op == "yieldIO" else op

            def nullary_io_code(m, f):
                st = m.stats
                st.steps += 1
                if st.steps > m._watch:
                    m._tick_slow()
                st.prim_ops += 1
                return VIO(vio_tag)

            return nullary_io_code

        if op == "seq":
            first_code = self.compile(expr.args[0], scope)
            second_code = self.compile(expr.args[1], scope)

            def seq_code(m, f):
                st = m.stats
                st.steps += 1
                if st.steps > m._watch:
                    m._tick_slow()
                st.prim_ops += 1
                _run(m, first_code, f)
                return second_code, f

            return seq_code

        if op == "mapException":
            fn_code = self.compile(expr.args[0], scope)
            arg_code = self.compile(expr.args[1], scope)

            map_span = expr.span

            def map_exc_code(m, f):
                st = m.stats
                st.steps += 1
                if st.steps > m._watch:
                    m._tick_slow()
                st.prim_ops += 1
                try:
                    return _run(m, arg_code, f)
                except ObjRaise as err:
                    fn = _run(m, fn_code, f)
                    if not isinstance(fn, CClosure):
                        raise MachineError(
                            "mapException: non-function mapper"
                        )
                    mapped = _run(
                        m,
                        fn.code,
                        (Cell.ready(m.value_of_exc(err.exc)),) + fn.captures,
                    )
                    new_err = ObjRaise(m.exc_of_value(mapped))
                    if m._prov is not None:
                        m._prov.annotate(new_err, map_span, st)
                    raise new_err from None

            return map_exc_code

        # Strict primitives: arguments in strategy order, first
        # exception propagating (Section 3.5).  Stateless strategies
        # are baked at compile time; stateful ones (Shuffled) consult
        # the strategy per execution so the RNG stream matches the
        # interpreter call for call.
        arg_codes = tuple(self.compile(a, scope) for a in expr.args)
        n = len(arg_codes)
        apply2 = _APPLY2.get(op) if n == 2 else None
        prim_span = expr.span
        # Provenance and tracing: exceptions *propagating* out of
        # argument evaluation keep their tighter annotation and emit no
        # event here (the inner raise already did); exceptions
        # *originated* by the application itself (div-by-zero, overflow
        # from ⊕) get this PrimOp's span and — under a live sink — the
        # distinct `prim-raise` event, mirroring the interpreter
        # byte-for-byte.  The try/excepts are free on the no-raise path
        # (3.11 zero-cost exception tables), and the handlers guard on
        # the same precomputed `m._prov`/`m._tracing` the interpreter
        # uses.
        if self.strategy.stateless:
            order = self.strategy.order(op, n)
            if apply2 is not None and order == (0, 1):
                c0, c1 = arg_codes

                def strict_lr(m, f):
                    st = m.stats
                    st.steps += 1
                    if st.steps > m._watch:
                        m._tick_slow()
                    st.prim_ops += 1
                    try:
                        a = c0(m, f)
                        while a.__class__ is tuple:
                            c, fr = a
                            a = c(m, fr)
                        b = c1(m, f)
                        while b.__class__ is tuple:
                            c, fr = b
                            b = c(m, fr)
                    except ObjRaise as err:
                        if m._prov is not None:
                            m._prov.annotate(err, prim_span, m.stats)
                        raise
                    try:
                        return apply2(a, b)
                    except ObjRaise as err:
                        st.prim_raises += 1
                        if m._tracing:
                            m.sink.emit(
                                PRIM_RAISE,
                                exc=err.exc.name,
                                span=prim_span,
                            )
                        if m._prov is not None:
                            m._prov.annotate(err, prim_span, m.stats)
                        raise

                return strict_lr
            if apply2 is not None and order == (1, 0):
                c0, c1 = arg_codes

                def strict_rl(m, f):
                    st = m.stats
                    st.steps += 1
                    if st.steps > m._watch:
                        m._tick_slow()
                    st.prim_ops += 1
                    try:
                        b = c1(m, f)
                        while b.__class__ is tuple:
                            c, fr = b
                            b = c(m, fr)
                        a = c0(m, f)
                        while a.__class__ is tuple:
                            c, fr = a
                            a = c(m, fr)
                    except ObjRaise as err:
                        if m._prov is not None:
                            m._prov.annotate(err, prim_span, m.stats)
                        raise
                    try:
                        return apply2(a, b)
                    except ObjRaise as err:
                        st.prim_raises += 1
                        if m._tracing:
                            m.sink.emit(
                                PRIM_RAISE,
                                exc=err.exc.name,
                                span=prim_span,
                            )
                        if m._prov is not None:
                            m._prov.annotate(err, prim_span, m.stats)
                        raise

                return strict_rl

            def strict_static(m, f):
                st = m.stats
                st.steps += 1
                if st.steps > m._watch:
                    m._tick_slow()
                st.prim_ops += 1
                values = [None] * n
                try:
                    for i in order:
                        values[i] = _run(m, arg_codes[i], f)
                except ObjRaise as err:
                    if m._prov is not None:
                        m._prov.annotate(err, prim_span, m.stats)
                    raise
                try:
                    return m._apply_prim(op, values)
                except ObjRaise as err:
                    st.prim_raises += 1
                    if m._tracing:
                        m.sink.emit(
                            PRIM_RAISE, exc=err.exc.name, span=prim_span
                        )
                    if m._prov is not None:
                        m._prov.annotate(err, prim_span, m.stats)
                    raise

            return strict_static

        def strict_dynamic(m, f):
            st = m.stats
            st.steps += 1
            if st.steps > m._watch:
                m._tick_slow()
            st.prim_ops += 1
            values = [None] * n
            try:
                for i in m.strategy.order(op, n):
                    values[i] = _run(m, arg_codes[i], f)
            except ObjRaise as err:
                if m._prov is not None:
                    m._prov.annotate(err, prim_span, m.stats)
                raise
            try:
                return m._apply_prim(op, values)
            except ObjRaise as err:
                st.prim_raises += 1
                if m._tracing:
                    m.sink.emit(
                        PRIM_RAISE, exc=err.exc.name, span=prim_span
                    )
                if m._prov is not None:
                    m._prov.annotate(err, prim_span, m.stats)
                raise

        return strict_dynamic


def compile_top(
    expr: Expr, glob: Optional[Dict[str, Cell]], strategy
) -> Code:
    """Lower ``expr`` against the global environment ``glob`` (a
    name -> Cell dict: prelude and/or top-level program bindings).
    Global cells are baked into the generated code, so the result is
    specific to one machine's environment — cells memoise, so each
    binding is compiled at most once per machine."""
    return _Compiler(glob or {}, strategy).compile(expr, {})


class CompiledMachine(Machine):
    """The ``backend="compiled"`` machine.

    Everything observable — heap cells, stats, sinks, strategies,
    primitive semantics, exception conversion — is inherited from
    :class:`Machine`; only *how expressions run* differs.  ``eval``
    dispatches on what it is handed: an AST :class:`Expr` (with a dict
    environment) is lowered by :func:`compile_top` first; an
    already-compiled code object (with a frame) — the payload of cells
    this backend allocates — enters the work-loop directly.
    """

    def __init__(
        self,
        strategy=None,
        fuel: int = 2_000_000,
        detect_blackholes: bool = True,
        event_plan=None,
        sink=None,
        *,
        backend: str = "compiled",
    ) -> None:
        if backend != "compiled":
            raise ValueError(
                f"CompiledMachine only supports backend='compiled', "
                f"got {backend!r}"
            )
        super().__init__(
            strategy,
            fuel,
            detect_blackholes,
            event_plan,
            sink,
            backend="compiled",
        )

    def eval(self, expr, env) -> Value:
        if isinstance(expr, Expr):
            expr, env = compile_top(expr, env, self.strategy), ()
        # _run, inlined: eval is the per-force entry point (Cell.force
        # calls it), so one fewer Python frame matters here.
        result = expr(self, env)
        while result.__class__ is tuple:
            code, frame = result
            result = code(self, frame)
        return result

    def bind_cell(self, fn, arg_cell: Cell) -> Cell:
        return Cell(fn.code, (arg_cell,) + fn.captures)
