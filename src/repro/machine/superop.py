"""Superinstructions: fuse recurring step sequences into single Python
frames.

``Machine(backend="super")`` lowers programs to Python code before
running them.  Its first tier, the closure lowering
(repro.machine.compile), lowers each AST node to one Python closure;
its remaining cost is the *call* per node
— every semantic step still crosses a Python frame boundary.  This
module fuses the recurring step shapes into one generated Python
function per fusion site, so a hot region executes several virtual
machine steps without leaving a single Python frame:

* **saturated-prim-then-case** — ``case a ⊕ b of …`` evaluates the
  scrutinee primitive, both operands, the alternative dispatch *and*
  the matching alternative's body inline (the shape every
  ``if``/comparison desugars to);
* **force-then-apply** — ``f x`` resolves the function inline — a
  variable is one cell read, a nested application recurses — instead
  of calling a function-position closure;
* **let-chain-then-tail-call** — consecutive ``let`` frames allocate
  and tie their cells in one pass, then run the final body's first
  transition inline;
* **memoised-cell-read-then-prim** — primitive operands that are
  literals, variables, constructors, applications or further
  primitives are evaluated inline (a literal costs one constant load,
  a forced variable one state test), not through operand closures.

Inlining is recursive and budgeted (:data:`_INLINE_BUDGET` virtual
steps per generated function); past the budget, or for shapes outside
the catalogue, operands fall back to lowered sub-codes, so generated
programs are a mix of fused and plain closures sharing one calling
convention.

The soundness discipline is the **virtual step boundary**: a fused
frame replays the *exact* per-step tick of the unfused backends —
``steps += 1`` plus the slow-path test — at every point where an
unfused closure would have ticked.  Counters, trace events, Shuffled
RNG draws (stateful strategies are consulted once per primitive
execution, at the same point in the sequence) and asynchronous
interrupt/fault delivery points are therefore byte-identical to the
AST backend and the closure tier; the parity suite and the chaos sweeps gate
this for free (tests/machine/test_backends.py, repro.chaos).

**Constant folding through memoised cells**: a heap cell is immutable
once it reaches the ``VALUE`` state (Section 3.3 — re-evaluation never
happens), so a global cell *proven forced at compile time* — every
prelude cell when compiling against a :class:`PreludeSnapshot`'s
deep-forced heap — is baked into the generated code as a constant
(for an applied function, its code and captures bake too).  The
virtual step for the variable read still ticks; only the cell
indirection disappears, so observations are unchanged.

Fusion is all-on: every catalogue shape fuses wherever it occurs.
Narrowing it to measured-hot spans never beat all-on fusion
(EXPERIMENTS.md, E18).

``benchmarks/bench_superop.py`` (E18) records the speedup; the fusion
catalogue and the boundary contract are documented in
docs/PERFORMANCE.md.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional

from repro.lang.ast import (
    App,
    Case,
    Con,
    Expr,
    Let,
    Lit,
    PCon,
    PLit,
    PVar,
    PWild,
    PrimOp,
    Var,
)
from repro.core.excset import DIVIDE_BY_ZERO, OVERFLOW, PATTERN_MATCH_FAIL
from repro.lang.ops import INT_MAX, INT_MIN
from repro.machine.compile import (
    _APPLY2,
    _FALSE,
    _TRUE,
    _binder1,
    _let_framer,
    _picker,
    _Compiler,
    Code,
)
from repro.machine.eval import Machine, MachineError
from repro.machine.frames import CClosure
from repro.machine.heap import Cell, ObjRaise
from repro.machine.values import (
    SMALL_INT_LIMIT,
    SMALL_INTS,
    VCon,
    VInt,
    VStr,
)
from repro.obs.events import ALLOC, PRIM_RAISE, RAISE

#: Fusion-site counters a SuperMachine aggregates (see
#: :meth:`SuperMachine.fusion_report`).
_FUSION_KINDS = ("prim", "case", "app", "con", "let-chain", "folded-cells")

#: Upper bound on inlined virtual steps per generated function — a
#: guard on generated-code size (and `exec` compile time), not a
#: semantic limit: past it, sub-expressions compile to their own
#: (possibly fused) codes and are called.
_INLINE_BUDGET = 48


# -- the fused-code emitter ---------------------------------------------
#
# Fused sites are generated as Python source and exec'd once at compile
# time — the same technique the closure lowering uses for its frame
# constructors (`_capturer` etc.), scaled up to whole step sequences.
# Every object a template references is bound into the generated
# function's globals under a fresh name; only integers, small string
# literals and generated identifiers appear in the source text.

_BASE_NS = {
    "Cell": Cell,
    "CClosure": CClosure,
    "ObjRaise": ObjRaise,
    "MachineError": MachineError,
    "VCon": VCon,
    "VInt": VInt,
    "_VIS": (VInt, VStr),
    "_VC": SMALL_INTS,
    "_VCN": SMALL_INT_LIMIT,
    "_TRUE": _TRUE,
    "_FALSE": _FALSE,
    "_IMIN": INT_MIN,
    "_IMAX": INT_MAX,
    "OVF": OVERFLOW,
    "DBZ": DIVIDE_BY_ZERO,
    "ALLOC": ALLOC,
    "RAISE": RAISE,
    "PRIM_RAISE": PRIM_RAISE,
    "PMF": PATTERN_MATCH_FAIL,
}

#: Ops whose applier bodies inline into generated source (mirroring
#: `_mk_arith`/`_mk_divmod`/`_mk_cmp` exactly — same checks, same
#: error objects, same messages).
_INLINE_ARITH = {"+": "+", "-": "-", "*": "*"}
_INLINE_DIVMOD = {"div": "//", "mod": "%"}
_INLINE_CMP = {
    "==": "==", "/=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}

#: Bound on :func:`_compile_fused`'s memo.  Over the prelude build
#: plus 1000 guided fuzz iterations (116,850 lookups, 1,295 distinct
#: sources) an unbounded memo hits 98.89% of lookups and 512 entries
#: hit 98.66%; the prelude build alone (85 distinct sources) hits the
#: same 55.96% at any bound from 128 up.
CODE_CACHE_SIZE = 512


@functools.lru_cache(maxsize=CODE_CACHE_SIZE)
def _compile_fused(src: str):
    """Source text → code object for one generated fused function,
    memoised in a bounded LRU.  The generated *source* is deterministic
    in (expr shape, baked strategy order, fusion decisions) — every
    environment-dependent value lives in the per-function constant
    namespace under a positional `_k<N>` name, never in the text — so
    identical text compiles to an identical code object and
    `compile()` (the dominant cost of `compile_super` on small
    programs) is paid once per shape while the shape stays recent."""
    return compile(src, "<superop>", "exec")


class _Emit:
    """Accumulates source lines + a constant namespace for one fused
    function.  ``ops`` counts inlined virtual steps against
    :data:`_INLINE_BUDGET`."""

    __slots__ = ("lines", "ns", "_n", "ops")

    def __init__(self) -> None:
        self.lines: list = []
        self.ns: dict = dict(_BASE_NS)
        self._n = 0
        self.ops = 0

    def fresh(self, hint: str = "t") -> str:
        self._n += 1
        return f"_{hint}{self._n}"

    def const(self, value, hint: str = "k") -> str:
        name = self.fresh(hint)
        self.ns[name] = value
        return name

    def emit(self, text: str, indent: int = 1) -> None:
        pad = "    " * indent
        for ln in text.split("\n"):
            self.lines.append(pad + ln if ln else ln)

    def tick(self, indent: int = 1) -> None:
        # THE virtual step boundary: the exact inlined tick every
        # unfused closure performs (repro.machine.compile), repeated
        # inside fused frames so interrupts, faults, fuel exhaustion
        # and STEP events land at identical step counts.  The
        # watermark is read live (see `build`).
        self.ops += 1
        self.emit("st.steps += 1", indent)
        self.emit("if st.steps > m._watch:", indent)
        self.emit("    m._tick_slow()", indent)

    def alloc(self, count, indent: int = 1) -> None:
        # Allocation accounting, with the allocation-watermark check
        # every backend performs at its allocation sites.
        self.emit(f"st.allocations += {count}", indent)
        self.emit("if st.allocations > m._awatch:", indent)
        self.emit("    m._watch = -1", indent)

    def drain(self, dest: str, indent: int) -> None:
        # The work-loop tail drain, inlined (the closure lowering's
        # `while x.__class__ is tuple` idiom).
        self.emit(f"while {dest}.__class__ is tuple:", indent)
        self.emit(f"    _tc, _tf = {dest}", indent)
        self.emit(f"    {dest} = _tc(m, _tf)", indent)

    def build(self) -> Code:
        # Nothing but the stats object is snapshotted at frame entry:
        # every tick reads the step watermark `m._watch` live, so a
        # cross-thread injection (governor `inject`, slice-gate
        # `interrupt`), which lowers it via `Machine.wake`, lands at
        # the very next virtual step boundary even inside a long
        # fused frame — exactly where the unfused backends deliver it.
        body = "\n".join(self.lines) or "    pass"
        src = "def _fused(m, f):\n    st = m.stats\n" + body + "\n"
        exec(_compile_fused(src), self.ns)
        return self.ns.pop("_fused")


class _SuperCompiler(_Compiler):
    """The fusing lowering.  Shapes outside the catalogue defer to the
    base compiler, so generated programs are a mix of fused and plain
    closures sharing one calling convention."""

    __slots__ = ("counters",)

    def __init__(
        self,
        glob: Dict[str, Cell],
        strategy,
        counters: Optional[Dict[str, int]] = None,
    ) -> None:
        super().__init__(glob, strategy)
        self.counters = (
            counters
            if counters is not None
            else dict.fromkeys(_FUSION_KINDS, 0)
        )

    def _count(self, kind: str) -> None:
        self.counters[kind] = self.counters.get(kind, 0) + 1

    # -- operand inlining (memoised-cell-read-then-prim) ----------------

    def _emit_whnf(
        self, em: _Emit, expr: Expr, scope: Dict[str, int], dest: str,
        ind: int,
    ) -> None:
        """Inline WHNF evaluation of ``expr`` into local ``dest``,
        replaying the exact tick/read sequence of the closure the base
        compiler would have called.  Literals, variables, primitives,
        applications and constructors inline (the latter three within
        budget); anything else evaluates through its own (possibly
        fused) lowered code, draining work-loop tails as the base
        operand path does."""
        if isinstance(expr, Lit):
            if expr.kind == "int":
                value = VInt(int(expr.value))
            else:
                value = VStr(str(expr.value))
            k = em.const(value)
            em.tick(ind)
            em.emit(f"{dest} = {k}", ind)
            return
        if isinstance(expr, Var):
            idx = scope.get(expr.name)
            if idx is not None:
                em.tick(ind)
                c = em.fresh("c")
                em.emit(f"{c} = f[{idx}]", ind)
                em.emit(f"if {c}.state == 2:", ind)
                em.emit(f"    {dest} = {c}.value", ind)
                em.emit("else:", ind)
                em.emit(f"    {dest} = {c}.force(m)", ind)
                return
            cell = self.glob.get(expr.name)
            if cell is not None:
                if cell.state == 2:
                    # Constant-folded: the cell is memoised and
                    # therefore immutable; the read's virtual step
                    # still ticks, only the indirection is gone.
                    k = em.const(cell.value)
                    em.tick(ind)
                    em.emit(f"{dest} = {k}", ind)
                    self._count("folded-cells")
                    return
                g = em.const(cell, "g")
                em.tick(ind)
                em.emit(f"if {g}.state == 2:", ind)
                em.emit(f"    {dest} = {g}.value", ind)
                em.emit("else:", ind)
                em.emit(f"    {dest} = {g}.force(m)", ind)
                return
            # Unbound name: the generic fallback below compiles to the
            # base unbound-variable raise.
        elif em.ops < _INLINE_BUDGET:
            if self._prim_fusable(expr):
                self._emit_prim(em, expr, scope, dest, ind)
                return
            if isinstance(expr, App):
                self._emit_app(em, expr, scope, ind, dest=dest)
                return
            if isinstance(expr, Con):
                self._emit_con(em, expr, scope, dest, ind)
                return
        code = self.compile(expr, scope)
        e = em.const(code, "e")
        em.emit(f"{dest} = {e}(m, f)", ind)
        em.drain(dest, ind)

    # -- fused strict primitives ----------------------------------------

    def _prim_fusable(self, expr) -> bool:
        return (
            isinstance(expr, PrimOp)
            and len(expr.args) == 2
            and expr.op in _APPLY2
        )

    def _emit_prim(
        self, em: _Emit, expr: PrimOp, scope: Dict[str, int], dest: str,
        ind: int,
    ) -> None:
        """The fused body of a saturated binary primitive: tick,
        strategy-ordered inline operand evaluation, direct apply —
        with the base backend's exact provenance/trace handling on
        both the propagating and the originating raise paths."""
        op = expr.op
        a, b = em.fresh("a"), em.fresh("b")
        ksp = em.const(expr.span, "sp")
        em.tick(ind)
        em.emit("st.prim_ops += 1", ind)
        em.emit("try:", ind)
        if self.strategy.stateless:
            order = self.strategy.order(op, 2)
            pairs = ((expr.args[0], a), (expr.args[1], b))
            for i in order:
                self._emit_whnf(em, pairs[i][0], scope, pairs[i][1], ind + 1)
        else:
            # Stateful strategies draw per execution, exactly once,
            # at the same point the unfused `strict_dynamic` does.
            o = em.fresh("o")
            em.emit(f"{o} = m.strategy.order({op!r}, 2)", ind + 1)
            em.emit(f"if {o}[0] == 0:", ind + 1)
            self._emit_whnf(em, expr.args[0], scope, a, ind + 2)
            self._emit_whnf(em, expr.args[1], scope, b, ind + 2)
            em.emit("else:", ind + 1)
            self._emit_whnf(em, expr.args[1], scope, b, ind + 2)
            self._emit_whnf(em, expr.args[0], scope, a, ind + 2)
        em.emit("except ObjRaise as _err:", ind)
        em.emit("    if m._prov is not None:", ind)
        em.emit(f"        m._prov.annotate(_err, {ksp}, m.stats)", ind)
        em.emit("    raise", ind)
        em.emit("try:", ind)
        # The applier body, inlined for arithmetic and comparisons —
        # identical checks, error objects and messages to the
        # `_APPLY2` closures the closure lowering calls.
        if op in _INLINE_ARITH:
            pyop = _INLINE_ARITH[op]
            msg = f"{op} on non-integers"
            em.emit(f"    if {a}.__class__ is VInt and {b}.__class__ is VInt:", ind)
            em.emit(f"        _v = {a}.value {pyop} {b}.value", ind)
            em.emit("        if _IMIN < _v < _IMAX:", ind)
            em.emit(
                f"            {dest} = _VC[_v] "
                f"if 0 <= _v < {SMALL_INT_LIMIT} else VInt(_v)",
                ind,
            )
            em.emit("        else:", ind)
            em.emit("            raise ObjRaise(OVF)", ind)
            em.emit("    else:", ind)
            em.emit(f"        raise MachineError({msg!r})", ind)
        elif op in _INLINE_DIVMOD:
            pyop = _INLINE_DIVMOD[op]
            msg = f"{op} on non-integers"
            em.emit(f"    if {a}.__class__ is VInt and {b}.__class__ is VInt:", ind)
            em.emit(f"        if {b}.value == 0:", ind)
            em.emit("            raise ObjRaise(DBZ)", ind)
            em.emit(f"        _v = {a}.value {pyop} {b}.value", ind)
            em.emit("        if _IMIN < _v < _IMAX:", ind)
            em.emit(
                f"            {dest} = _VC[_v] "
                f"if 0 <= _v < {SMALL_INT_LIMIT} else VInt(_v)",
                ind,
            )
            em.emit("        else:", ind)
            em.emit("            raise ObjRaise(OVF)", ind)
            em.emit("    else:", ind)
            em.emit(f"        raise MachineError({msg!r})", ind)
        elif op in _INLINE_CMP:
            pyop = _INLINE_CMP[op]
            kap = em.const(_APPLY2[op], "ap")
            em.emit(f"    if {a}.__class__ is VInt and {b}.__class__ is VInt:", ind)
            em.emit(
                f"        {dest} = _TRUE if {a}.value {pyop} {b}.value "
                f"else _FALSE",
                ind,
            )
            em.emit("    else:", ind)
            em.emit(f"        {dest} = {kap}({a}, {b})", ind)
        else:
            kap = em.const(_APPLY2[op], "ap")
            em.emit(f"    {dest} = {kap}({a}, {b})", ind)
        em.emit("except ObjRaise as _err:", ind)
        em.emit("    st.prim_raises += 1", ind)
        em.emit("    if m._tracing:", ind)
        em.emit(
            f"        m.sink.emit(PRIM_RAISE, exc=_err.exc.name, "
            f"span={ksp})",
            ind,
        )
        em.emit("    if m._prov is not None:", ind)
        em.emit(f"        m._prov.annotate(_err, {ksp}, m.stats)", ind)
        em.emit("    raise", ind)
        self._count("prim")

    def _compile_prim(self, expr: PrimOp, scope: Dict[str, int]) -> Code:
        if not self._prim_fusable(expr):
            return super()._compile_prim(expr, scope)
        em = _Emit()
        dest = em.fresh("r")
        self._emit_prim(em, expr, scope, dest, 1)
        em.emit(f"return {dest}")
        return em.build()

    # -- fused applications (force-then-apply) ---------------------------

    def _emit_app(
        self, em: _Emit, expr: App, scope: Dict[str, int], ind: int,
        dest: Optional[str] = None,
    ) -> None:
        """The fused application transition: tick, resolve the
        function inline, allocate the argument thunk, then either
        tail-return the continuation (``dest is None``) or run it to
        WHNF into ``dest``."""
        arg_code = self.compile(expr.arg, scope)
        kargc = em.const(arg_code, "argc")
        em.tick(ind)  # the App node's step
        fn = expr.fn
        target = None
        if isinstance(fn, Var) and fn.name not in scope:
            cell = self.glob.get(fn.name)
            if (
                cell is not None
                and cell.state == 2
                and isinstance(cell.value, CClosure)
            ):
                # Constant-folded target: the callee closure is
                # memoised, so its code and captures are compile-time
                # constants (and the non-function check is discharged
                # statically).  The variable read's step still ticks.
                em.tick(ind)
                kcode = em.const(cell.value.code, "code")
                kcaps = em.const(cell.value.captures, "caps")
                self._count("folded-cells")
                target = (kcode, f"(Cell({kargc}, f),) + {kcaps}")
        if target is None:
            fv = em.fresh("fn")
            self._emit_whnf(em, fn, scope, fv, ind)
            em.emit(f"if {fv}.__class__ is not CClosure:", ind)
            em.emit(
                f'    raise MachineError(f"applied non-function {{{fv}}}")',
                ind,
            )
            target = (f"{fv}.code", f"(Cell({kargc}, f),) + {fv}.captures")
        em.alloc(1, ind)
        em.emit("if m._tracing:", ind)
        em.emit('    m.sink.emit(ALLOC, kind="thunk")', ind)
        self._count("app")
        code_src, frame_src = target
        if dest is None:
            em.emit(f"return {code_src}, {frame_src}", ind)
        else:
            em.emit(f"{dest} = {code_src}(m, {frame_src})", ind)
            em.drain(dest, ind)

    def _compile_app(self, expr: App, scope: Dict[str, int]) -> Code:
        em = _Emit()
        self._emit_app(em, expr, scope, 1, dest=None)
        return em.build()

    # -- inline constructor allocation -----------------------------------

    def _emit_con(
        self, em: _Emit, expr: Con, scope: Dict[str, int], dest: str,
        ind: int,
    ) -> None:
        arg_codes = tuple(self.compile(a, scope) for a in expr.args)
        n = len(arg_codes)
        em.tick(ind)
        if n == 0:
            # The base backend shares one VCon per nullary-Con site;
            # baking a constant matches it exactly.
            k = em.const(VCon(expr.name))
            em.alloc(1, ind)
            em.emit("if m._tracing:", ind)
            em.emit('    m.sink.emit(ALLOC, kind="con")', ind)
            em.emit(f"{dest} = {k}", ind)
        else:
            em.alloc(1 + n, ind)
            em.emit("if m._tracing:", ind)
            em.emit('    m.sink.emit(ALLOC, kind="con")', ind)
            for _ in range(n):
                em.emit('    m.sink.emit(ALLOC, kind="thunk")', ind)
            cells = ", ".join(
                f"Cell({em.const(c, 'cc')}, f)" for c in arg_codes
            )
            em.emit(f"{dest} = VCon({expr.name!r}, ({cells},))", ind)
        self._count("con")

    # -- tail emission ----------------------------------------------------

    def _emit_tail(
        self, em: _Emit, expr: Expr, scope: Dict[str, int], ind: int
    ) -> None:
        """Emit ``expr`` in tail position: catalogue shapes run inline
        and return their value (applications tail-return their
        continuation for the work loop); anything else returns its
        lowered code with the current frame, exactly as the base
        backend's alternative/let bodies do."""
        if isinstance(expr, (Lit, Var)):
            dest = em.fresh("r")
            self._emit_whnf(em, expr, scope, dest, ind)
            em.emit(f"return {dest}", ind)
            return
        if em.ops < _INLINE_BUDGET:
            if self._prim_fusable(expr):
                dest = em.fresh("r")
                self._emit_prim(em, expr, scope, dest, ind)
                em.emit(f"return {dest}", ind)
                return
            if isinstance(expr, App):
                self._emit_app(em, expr, scope, ind, dest=None)
                return
            if isinstance(expr, Con):
                dest = em.fresh("r")
                self._emit_con(em, expr, scope, dest, ind)
                em.emit(f"return {dest}", ind)
                return
        kb = em.const(self.compile(expr, scope), "b")
        em.emit(f"return {kb}, f", ind)

    # -- fused case (saturated-prim-then-case) ---------------------------

    def _compile_case(self, expr: Case, scope: Dict[str, int]) -> Code:
        for alt in expr.alts:
            pattern = alt.pattern
            if isinstance(pattern, PCon) and any(
                not isinstance(sub, (PVar, PWild)) for sub in pattern.args
            ):
                # Nested patterns are flattened upstream; if one slips
                # through, the base code path owns the error report.
                return super()._compile_case(expr, scope)
        em = _Emit()
        scrut = em.fresh("scrut")
        em.tick()  # the case node's own step
        self._emit_whnf(em, expr.scrutinee, scope, scrut, 1)
        for alt in expr.alts:
            if self._emit_alt(em, alt, scope, scrut):
                break  # unconditional match: later alts are dead
        ksp = em.const(expr.span, "sp")
        em.emit("st.raises += 1")
        em.emit("if m._tracing:")
        em.emit(
            f"    m.sink.emit(RAISE, exc={PATTERN_MATCH_FAIL.name!r}, "
            f"span={ksp})"
        )
        em.emit("_err = ObjRaise(PMF)")
        em.emit("if m._prov is not None:")
        em.emit(f"    m._prov.annotate(_err, {ksp}, st)")
        em.emit("raise _err")
        self._count("case")
        return em.build()

    def _emit_alt(self, em: _Emit, alt, scope, scrut: str) -> bool:
        """Emit one alternative's inline dispatch (guard, binder frame,
        body in tail position).  Returns True when the alternative
        matches unconditionally (PWild/PVar)."""
        pattern, body = alt.pattern, alt.body

        if isinstance(pattern, PWild):
            self._emit_tail(em, body, scope, 1)
            return True

        if isinstance(pattern, PVar):
            bname = pattern.name
            names, cap_src = self._captures((body,), {bname}, scope)
            body_scope = {bname: 0}
            for i, n in enumerate(names):
                body_scope[n] = i + 1
            kbind = em.const(_binder1(cap_src), "bind")
            em.emit(f"f = {kbind}(Cell.ready({scrut}), f)")
            self._emit_tail(em, body, body_scope, 1)
            return True

        if isinstance(pattern, PLit):
            em.emit(f"if isinstance({scrut}, _VIS):")
            em.emit(f"    if {scrut}.value == {pattern.value!r}:")
            self._emit_tail(em, body, scope, 3)
            em.emit("else:")
            em.emit(
                '    raise MachineError('
                '"literal pattern against non-literal")'
            )
            return False

        # PCon (flat: every sub-pattern is PVar or PWild — checked by
        # the caller before fusing).
        cname = pattern.name
        take = tuple(
            (i, sub.name)
            for i, sub in enumerate(pattern.args)
            if isinstance(sub, PVar)
        )
        if not take:
            em.emit(
                f"if isinstance({scrut}, VCon) and "
                f"{scrut}.name == {cname!r}:"
            )
            self._emit_tail(em, body, scope, 2)
            return False
        bound = {n for _i, n in take}
        names, cap_src = self._captures((body,), bound, scope)
        body_scope: Dict[str, int] = {}
        for slot, (_i, n) in enumerate(take):
            body_scope[n] = slot
        k = len(take)
        for j, n in enumerate(names):
            body_scope[n] = k + j
        kpick = em.const(
            _picker(tuple(i for i, _n in take), cap_src), "pick"
        )
        em.emit(
            f"if isinstance({scrut}, VCon) and {scrut}.name == {cname!r}:"
        )
        em.emit(f"    f = {kpick}({scrut}.args, f)")
        self._emit_tail(em, body, body_scope, 2)
        return False

    # -- fused let chains (let-chain-then-tail-call) ----------------------

    def _compile_let(self, expr: Let, scope: Dict[str, int]) -> Code:
        em = _Emit()
        cur: Expr = expr
        cur_scope = scope
        while isinstance(cur, Let):
            names = [name for name, _rhs in cur.binds]
            bound = set(names)
            sub_exprs = tuple(rhs for _n, rhs in cur.binds) + (cur.body,)
            cap_names, cap_src = self._captures(sub_exprs, bound, cur_scope)
            inner_scope: Dict[str, int] = {}
            for i, n in enumerate(names):
                inner_scope[n] = i
            k = len(names)
            for j, n in enumerate(cap_names):
                inner_scope[n] = k + j
            rhs_codes = tuple(
                self.compile(rhs, inner_scope) for _n, rhs in cur.binds
            )
            n_binds = len(rhs_codes)
            krhs = em.const(rhs_codes, "rhs")
            kframer = em.const(_let_framer(n_binds, cap_src), "framer")
            em.tick()
            em.alloc(n_binds)
            em.emit("if m._tracing:")
            for _ in range(n_binds):
                em.emit('    m.sink.emit(ALLOC, kind="thunk")')
            cv = em.fresh("cells")
            em.emit(f"{cv} = [Cell(_rc, None) for _rc in {krhs}]")
            em.emit(f"f = {kframer}({cv}, f)")
            em.emit(f"for _c in {cv}:")
            em.emit("    _c.env = f")
            cur_scope = inner_scope
            cur = cur.body
        self._emit_tail(em, cur, cur_scope, 1)
        self._count("let-chain")
        return em.build()

    # -- constant-folded variable reads ----------------------------------

    def _compile_var(self, name: str, scope: Dict[str, int]) -> Code:
        if name not in scope:
            cell = self.glob.get(name)
            if cell is not None and cell.state == 2:
                value = cell.value

                def folded_var(m, f):
                    st = m.stats
                    st.steps += 1
                    if st.steps > m._watch:
                        m._tick_slow()
                    return value

                self._count("folded-cells")
                return folded_var
        return super()._compile_var(name, scope)


def compile_super(
    expr: Expr,
    glob: Optional[Dict[str, Cell]],
    strategy,
    counters: Optional[Dict[str, int]] = None,
) -> Code:
    """Lower ``expr`` with superinstruction fusion against the global
    environment ``glob`` — the fusing analogue of
    :func:`repro.machine.compile.compile_top`."""
    return _SuperCompiler(glob or {}, strategy, counters).compile(expr, {})


class SuperMachine(Machine):
    """The ``backend="super"`` machine.

    Everything observable — heap cells, stats, sinks, strategies,
    primitive semantics, exception conversion, interrupt points — is
    inherited from :class:`Machine`; only *how expressions run*
    differs.  ``eval`` dispatches on what it is handed: an AST
    :class:`Expr` (with a dict environment) is lowered by
    :func:`compile_super` first; already-lowered code (with a frame) —
    the payload of cells this backend allocates, or a closure-tier
    program from :func:`repro.machine.compile.compile_top` — enters the
    work-loop directly.
    """

    def __init__(
        self,
        strategy=None,
        fuel: int = 2_000_000,
        detect_blackholes: bool = True,
        event_plan=None,
        sink=None,
        *,
        backend: str = "super",
    ) -> None:
        if backend != "super":
            raise ValueError(
                f"SuperMachine only supports backend='super', "
                f"got {backend!r}"
            )
        super().__init__(
            strategy,
            fuel,
            detect_blackholes,
            event_plan,
            sink,
            backend="super",
        )
        self.fusion_stats: Dict[str, int] = dict.fromkeys(_FUSION_KINDS, 0)

    def fusion_report(self) -> Dict[str, int]:
        """How many sites each fusion shape claimed across every
        compilation this machine has run (diagnostics; not part of the
        observable contract)."""
        return dict(self.fusion_stats)

    def eval(self, expr, env):
        if isinstance(expr, Expr):
            expr, env = (
                compile_super(expr, env, self.strategy, self.fusion_stats),
                (),
            )
        # _run, inlined: eval is the per-force entry point (Cell.force
        # calls it), so one fewer Python frame matters here.
        result = expr(self, env)
        while result.__class__ is tuple:
            code, frame = result
            result = code(self, frame)
        return result

    def bind_cell(self, fn, arg_cell: Cell) -> Cell:
        return Cell(fn.code, (arg_cell,) + fn.captures)
