"""The lazy graph-reduction evaluator.

Call-by-need: function arguments and constructor fields are heap cells
(thunks) that memoise on first force.  ``raise`` is implemented exactly
as Section 3.3 sketches: it "simply trims the stack" — here by raising
:class:`repro.machine.heap.ObjRaise` — and the cells under evaluation
are overwritten with ``raise ex`` as it unwinds (see ``Cell.force``).
The efficiency claim reproduced by E1 falls out of this design: code
that does not raise never touches any of the exception machinery.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.excset import (
    DIVIDE_BY_ZERO,
    Exc,
    NON_TERMINATION,
    OVERFLOW,
    PATTERN_MATCH_FAIL,
    user_error,
)
from repro.lang.ast import (
    App,
    Case,
    Con,
    Expr,
    Fix,
    Lam,
    Let,
    Lit,
    Pattern,
    PCon,
    PLit,
    PrimOp,
    Program,
    PVar,
    PWild,
    Raise,
    Var,
)
from repro.lang.ops import INT_MAX, INT_MIN
from repro.machine.heap import (
    AsyncInterrupt,
    Cell,
    MachineDiverged,
    ObjRaise,
)
from repro.machine.strategy import LeftToRight, Strategy
from repro.machine.values import VCon, VFun, VInt, VIO, VStr, Value
from repro.obs.events import (
    ALLOC,
    ASYNC_INTERRUPT,
    BLACKHOLE_ENTER,
    FORCE,
    FORCE_END,
    FUEL_GRANT,
    IO_ACTION,
    MEMO_RERAISE,
    PRIM_RAISE,
    RAISE,
    STEP,
)
from repro.obs.sinks import TraceSink, is_live

Env = Dict[str, Cell]

BACKENDS = ("ast", "super")

_MIN_RECURSION_LIMIT = 200_000

#: The watermark no run reaches: "no consumer needs this counter".
NEVER = 1 << 62


def _ensure_recursion_headroom() -> None:
    if sys.getrecursionlimit() < _MIN_RECURSION_LIMIT:
        sys.setrecursionlimit(_MIN_RECURSION_LIMIT)


# Lazy IO constructors: primop name -> VIO tag.  Shared with the
# closure lowering (repro.machine.compile) so the two stay in lockstep.
_IO_TAGS = {
    "returnIO": "return",
    "bindIO": "bind",
    "putChar": "putChar",
    "putStr": "putStr",
    "getException": "getException",
    "ioError": "ioError",
    "catchIO": "catch",
    "forkIO": "fork",
    "newMVar": "newMVar",
    "takeMVar": "takeMVar",
    "putMVar": "putMVar",
}


_STAT_FIELDS = (
    "steps",
    "allocations",
    "thunks_forced",
    "raises",
    "prim_ops",
    "force_depth",
    "max_force_depth",
)


@dataclass(frozen=True)
class StatsSnapshot:
    """An immutable point-in-time copy of :class:`MachineStats`.

    Benchmarks and the profiler hold snapshots, never the live
    (mutating) counters, so a recorded row cannot drift if the machine
    keeps running.
    """

    steps: int = 0
    allocations: int = 0
    thunks_forced: int = 0
    raises: int = 0
    prim_ops: int = 0
    force_depth: int = 0
    max_force_depth: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in _STAT_FIELDS}


@dataclass(slots=True)
class MachineStats:
    """Operation counters, the measurement substrate for E1/E2/E4.

    ``max_force_depth`` is the deepest chain of nested thunk forcings —
    the machine analogue of stack build-up from long chains of lazy
    accumulators, which strictness-driven call-by-value flattens (E4).

    The ``prim_raises`` … ``io_actions`` fields count the rare trace
    events at their emission sites, sink or no sink, so
    :meth:`event_counts` can report a run's event totals without a
    :class:`~repro.obs.sinks.CountingSink`.  They are not part of
    :meth:`as_dict` (the ``stats`` block clients see).

    Lifecycle: counters belong to one observation.  A fresh machine
    starts at zero; reusing a machine across observations goes through
    :meth:`Machine.reset_stats` (which also rebases the fuel budget and
    pending async events, so only the *counters* restart).  Consumers
    that need a stable record take :meth:`snapshot`.
    """

    steps: int = 0
    allocations: int = 0
    thunks_forced: int = 0
    raises: int = 0
    prim_ops: int = 0
    force_depth: int = 0
    max_force_depth: int = 0
    prim_raises: int = 0
    memo_reraises: int = 0
    blackhole_entries: int = 0
    async_interrupts: int = 0
    fuel_grants: int = 0
    io_actions: int = 0

    def snapshot(self) -> StatsSnapshot:
        return StatsSnapshot(
            self.steps,
            self.allocations,
            self.thunks_forced,
            self.raises,
            self.prim_ops,
            self.force_depth,
            self.max_force_depth,
        )

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in _STAT_FIELDS}

    def event_counts(self) -> Dict[str, int]:
        """The machine-layer event totals, exactly as a
        :class:`~repro.obs.sinks.CountingSink` attached for the same
        run would report them (``as_dict``: name-sorted, zero counts
        omitted).  The common events are in lockstep with the core
        counters — one ``step`` per step, one ``alloc`` per
        allocation, one ``force``/``force-end`` pair per thunk forced,
        one ``raise`` per ``raises`` — and the rare ones have their own
        counters (tests/serve/test_event_counters.py)."""
        counts = {
            ALLOC: self.allocations,
            ASYNC_INTERRUPT: self.async_interrupts,
            BLACKHOLE_ENTER: self.blackhole_entries,
            FORCE: self.thunks_forced,
            FORCE_END: self.thunks_forced,
            FUEL_GRANT: self.fuel_grants,
            IO_ACTION: self.io_actions,
            MEMO_RERAISE: self.memo_reraises,
            PRIM_RAISE: self.prim_raises,
            RAISE: self.raises,
            STEP: self.steps,
        }
        return {name: n for name, n in sorted(counts.items()) if n}


class MachineError(Exception):
    """An ill-typed program reached the machine."""


class Machine:
    """The evaluator.

    Parameters
    ----------
    strategy:
        Evaluation order for strict primitive arguments (the
        imprecision knob).
    fuel:
        Step budget; exhaustion raises :class:`MachineDiverged`.
    detect_blackholes:
        Section 5.2: report a re-entered thunk as ``NonTermination``
        (True) or genuinely diverge (False).
    event_plan:
        Optional mapping step-number -> asynchronous :class:`Exc`
        (Section 5.1): when the step counter passes such a step the
        event is raised as an :class:`AsyncInterrupt`.
    sink:
        Optional :class:`repro.obs.sinks.TraceSink` receiving
        structured events (the observability decoration).  ``None``
        and the null sink are equivalent: emission sites compile to a
        single pre-computed boolean test, so untraced runs execute the
        same instruction sequence as a sink-less machine ("tracing is
        free when off" — benchmarks/bench_trace_overhead.py).
    backend:
        ``"ast"`` (default) walks the AST directly; ``"super"``
        lowers each expression once to Python code over slot-addressed
        frames, fusing recurring step sequences into single Python
        frames (repro.machine.superop) and checking interrupts at every
        virtual step boundary.  It also runs code from the plain
        closure lowering (repro.machine.compile), the first tier of a
        served program.  Both backends satisfy the same observation
        contract — identical outcomes, counters and trace events
        (docs/PERFORMANCE.md, tests/machine/test_backends.py).
    """

    def __new__(cls, *args, **kwargs):
        if cls is Machine:
            if kwargs.get("backend", "ast") == "super":
                from repro.machine.superop import SuperMachine

                return super().__new__(SuperMachine)
        return super().__new__(cls)

    def __init__(
        self,
        strategy: Optional[Strategy] = None,
        fuel: int = 2_000_000,
        detect_blackholes: bool = True,
        event_plan: Optional[Dict[int, Exc]] = None,
        sink: Optional[TraceSink] = None,
        *,
        backend: str = "ast",
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.backend = backend
        if backend == "ast":
            # The lowered backend runs tails in an explicit work-loop
            # and needs no extra Python stack; only the tree-walker
            # recurses per spine node.
            _ensure_recursion_headroom()
        self.strategy = strategy or LeftToRight()
        self._fuel = fuel
        self.detect_blackholes = detect_blackholes
        self.stats = MachineStats()
        self._events = deque(sorted(event_plan.items())) if event_plan else deque()
        self.sink = sink
        self._tracing = is_live(sink)
        self._prov = None
        self._governor = None
        self._fault = None
        self._gate = None
        self._watchers: Tuple = ()
        # The step watermark: the hot tick takes the slow path only
        # once ``stats.steps`` exceeds it, i.e. at the next step some
        # consumer (fuel ceiling, event plan, trace sink, governor,
        # fault plan, slice gate) actually needs.  ``_awatch`` is the
        # allocation watermark: an allocation that takes
        # ``stats.allocations`` past it drops ``_watch`` to -1, so the
        # very next tick is slow.  ``_tick_slow`` re-arms both.
        self._watch = -1
        self._awatch = NEVER
        self._woken = False
        self._rearm()

    @property
    def fuel(self) -> int:
        """The step budget, as an absolute step threshold: the machine
        diverges at the first step past it."""
        return self._fuel

    @fuel.setter
    def fuel(self, value: int) -> None:
        self._fuel = value
        self._rearm()

    # -- observability ----------------------------------------------------

    def attach_sink(self, sink: Optional[TraceSink]) -> None:
        """Attach (or detach, with None/null) a trace sink."""
        self.sink = sink
        self._tracing = is_live(sink)
        self._rearm()

    def attach_governor(self, governor) -> None:
        """Attach (or detach, with None) a per-request resource governor
        (:class:`repro.serve.governor.ResourceGovernor`-shaped: any
        object with ``poll(machine) -> Optional[Exc]`` and
        ``watermarks(machine)``, see :meth:`_rearm`).

        The governor is consulted on the slow half of the ticks it
        asks for (see :meth:`_rearm`); a non-None result is delivered
        as a Section 5.1 asynchronous interrupt
        (``Timeout``/``HeapOverflow`` are *fictitious exceptions* in
        the paper's sense — outcomes of the observation, not members
        computed by the semantics)."""
        self._governor = governor
        self._attached()

    def attach_fault_plan(self, plan) -> None:
        """Attach (or detach, with None) a chaos fault plan
        (:class:`repro.chaos.faults.FaultPlan`-shaped: any object with
        ``on_step(machine) -> Optional[Exc]`` and
        ``watermarks(machine)``).  Consulted at step
        boundaries, exactly like the Section 5.1 event plan — injected
        faults are asynchronous interrupts, never silent corruption."""
        self._fault = plan
        self._attached()

    def attach_slice_gate(self, gate) -> None:
        """Attach (or detach, with None) a cooperative slice gate
        (:class:`repro.machine.slices.SliceGate`-shaped: any object
        with ``on_tick(machine)`` and ``watermarks(machine)``).

        The gate is consulted on the slow half of a tick, *after*
        the governor poll and *before* the fuel check: when the
        granted slice budget is spent it parks the evaluation in place
        (the Python frame stack *is* the continuation) instead of
        raising divergence, and it may deliver a pending Section 5.1
        interrupt through :meth:`_interrupt` — the same path the event
        plan, fault injector and governor use, so a scheduler's
        preemption is observationally an ordinary async signal."""
        self._gate = gate
        self._attached()

    def _attached(self) -> None:
        self._watchers = tuple(
            consumer.watermarks
            for consumer in (self._fault, self._governor, self._gate)
            if consumer is not None
        )
        self._rearm()

    def _rearm(self) -> None:
        """Re-arm the step and allocation watermarks: the next step
        any consumer needs a slow tick at.

        A consumer (governor, fault plan, slice gate) answers
        ``watermarks(machine) -> (step_mark, alloc_mark)``: its next
        slow tick is due at the first step boundary where
        ``stats.steps > step_mark`` or ``stats.allocations >
        alloc_mark``.  Calling a consumer at a step it did not ask for
        is a no-op by contract, so the slow ticks are a superset of
        the per-step poll's *acting* ticks and every trip lands on the
        same step it always did.  A live trace sink needs every step.
        """
        self._woken = False
        mark = -1 if self._tracing else self._fuel
        amark = NEVER
        if self._events:
            mark = min(mark, self._events[0][0] - 1)
        for watermarks in self._watchers:
            step_mark, alloc_mark = watermarks(self)
            if step_mark < mark:
                mark = step_mark
            if alloc_mark < amark:
                amark = alloc_mark
        if self.stats.allocations > amark:
            mark = -1
        self._awatch = amark
        self._watch = mark
        if self._woken:
            # A cross-thread wake() raced this re-arm: keep it.
            self._watch = -1

    def wake(self) -> None:
        """Make the next tick slow.  Safe to call from any thread: the
        hook a consumer uses when an injection (a governor ``inject``,
        a slice-gate interrupt) must be delivered at the next step
        boundary rather than at the next watermark."""
        self._woken = True
        self._watch = -1

    def attach_provenance(self, recorder) -> None:
        """Attach (or detach, with None) a raise-provenance recorder
        (:class:`repro.obs.provenance.ProvenanceRecorder`).

        Same discipline as :meth:`attach_sink`: the raising sites guard
        on one precomputed attribute (``self._prov``), so a machine
        without a recorder runs the seed's instruction sequence."""
        self._prov = recorder

    def reset_stats(self) -> StatsSnapshot:
        """Start a fresh observation on this machine: zero the
        counters, returning a snapshot of the old ones.

        The *semantic* state is rebased, not reset: the remaining fuel
        budget and the pending async event plan are expressed relative
        to the new step counter, so a ``grant_fuel`` allowance or a
        scheduled interrupt survives the reset unchanged.  (Fuel is an
        absolute step threshold — see :meth:`grant_fuel` — so without
        rebasing, a reset would silently inflate the budget.)
        """
        old = self.stats.snapshot()
        consumed = old.steps
        self._fuel -= consumed
        if self._events:
            self._events = deque(
                (max(1, at - consumed), exc) for at, exc in self._events
            )
        self.stats = MachineStats()
        self._rearm()
        return old

    # -- stepping -------------------------------------------------------

    def _tick(self) -> None:
        # Hot path: one increment and one (usually false) compare.  The
        # lowered backend inlines this exact sequence per node, so all
        # backends count steps identically.
        self.stats.steps += 1
        if self.stats.steps > self._watch:
            self._tick_slow()

    def _tick_slow(self) -> None:
        """The rare-path half of a step: trace emission, async event
        delivery, fault injection, governor polling, slice gating and
        fuel exhaustion — run only at the steps the watermark names
        (see :meth:`_rearm`), and re-arming it on the way out, whether
        the step ends normally or by an interrupt.  ``stats.steps`` has
        already been incremented by the caller."""
        try:
            if self._tracing:
                self.sink.emit(STEP, n=self.stats.steps)
            if self._events and self.stats.steps >= self._events[0][0]:
                _step, exc = self._events.popleft()
                self._interrupt(exc)
            if self._fault is not None:
                exc = self._fault.on_step(self)
                if exc is not None:
                    self._interrupt(exc)
            if self._governor is not None:
                exc = self._governor.poll(self)
                if exc is not None:
                    self._interrupt(exc)
            if self._gate is not None:
                self._gate.on_tick(self)
            if self.stats.steps > self._fuel:
                raise MachineDiverged(
                    f"fuel exhausted after {self.stats.steps} steps"
                )
        finally:
            if not self._tracing:  # a live sink keeps every tick slow
                self._rearm()

    def _interrupt(self, exc: Exc) -> None:
        """Deliver ``exc`` as a Section 5.1 asynchronous interrupt at
        the current step — the single delivery path shared by the event
        plan, the fault injector and the resource governor, so all
        three are observationally indistinguishable from a real
        asynchronous signal."""
        self.stats.async_interrupts += 1
        if self._tracing:
            self.sink.emit(
                ASYNC_INTERRUPT, exc=exc.name, at=self.stats.steps
            )
        err = AsyncInterrupt(exc)
        if self._prov is not None:
            # Async events have no raise *site*; the force chain
            # still records where evaluation was interrupted.
            self._prov.annotate(err, None, self.stats)
        raise err

    def alloc(self, expr: Expr, env: Env) -> Cell:
        stats = self.stats
        stats.allocations += 1
        if stats.allocations > self._awatch:
            self._watch = -1
        if self._tracing:
            self.sink.emit(ALLOC, kind="thunk")
        return Cell(expr, env)

    def grant_fuel(self, extra: int) -> None:
        """Extend the step budget — used by the Section 5.1 timeout
        monitor after aborting a too-long evaluation, so the program's
        continuation gets a fresh allowance."""
        self.fuel = self.stats.steps + extra
        self.stats.fuel_grants += 1
        if self._tracing:
            self.sink.emit(FUEL_GRANT, extra=extra, budget=self.fuel)

    def bind_cell(self, fn: VFun, arg_cell: Cell) -> Cell:
        """A cell that, when forced, runs ``fn``'s body with
        ``arg_cell`` bound to its parameter — the backend-neutral
        application primitive.  The IO executor and the concurrency
        scheduler apply continuations through this instead of poking
        closure internals, so they work unchanged on both backends."""
        env = dict(fn.env)
        env[fn.var] = arg_cell
        return Cell(fn.body, env)

    # -- evaluation -------------------------------------------------------

    def eval(self, expr: Expr, env: Env) -> Value:
        """Evaluate to weak head normal form."""
        while True:
            self._tick()
            if isinstance(expr, Var):
                cell = env.get(expr.name)
                if cell is None:
                    raise MachineError(f"unbound variable {expr.name!r}")
                return cell.force(self)
            if isinstance(expr, Lit):
                if expr.kind == "int":
                    return VInt(int(expr.value))
                return VStr(str(expr.value))
            if isinstance(expr, Lam):
                return VFun(expr.var, expr.body, env)
            if isinstance(expr, App):
                fn = self.eval(expr.fn, env)
                if not isinstance(fn, VFun):
                    raise MachineError(f"applied non-function {fn}")
                arg = self.alloc(expr.arg, env)
                env = dict(fn.env)
                env[fn.var] = arg
                expr = fn.body
                continue  # tail-call into the body
            if isinstance(expr, Con):
                self.stats.allocations += 1
                if self.stats.allocations > self._awatch:
                    self._watch = -1
                if self._tracing:
                    self.sink.emit(ALLOC, kind="con")
                return VCon(
                    expr.name,
                    tuple(self.alloc(a, env) for a in expr.args),
                )
            if isinstance(expr, Case):
                scrut = self.eval(expr.scrutinee, env)
                matched = None
                for alt in expr.alts:
                    bindings = self._match(alt.pattern, scrut)
                    if bindings is not None:
                        matched = (alt.body, bindings)
                        break
                if matched is None:
                    self.stats.raises += 1
                    if self._tracing:
                        self.sink.emit(
                            RAISE,
                            exc=PATTERN_MATCH_FAIL.name,
                            span=expr.span,
                        )
                    err = ObjRaise(PATTERN_MATCH_FAIL)
                    if self._prov is not None:
                        self._prov.annotate(err, expr.span, self.stats)
                    raise err
                body, bindings = matched
                if bindings:
                    env = dict(env)
                    env.update(bindings)
                expr = body
                continue
            if isinstance(expr, Raise):
                value = self.eval(expr.exc, env)
                self.stats.raises += 1
                exc = self.exc_of_value(value)
                if self._tracing:
                    self.sink.emit(RAISE, exc=exc.name, span=expr.span)
                err = ObjRaise(exc)
                if self._prov is not None:
                    self._prov.annotate(err, expr.span, self.stats)
                raise err
            if isinstance(expr, PrimOp):
                return self._prim(expr, env)
            if isinstance(expr, Fix):
                fn = self.eval(expr.fn, env)
                if not isinstance(fn, VFun):
                    raise MachineError("fix of a non-function")
                knot = Cell(None, None)
                inner = dict(fn.env)
                inner[fn.var] = knot
                knot.expr = fn.body
                knot.env = inner
                # The knot cell computes the body with itself bound to
                # the recursive variable: fix f = f (fix f).
                return knot.force(self)
            if isinstance(expr, Let):
                env = dict(env)
                for name, rhs in expr.binds:
                    env[name] = self.alloc(rhs, env)
                # Recursive scope: the cells must see the extended env.
                for name, _rhs in expr.binds:
                    env[name].env = env
                expr = expr.body
                continue
            raise MachineError(f"eval: unknown expression {expr!r}")

    # -- pattern matching --------------------------------------------------

    def _match(
        self, pattern: Pattern, value: Value
    ) -> Optional[Dict[str, Cell]]:
        if isinstance(pattern, PWild):
            return {}
        if isinstance(pattern, PVar):
            return {pattern.name: Cell.ready(value)}
        if isinstance(pattern, PLit):
            if isinstance(value, VInt):
                return {} if value.value == pattern.value else None
            if isinstance(value, VStr):
                return {} if value.value == pattern.value else None
            raise MachineError("literal pattern against non-literal")
        if isinstance(pattern, PCon):
            if not isinstance(value, VCon) or value.name != pattern.name:
                return None
            bindings: Dict[str, Cell] = {}
            for sub, cell in zip(pattern.args, value.args):
                if isinstance(sub, PVar):
                    bindings[sub.name] = cell
                elif not isinstance(sub, PWild):
                    raise MachineError(
                        "nested pattern reached the machine; run "
                        "flatten_case_patterns first"
                    )
            return bindings
        raise MachineError(f"unknown pattern {pattern!r}")

    # -- exceptions ---------------------------------------------------------

    def exc_of_value(self, value: Value) -> Exc:
        """Convert an ``Exception``-typed machine value to an Exc."""
        if not isinstance(value, VCon):
            raise MachineError(f"raise applied to non-Exception {value}")
        if value.name == "UserError":
            msg = value.args[0].force(self) if value.args else VStr("")
            if not isinstance(msg, VStr):
                raise MachineError("UserError message is not a string")
            return user_error(msg.value)
        synchronous = value.name not in (
            "NonTermination",
            "ControlC",
            "Timeout",
            "StackOverflow",
            "HeapOverflow",
        )
        return Exc(value.name, synchronous=synchronous)

    def value_of_exc(self, exc: Exc) -> VCon:
        if exc.arg is not None:
            return VCon(exc.name, (Cell.ready(VStr(exc.arg)),))
        return VCon(exc.name)

    # -- primitives ----------------------------------------------------------

    def _prim(self, expr: PrimOp, env: Env) -> Value:
        op = expr.op
        self.stats.prim_ops += 1

        # Lazy IO constructors.
        tag = _IO_TAGS.get(op)
        if tag is not None:
            return VIO(tag, tuple(self.alloc(a, env) for a in expr.args))
        if op == "getChar":
            return VIO("getChar")
        if op == "newEmptyMVar":
            return VIO("newEmptyMVar")
        if op == "yieldIO":
            return VIO("yield")

        if op == "seq":
            self.eval(expr.args[0], env)
            return self.eval(expr.args[1], env)

        if op == "mapException":
            return self._map_exception(expr, env)

        # Strict primitives: evaluate arguments in strategy order.  The
        # *first* exception encountered propagates — this is the single
        # representative of the denoted set (Section 3.5).
        n = len(expr.args)
        values: List[Optional[Value]] = [None] * n
        if self._prov is None and not self._tracing:
            for idx in self.strategy.order(op, n):
                values[idx] = self.eval(expr.args[idx], env)
            try:
                return self._apply_prim(op, values)
            except ObjRaise:
                self.stats.prim_raises += 1
                raise
        # Recording/tracing path.  Two raise origins are distinguished:
        # an exception *propagating* out of argument evaluation (its
        # provenance already annotated at a tighter site; no event —
        # the inner raise already emitted one), versus one *originated*
        # by the application itself (div-by-zero, overflow from ⊕) —
        # those are annotated with this PrimOp's span and emit the
        # distinct `prim-raise` event, never `raise` (the latter stays
        # in lockstep with stats.raises).
        try:
            for idx in self.strategy.order(op, n):
                values[idx] = self.eval(expr.args[idx], env)
        except ObjRaise as err:
            if self._prov is not None:
                self._prov.annotate(err, expr.span, self.stats)
            raise
        try:
            return self._apply_prim(op, values)
        except ObjRaise as err:
            self.stats.prim_raises += 1
            if self._tracing:
                self.sink.emit(
                    PRIM_RAISE, exc=err.exc.name, span=expr.span
                )
            if self._prov is not None:
                self._prov.annotate(err, expr.span, self.stats)
            raise

    def _map_exception(self, expr: PrimOp, env: Env) -> Value:
        """``mapException f e``: force ``e``; apply ``f`` to the sole
        representative of the set if an exception comes out
        (Section 5.4's implementation reading)."""
        fn_expr, arg_expr = expr.args
        try:
            return self.eval(arg_expr, env)
        except ObjRaise as err:
            fn = self.eval(fn_expr, env)
            if not isinstance(fn, VFun):
                raise MachineError("mapException: non-function mapper")
            inner = dict(fn.env)
            inner[fn.var] = Cell.ready(self.value_of_exc(err.exc))
            mapped = self.eval(fn.body, inner)
            new_err = ObjRaise(self.exc_of_value(mapped))
            if self._prov is not None:
                # The image exception is a *new* member: its site is
                # the mapException application itself.
                self._prov.annotate(new_err, expr.span, self.stats)
            raise new_err from None

    def _apply_prim(self, op: str, values: List[Optional[Value]]) -> Value:
        if op in ("+", "-", "*", "div", "mod"):
            a, b = values
            if not isinstance(a, VInt) or not isinstance(b, VInt):
                raise MachineError(f"{op} on non-integers")
            return self._arith(op, a.value, b.value)
        if op in ("uadd", "usub", "umul", "udiv", "umod"):
            a, b = values
            if not isinstance(a, VInt) or not isinstance(b, VInt):
                raise MachineError(f"{op} on non-integers")
            if op == "uadd":
                return VInt(a.value + b.value)
            if op == "usub":
                return VInt(a.value - b.value)
            if op == "umul":
                return VInt(a.value * b.value)
            if b.value == 0:
                raise MachineError(
                    f"{op} by zero: the encoding must guard divisors"
                )
            if op == "udiv":
                return VInt(a.value // b.value)
            return VInt(a.value % b.value)
        if op == "unegate":
            (a,) = values
            assert isinstance(a, VInt)
            return VInt(-a.value)
        if op == "negate":
            (a,) = values
            if not isinstance(a, VInt):
                raise MachineError("negate on a non-integer")
            if not (INT_MIN < -a.value < INT_MAX):
                raise ObjRaise(OVERFLOW)
            return VInt(-a.value)
        if op in ("==", "/=", "<", "<=", ">", ">="):
            a, b = values
            av = a.value if isinstance(a, (VInt, VStr)) else None
            bv = b.value if isinstance(b, (VInt, VStr)) else None
            if av is None or bv is None:
                raise MachineError(f"{op} compares base values only")
            result = {
                "==": av == bv,
                "/=": av != bv,
                "<": av < bv,
                "<=": av <= bv,
                ">": av > bv,
                ">=": av >= bv,
            }[op]
            return VCon("True" if result else "False")
        if op == "strAppend":
            a, b = values
            assert isinstance(a, VStr) and isinstance(b, VStr)
            return VStr(a.value + b.value)
        if op == "strLen":
            (a,) = values
            assert isinstance(a, VStr)
            return VInt(len(a.value))
        if op == "showInt":
            (a,) = values
            assert isinstance(a, VInt)
            return VStr(str(a.value))
        if op == "ord":
            (a,) = values
            assert isinstance(a, VStr)
            return VInt(ord(a.value))
        if op == "chr":
            (a,) = values
            assert isinstance(a, VInt)
            if not (0 <= a.value < 0x110000):
                raise ObjRaise(OVERFLOW)
            return VStr(chr(a.value))
        raise MachineError(f"unknown primitive {op!r}")

    def _arith(self, op: str, a: int, b: int) -> Value:
        if op == "+":
            result = a + b
        elif op == "-":
            result = a - b
        elif op == "*":
            result = a * b
        else:
            if b == 0:
                raise ObjRaise(DIVIDE_BY_ZERO)
            result = a // b if op == "div" else a % b
        if not (INT_MIN < result < INT_MAX):
            raise ObjRaise(OVERFLOW)
        return VInt(result)


def program_env(
    program: Program, machine: Machine, base: Optional[Env] = None
) -> Env:
    """Build the mutually recursive top-level environment."""
    env: Env = dict(base) if base else {}
    for name, rhs in program.binds:
        env[name] = machine.alloc(rhs, env)
    for name, _rhs in program.binds:
        env[name].env = env
    return env
