"""Observations: running the machine and classifying the outcome.

An observation of an expression is one of

* ``Normal(value)`` — WHNF reached,
* ``Exceptional(exc)`` — the machine encountered ``exc`` first (the
  single representative of the denoted exception set, Section 3.5),
* ``Diverged()`` — fuel ran out.

The bridge to the denotational layer (the soundness property tested in
``tests/integration/test_soundness.py``): if ``observe(e)`` is
``Exceptional(x)`` then ``[e] = Bad s`` with ``x ∈ s``; if it is
``Normal(v)`` then ``[e] = Ok v'`` with ``v`` matching ``v'``; if it is
``Diverged()`` then ``NonTermination ∈ s`` (i.e. ``[e] = ⊥``, since our
denotational ⊥ is the only set containing NonTermination for
machine-generated programs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.core.excset import Exc
from repro.lang.ast import Expr, Program
from repro.machine.eval import Env, Machine, program_env
from repro.machine.heap import AsyncInterrupt, Cell, MachineDiverged, ObjRaise
from repro.machine.strategy import Strategy
from repro.machine.values import VCon, VFun, VInt, VIO, VStr, Value
from repro.obs.sinks import TraceSink, is_live


@dataclass(frozen=True)
class Normal:
    value: Value

    def __str__(self) -> str:
        return f"Normal({self.value})"


@dataclass(frozen=True)
class Exceptional:
    """The machine hit ``exc`` first (the observed set member).

    ``provenance`` is the raise's journey
    (:class:`repro.obs.provenance.RaiseProvenance`), recorded only
    under ``observe(..., provenance=True)``.  It is ``compare=False``:
    two outcomes observing the same member are equal whether or not
    either carries provenance, so oracle verdicts never see it.
    """

    exc: Exc
    provenance: Optional[object] = field(
        default=None, compare=False, repr=False
    )

    def __str__(self) -> str:
        return f"Exceptional({self.exc})"


@dataclass(frozen=True)
class Diverged:
    def __str__(self) -> str:
        return "Diverged"


Outcome = Union[Normal, Exceptional, Diverged]


def _prepare_machine(
    machine: Optional[Machine],
    strategy: Optional[Strategy],
    fuel: int,
    sink: Optional[TraceSink],
    reset_stats: bool,
    backend: str = "ast",
) -> Machine:
    """Shared observation setup: build or recycle a machine.

    Stats lifecycle is explicit (reset-per-observe): a recycled
    machine's counters are zeroed so every observation reports its own
    cost, while the remaining fuel budget and pending async events are
    rebased, not forgotten (see :meth:`Machine.reset_stats`).
    """
    if machine is None:
        return Machine(strategy=strategy, fuel=fuel, sink=sink, backend=backend)
    if reset_stats:
        machine.reset_stats()
    if is_live(sink):
        machine.attach_sink(sink)
    return machine


def observe(
    expr: Expr,
    env: Optional[Env] = None,
    machine: Optional[Machine] = None,
    strategy: Optional[Strategy] = None,
    fuel: int = 2_000_000,
    deep: bool = False,
    sink: Optional[TraceSink] = None,
    reset_stats: bool = True,
    backend: str = "ast",
    provenance: bool = False,
) -> Outcome:
    """Run ``expr`` to WHNF (or, with ``deep=True``, to full normal
    form) and classify the outcome.  ``backend`` selects the evaluator
    when no ``machine`` is passed (docs/PERFORMANCE.md).

    ``provenance=True`` attaches a raise-provenance recorder for this
    observation (detached afterwards): an ``Exceptional`` outcome then
    carries where its member was raised and the force chain that got
    there (docs/OBSERVABILITY.md, "Provenance & attribution")."""
    machine = _prepare_machine(
        machine, strategy, fuel, sink, reset_stats, backend
    )
    if provenance:
        from repro.obs.provenance import ProvenanceRecorder

        machine.attach_provenance(ProvenanceRecorder())
    try:
        # The evaluator never mutates the caller's env dict (App/Let
        # copy-on-extend; the ``super`` backend only reads it), so no
        # defensive copy is needed here.
        value = machine.eval(expr, env if env is not None else {})
        if deep:
            value = deep_force(value, machine)
        return Normal(value)
    except ObjRaise as err:
        return Exceptional(err.exc, provenance=err.provenance)
    except AsyncInterrupt as err:
        return Exceptional(err.exc, provenance=err.provenance)
    except MachineDiverged:
        return Diverged()
    finally:
        if provenance:
            machine.attach_provenance(None)


def observe_program(
    program: Program,
    entry: str = "main",
    machine: Optional[Machine] = None,
    strategy: Optional[Strategy] = None,
    fuel: int = 2_000_000,
    base: Optional[Env] = None,
    deep: bool = False,
    sink: Optional[TraceSink] = None,
    reset_stats: bool = True,
    backend: str = "ast",
    provenance: bool = False,
) -> Outcome:
    machine = _prepare_machine(
        machine, strategy, fuel, sink, reset_stats, backend
    )
    if provenance:
        from repro.obs.provenance import ProvenanceRecorder

        machine.attach_provenance(ProvenanceRecorder())
    env = program_env(program, machine, base)
    cell = env.get(entry)
    if cell is None:
        raise KeyError(f"no top-level binding {entry!r}")
    try:
        value = cell.force(machine)
        if deep:
            value = deep_force(value, machine)
        return Normal(value)
    except ObjRaise as err:
        return Exceptional(err.exc, provenance=err.provenance)
    except AsyncInterrupt as err:
        return Exceptional(err.exc, provenance=err.provenance)
    except MachineDiverged:
        return Diverged()
    finally:
        if provenance:
            machine.attach_provenance(None)


def deep_force(value: Value, machine: Machine) -> Value:
    """Force a value hyper-strictly (every constructor field).

    This is the "force evaluation of all the elements" operation the
    paper describes for making sure a structure contains no exceptional
    values (Section 3.2).  Exceptions lurking inside fields propagate —
    the first one encountered in field order wins, mirroring a
    ``seq``-chain in the object language.
    """
    if isinstance(value, VCon):
        for cell in value.args:
            deep_force(cell.force(machine), machine)
    return value


def _show_cell(cell: "Cell", machine: Machine, depth: int) -> str:
    """Render a lazy field, showing a lurking exception as <raise x>."""
    try:
        return show_value(cell.force(machine), machine, depth)
    except ObjRaise as err:
        return f"<raise {err.exc}>"
    except MachineDiverged:
        return "<diverges>"


def show_value(value: Value, machine: Machine, depth: int = 50) -> str:
    """Render a machine value for output, forcing as needed.

    Exceptional values lurking inside lazy structure (Section 3.2) are
    rendered as ``<raise x>`` rather than aborting the whole rendering.
    """
    if isinstance(value, VInt):
        return str(value.value)
    if isinstance(value, VStr):
        return repr(value.value)
    if isinstance(value, VFun):
        return "<function>"
    if isinstance(value, VIO):
        return f"<io:{value.tag}>"
    if isinstance(value, VCon):
        if depth <= 0:
            return "..."
        if value.name == "Cons":
            items: List[str] = []
            current: Value = value
            while (
                isinstance(current, VCon)
                and current.name == "Cons"
                and depth > 0
            ):
                items.append(_show_cell(current.args[0], machine, depth - 1))
                try:
                    current = current.args[1].force(machine)
                except ObjRaise as err:
                    items.append(f"<raise {err.exc}>")
                    return "[" + ", ".join(items) + "?"
                depth -= 1
            if isinstance(current, VCon) and current.name == "Nil":
                return "[" + ", ".join(items) + "]"
            return "[" + ", ".join(items) + ", ...]"
        if not value.args:
            return value.name
        inner = " ".join(
            _show_cell(cell, machine, depth - 1) for cell in value.args
        )
        return f"({value.name} {inner})"
    return str(value)
