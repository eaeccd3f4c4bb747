"""Heap cells: memoised thunks with blackholing and raise-overwriting.

This implements the Section 3.3 machinery faithfully:

* on entry a thunk is overwritten with a **black hole** (avoiding the
  "celebrated space leak" and detecting some loops, Section 5.2);
* if evaluation of a thunk is abandoned by ``raise ex``, the thunk is
  overwritten with ``raise ex`` so re-evaluation raises the *same*
  exception again ("which is as it should be");
* on success the thunk is overwritten with its value.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.core.excset import Exc, NON_TERMINATION
from repro.obs.events import BLACKHOLE_ENTER, FORCE, FORCE_END, MEMO_RERAISE

if TYPE_CHECKING:
    from repro.machine.eval import Machine
    from repro.machine.values import Value


class ObjRaise(Exception):
    """An object-language exception in flight (the stack trim).

    ``provenance`` is observability metadata (a
    :class:`repro.obs.provenance.RaiseProvenance`), attached only when
    a recorder is active; the class-level default keeps the common
    constructor free of an extra store.  It travels with the Python
    exception, never with the semantic :class:`Exc` value.
    """

    provenance = None

    def __init__(self, exc: Exc) -> None:
        super().__init__(str(exc))
        self.exc = exc


class AsyncInterrupt(Exception):
    """An asynchronous event (Section 5.1) delivered mid-evaluation.

    Unlike :class:`ObjRaise` it does NOT overwrite thunks with
    ``raise ex``: the paper notes thunks must instead be overwritten
    with a "resumable continuation".  We model that by resetting
    in-flight thunks to their unevaluated state, so evaluation can be
    retried later — the behavioural content of resumability.
    """

    provenance = None

    def __init__(self, exc: Exc) -> None:
        super().__init__(str(exc))
        self.exc = exc


class MachineDiverged(Exception):
    """Fuel exhausted: the machine would run forever."""


# Cell states
_UNEVALUATED = 0
_BLACKHOLE = 1
_VALUE = 2
_RAISE = 3


class Cell:
    """One heap cell holding a lazily evaluated expression."""

    __slots__ = ("state", "expr", "env", "value", "exc")

    def __init__(self, expr, env) -> None:
        self.state = _UNEVALUATED
        self.expr = expr
        self.env = env
        self.value: Optional["Value"] = None
        self.exc: Optional[Exc] = None

    @staticmethod
    def ready(value: "Value") -> "Cell":
        cell = Cell.__new__(Cell)
        cell.state = _VALUE
        cell.expr = None
        cell.env = None
        cell.value = value
        cell.exc = None
        return cell

    @staticmethod
    def raising(exc: Exc) -> "Cell":
        cell = Cell.__new__(Cell)
        cell.state = _RAISE
        cell.expr = None
        cell.env = None
        cell.value = None
        cell.exc = exc
        return cell

    def force(self, machine: "Machine") -> "Value":
        state = self.state
        if state == _VALUE:
            assert self.value is not None
            return self.value
        if state == _RAISE:
            assert self.exc is not None
            machine.stats.memo_reraises += 1
            if machine._tracing:
                machine.sink.emit(MEMO_RERAISE, exc=self.exc.name)
            err = ObjRaise(self.exc)
            # A raising cell's `value` slot is unused; it smuggles the
            # original raise's provenance so a memoised re-raise still
            # explains itself (re-evaluation never happens, §3.3, so
            # the original record IS this raise's provenance).
            if self.value is not None:
                err.provenance = self.value
            raise err
        if state == _BLACKHOLE:
            # Re-entering a thunk under evaluation: a loop.  Section 5.2
            # permits (but does not require) reporting NonTermination.
            machine.stats.blackhole_entries += 1
            if machine._tracing:
                machine.sink.emit(
                    BLACKHOLE_ENTER, reported=machine.detect_blackholes
                )
            if machine.detect_blackholes:
                err = ObjRaise(NON_TERMINATION)
                if machine._prov is not None:
                    machine._prov.annotate(
                        err, getattr(self.expr, "span", None), machine.stats
                    )
                raise err
            raise MachineDiverged("re-entered a black hole")
        expr, env = self.expr, self.env
        self.state = _BLACKHOLE
        stats = machine.stats
        stats.thunks_forced += 1
        stats.force_depth += 1
        if stats.force_depth > stats.max_force_depth:
            stats.max_force_depth = stats.force_depth
        prov = machine._prov
        if machine._tracing:
            # `decision` is the strategy-decision clock (the number of
            # strict primitives executed so far — the same index raise
            # provenance records): it says which decision preceded the
            # demand that entered this frame.  Cell.force is shared by
            # every backend and the prim_ops counters are in lockstep,
            # so the annotation is backend-invariant by construction.
            machine.sink.emit(
                FORCE,
                depth=stats.force_depth,
                span=getattr(expr, "span", None),
                decision=stats.prim_ops,
            )
        if prov is not None:
            prov.stack.append(getattr(expr, "span", None))
        try:
            value = machine.eval(expr, env)
        except ObjRaise as err:
            # Overwrite with `raise ex` (Section 3.3).
            self.state = _RAISE
            self.exc = err.exc
            self.expr = None
            self.env = None
            self.value = err.provenance
            raise
        except AsyncInterrupt:
            # Resumable continuation (Section 5.1): restore the thunk.
            self.state = _UNEVALUATED
            self.expr = expr
            self.env = env
            raise
        except MachineDiverged:
            self.state = _UNEVALUATED
            self.expr = expr
            self.env = env
            raise
        finally:
            if prov is not None:
                prov.stack.pop()
            if machine._tracing:
                machine.sink.emit(FORCE_END, depth=stats.force_depth)
            stats.force_depth -= 1
        self.state = _VALUE
        self.value = value
        self.expr = None
        self.env = None
        return value
