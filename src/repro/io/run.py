"""The operational IO executor.

Performs IO actions produced by the machine.  An entire program is a
single value of type ``IO ()``; "to run the program is to perform the
specified computation" (Section 3.5).

``getException`` follows the Section 3.3 implementation sketch
directly: mark the evaluation stack (here: a Python ``try``), force the
argument to head normal form, and

* if evaluation completes, return ``OK val``;
* if ``raise ex`` trims the stack to our mark, return ``Bad ex`` — the
  single representative of the denoted exception set;
* if an asynchronous event arrives (Section 5.1), discard the value
  and return ``Bad event``;
* if the runtime detects divergence (fuel), either genuinely diverge
  or — when a timeout monitor is installed — return ``Bad Timeout``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.core.excset import Exc, TIMEOUT
from repro.io.events import EventPlan
from repro.machine.eval import Machine
from repro.machine.heap import (
    AsyncInterrupt,
    Cell,
    MachineDiverged,
    ObjRaise,
)
from repro.machine.values import VCon, VFun, VInt, VIO, VStr, Value
from repro.obs.events import IO_ACTION


class IORunError(Exception):
    """An ill-formed IO action reached the executor."""


@dataclass
class IOResult:
    """The observable result of running a program.

    ``status`` is ``"ok"`` (``value`` holds the final value),
    ``"exception"`` (``exc`` holds the uncaught exception — "the
    implementation should report" it, Section 4.4), or ``"diverged"``.
    ``stdout`` collects everything written by ``putChar``/``putStr``.
    """

    status: str
    stdout: str
    value: Optional[Value] = None
    exc: Optional[Exc] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def __str__(self) -> str:
        if self.status == "ok":
            return f"IOResult(ok, value={self.value}, stdout={self.stdout!r})"
        if self.status == "exception":
            return f"IOResult(uncaught {self.exc}, stdout={self.stdout!r})"
        return f"IOResult(diverged, stdout={self.stdout!r})"


class IOExecutor:
    """Performs IO actions against a machine.

    Parameters
    ----------
    machine:
        The evaluator (its strategy determines which representative
        exception ``getException`` observes).
    stdin:
        Characters served to ``getChar``.
    timeout_as_exception:
        When True, a ``MachineDiverged`` during ``getException``'s
        forcing is reported as ``Bad Timeout`` (the Section 5.1
        external monitoring system); when False the divergence is
        genuine.
    sink:
        Optional trace sink; forwarded to a machine the executor
        creates, or attached to the one passed in.  The executor
        additionally emits one ``io-action`` event per performed
        action.
    """

    def __init__(
        self,
        machine: Optional[Machine] = None,
        stdin: str = "",
        timeout_as_exception: bool = False,
        events: Optional[EventPlan] = None,
        sink=None,
    ) -> None:
        if machine is None:
            machine = Machine(
                event_plan=events.as_dict() if events else None,
                sink=sink,
            )
        elif sink is not None:
            machine.attach_sink(sink)
        self.machine = machine
        self.stdin = list(stdin)
        self.stdout: List[str] = []
        self.timeout_as_exception = timeout_as_exception

    # -- running ----------------------------------------------------------

    def run_cell(self, cell: Cell) -> IOResult:
        """Perform a complete ``IO`` computation held in a cell."""
        try:
            result = self._perform(cell)
            return IOResult("ok", "".join(self.stdout), value=result)
        except ObjRaise as err:
            return IOResult(
                "exception", "".join(self.stdout), exc=err.exc
            )
        except AsyncInterrupt as err:
            return IOResult(
                "exception", "".join(self.stdout), exc=err.exc
            )
        except MachineDiverged:
            return IOResult("diverged", "".join(self.stdout))

    def run_value(self, value: Value) -> IOResult:
        return self.run_cell(Cell.ready(value))

    # -- the interpreter ----------------------------------------------------

    def _perform(self, cell: Cell) -> Value:
        """Perform one IO computation to completion, returning the
        delivered value (in WHNF is not required — laziness preserved
        via cells, but the action structure itself is forced)."""
        machine = self.machine
        while True:
            action = cell.force(machine)
            if not isinstance(action, VIO):
                raise IORunError(f"performed a non-IO value: {action}")
            tag = action.tag
            machine.stats.io_actions += 1
            if machine._tracing:
                machine.sink.emit(IO_ACTION, tag=tag)
            if tag == "return":
                return action.payload[0].force(machine)
            if tag == "bind":
                m_cell, k_cell = action.payload
                result = self._perform(m_cell)
                k = k_cell.force(machine)
                if not isinstance(k, VFun):
                    raise IORunError(">>= continuation is not a function")
                cell = machine.bind_cell(k, Cell.ready(result))
                continue
            if tag == "getChar":
                if not self.stdin:
                    raise ObjRaise(Exc("UserError", "end of input"))
                return VStr(self.stdin.pop(0))
            if tag == "putChar":
                ch = action.payload[0].force(machine)
                if not isinstance(ch, VStr):
                    raise IORunError("putChar of a non-character")
                self.stdout.append(ch.value)
                return VCon("Unit")
            if tag == "putStr":
                text = action.payload[0].force(machine)
                if not isinstance(text, VStr):
                    raise IORunError("putStr of a non-string")
                self.stdout.append(text.value)
                return VCon("Unit")
            if tag == "getException":
                return self._get_exception(action.payload[0])
            if tag == "ioError":
                exc_value = action.payload[0].force(machine)
                raise ObjRaise(machine.exc_of_value(exc_value))
            if tag == "catch":
                # Extension primitive (not in the paper): run an IO
                # action; an exception escaping from it — whether from
                # forcing values inside it or from ioError — is passed
                # to the handler, whose resulting action continues.
                body_cell, handler_cell = action.payload
                try:
                    return self._perform(body_cell)
                except (ObjRaise, AsyncInterrupt) as err:
                    handler = handler_cell.force(machine)
                    if not isinstance(handler, VFun):
                        raise IORunError(
                            "catchIO handler is not a function"
                        ) from None
                    cell = machine.bind_cell(
                        handler, Cell.ready(machine.value_of_exc(err.exc))
                    )
                    continue
            raise IORunError(f"unknown IO action {tag!r}")

    def _get_exception(self, cell: Cell) -> Value:
        """The Section 3.3 implementation of ``getException``."""
        machine = self.machine
        try:
            value = cell.force(machine)
            return VCon("OK", (Cell.ready(value),))
        except ObjRaise as err:
            return VCon(
                "Bad", (Cell.ready(machine.value_of_exc(err.exc)),)
            )
        except AsyncInterrupt as err:
            # Section 5.1: the value is discarded, the event returned.
            return VCon(
                "Bad", (Cell.ready(machine.value_of_exc(err.exc)),)
            )
        except MachineDiverged:
            if self.timeout_as_exception:
                # The watchdog fired; the rest of the program gets a
                # fresh step budget (the monitor only polices this one
                # evaluation, Section 5.1).
                machine.grant_fuel(machine.fuel or 1_000_000)
                return VCon(
                    "Bad", (Cell.ready(machine.value_of_exc(TIMEOUT)),)
                )
            raise
