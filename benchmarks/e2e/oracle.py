"""The correctness oracle: every served body is checked against an
answer that does not come from the backend under test.

Three sources of expected answers, one per kind of input:

* templated (``cold-mix``) programs carry hand-written closed forms,
  computed in Python by the generator that wrote the source;
* the fixed corpora are run once, in the benchmark process, on the
  AST walker (:func:`reference`) — the paper's §3.3 machine, never the
  ``super`` backend the daemon serves;
* an exceptional answer is checked against the *denotation*
  (``denote_source``, §4): imprecision means the daemon may report any
  member of the denoted set, so membership — not equality with the
  walker's choice — is the test.

A check returns ``None`` for a correct response and a one-line reason
otherwise.  Every body is also held to its
:data:`repro.serve.schema.RESPONSE_SCHEMAS` shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Optional, Tuple

from repro.api import compile_expr, denote_source
from repro.core.domains import Bad
from repro.io.run import IOExecutor
from repro.machine import Machine
from repro.machine.heap import AsyncInterrupt, Cell, ObjRaise
from repro.machine.observe import show_value
from repro.machine.values import VIO
from repro.prelude.loader import machine_env
from repro.serve.schema import RESPONSE_SCHEMAS, schema_sets

#: Fuel for reference runs: far beyond any corpus program (20k steps).
REFERENCE_FUEL = 2_000_000


def schema_error(body: Any) -> Optional[str]:
    """Why ``body`` is outside its status's response schema, or None."""
    if not isinstance(body, dict):
        return f"body is {type(body).__name__}, not an object"
    status = body.get("status")
    if status not in RESPONSE_SCHEMAS:
        return f"unknown status {status!r}"
    required, optional = schema_sets(status)
    missing = required - body.keys()
    extra = body.keys() - required - optional
    if missing or extra:
        return (
            f"{status} body: missing {sorted(missing)}, "
            f"unexpected {sorted(extra)}"
        )
    if status == "batch":
        for item in body["results"]:
            reason = schema_error(item)
            if reason is not None:
                return "batch item: " + reason
    return None


class Expect:
    """An expected response.  ``http`` is None inside a batch, where
    items carry no status code of their own."""

    def check(self, http: Optional[int], body: Dict[str, Any]) -> Optional[str]:
        raise NotImplementedError

    @staticmethod
    def _status(
        http: Optional[int], body: Dict[str, Any], status: str, code: int
    ) -> Optional[str]:
        if http is not None and http != code:
            return f"HTTP {http}, expected {code}"
        if body.get("status") != status:
            return f"status {body.get('status')!r}, expected {status!r}"
        return None


@dataclass(frozen=True)
class Value(Expect):
    """A value (or a performed IO action) rendered as ``value``."""

    value: str
    stdout: str = ""

    def check(self, http, body):
        wrong = self._status(http, body, "value", 200)
        if wrong:
            return wrong
        if body["value"] != self.value:
            return f"value {body['value']!r}, expected {self.value!r}"
        if body.get("stdout", "") != self.stdout:
            return f"stdout {body.get('stdout', '')!r}, expected {self.stdout!r}"
        return None


@dataclass(frozen=True)
class Raises(Expect):
    """An exceptional result: any member of the denoted set (§4).  The
    body names only the exception constructor, so the set is held as
    constructor names; ``any_sync`` stands for "every synchronous
    exception" (the set ``E``)."""

    names: FrozenSet[str]
    any_sync: bool = False

    def check(self, http, body):
        wrong = self._status(http, body, "exceptional", 200)
        if wrong:
            return wrong
        if body["exc"] in self.names:
            return None
        if self.any_sync and body["synchronous"]:
            return None
        return f"exception {body['exc']!r} not in {sorted(self.names)}"


@dataclass(frozen=True)
class Exhausted(Expect):
    """A governor trip: a deterministic §5.1 fictitious exception
    (``reason`` None accepts any trip reason)."""

    reason: Optional[str]
    exc: str
    steps: Optional[int] = None

    def check(self, http, body):
        wrong = self._status(http, body, "resource-exhausted", 200)
        if wrong:
            return wrong
        if body.get("exc") != self.exc or self.reason not in (None, body["reason"]):
            return (
                f"trip {body['reason']}/{body.get('exc')}, "
                f"expected {self.reason}/{self.exc}"
            )
        if self.steps is not None and body["stats"]["steps"] != self.steps:
            return f"tripped at step {body['stats']['steps']}, expected {self.steps}"
        return None


@dataclass(frozen=True)
class ClientError(Expect):
    """A structured 400; ``reason`` None accepts any error reason."""

    reason: Optional[str]

    def check(self, http, body):
        wrong = self._status(http, body, "error", 400)
        if wrong:
            return wrong
        if self.reason is not None and body["reason"] != self.reason:
            return f"error reason {body['reason']!r}, expected {self.reason!r}"
        return None


@dataclass(frozen=True)
class OneOf(Expect):
    """Any of several answers (e.g. a deep fold: its value, or a §5.1
    ``StackOverflow``)."""

    options: Tuple[Expect, ...]

    def check(self, http, body):
        reasons = [option.check(http, body) for option in self.options]
        if None in reasons:
            return None
        return " / ".join(reasons)


@dataclass(frozen=True)
class Batch(Expect):
    """A ``{"programs": [...]}`` envelope, each item checked in order."""

    items: Tuple[Expect, ...]

    def check(self, http, body):
        wrong = self._status(http, body, "batch", 200)
        if wrong:
            return wrong
        if body["count"] != len(self.items):
            return f"batch of {body['count']}, expected {len(self.items)}"
        for i, (expect, item) in enumerate(zip(self.items, body["results"])):
            reason = expect.check(None, item)
            if reason is not None:
                return f"batch item {i}: {reason}"
        return None


def check_response(
    expect: Expect, http: int, body: Any
) -> Optional[str]:
    """The full check: a 5xx, a body outside the schema, or a
    disagreement with ``expect`` is a failure."""
    if http >= 500:
        return f"HTTP {http}"
    reason = schema_error(body)
    if reason is not None:
        return reason
    return expect.check(http, body)


def denoted_raises(source: str) -> Raises:
    """The §4 answer for an exceptional program: its denoted set."""
    denotation = denote_source(source)
    if not isinstance(denotation, Bad):
        raise ValueError(f"{source!r} denotes a value, not an exception")
    excs = denotation.excs
    return Raises(
        frozenset(exc.name for exc in excs.finite_members()),
        any_sync=excs.all_synchronous,
    )


def reference(source: str, stdin: str = "") -> Expect:
    """The expected response for a corpus program, from the AST walker.

    Mirrors the service's own observation (evaluate to WHNF, perform an
    ``IO`` result through the executor, render with ``show_value``) on
    a fresh ``ast`` machine.  An exceptional outcome is widened to its
    denoted set; IO programs must run to a value.
    """
    machine = Machine(backend="ast", fuel=REFERENCE_FUEL)
    env = machine_env(machine)
    try:
        value = machine.eval(compile_expr(source), env)
    except (ObjRaise, AsyncInterrupt):
        return denoted_raises(source)
    if not isinstance(value, VIO):
        return Value(show_value(value, machine))
    result = IOExecutor(machine=machine, stdin=stdin).run_cell(Cell.ready(value))
    if result.status != "ok":
        raise ValueError(f"IO corpus program {source!r} ended {result.status}")
    rendered = "()" if result.value is None else show_value(result.value, machine)
    return Value(rendered, result.stdout)
