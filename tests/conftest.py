"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.api import (
    compile_expr,
    denote_source,
    observe_source,
    run_io_source,
)
from repro.core.denote import DenoteContext, denote
from repro.core.domains import Bad, Ok, SemVal
from repro.core.excset import ExcSet
from repro.machine import BACKENDS, Machine
from repro.machine.compile import compile_top
from repro.machine.strategy import LeftToRight, RightToLeft, Shuffled
from repro.prelude.loader import denote_env, machine_env, prelude_program


@pytest.fixture(scope="session")
def prelude():
    return prelude_program()


def d(source: str, fuel: int = 200_000, ctx: DenoteContext = None) -> SemVal:
    """Denote a source expression with the prelude in scope."""
    return denote_source(source, fuel=fuel, ctx=ctx)


def excs_of(value: SemVal) -> ExcSet:
    assert isinstance(value, Bad), f"expected Bad, got {value}"
    return value.excs


def exc_names(value: SemVal) -> frozenset:
    return frozenset(e.name for e in excs_of(value).finite_members())


def ok_value(value: SemVal):
    assert isinstance(value, Ok), f"expected Ok, got {value}"
    return value.value


STRATEGIES = [LeftToRight(), RightToLeft(), Shuffled(1), Shuffled(7)]


#: The closure tier: the ``super`` backend running code from the plain
#: closure lowering (``compile_top``), as a served program's first use
#: does (``CachedProgram.lower``).  Backend batteries parametrise over
#: ``LOWERINGS`` so the closure lowering stays under every parity test.
#: Its test id is ``compiled`` — the code is ``compile.py``'s — which
#: keeps the battery's ids stable from when it was a backend of its own.
CLOSURE = "compiled"
LOWERINGS = BACKENDS + (CLOSURE,)


def backend_of(lowering: str) -> str:
    """The backend that runs ``lowering`` (a backend or ``CLOSURE``)."""
    return "super" if lowering == CLOSURE else lowering


def machine_for(lowering: str, **kwargs) -> Machine:
    return Machine(backend=backend_of(lowering), **kwargs)


def lower_for(lowering: str, expr, env, machine: Machine):
    """``(program, env)`` to hand ``machine.eval``: the closure tier
    lowers ``expr`` against ``env`` up front; backends take the AST."""
    if lowering != CLOSURE:
        return expr, env
    return compile_top(expr, env, machine.strategy), ()


def prepare(source: str, lowering: str, **machine_kwargs):
    """``(machine, program, env)``: ``source`` with the prelude in
    scope, ready for ``machine.eval(program, env)`` as ``lowering``
    runs it."""
    machine = machine_for(lowering, **machine_kwargs)
    program, env = lower_for(
        lowering, compile_expr(source), machine_env(machine), machine
    )
    return machine, program, env
