"""High-level convenience API.

One-call helpers that wire the pipeline together: parse -> saturate ->
flatten patterns -> (optionally typecheck) -> evaluate, with the
prelude in scope.  Examples and benchmarks use these; the lower-level
modules remain importable for finer control.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Tuple

from repro.core.denote import (
    DenoteContext,
    denote,
    ensure_recursion_headroom,
)
from repro.core.domains import SemVal, Thunk
from repro.core.laws import LawReport, check_law
from repro.io.events import EventPlan
from repro.io.run import IOExecutor, IOResult
from repro.lang.ast import Expr, Program
from repro.lang.match import flatten_case_patterns, flatten_program, sibling_map
from repro.lang.parser import parse_expr, parse_program
from repro.machine.eval import Machine, program_env as machine_program_env
from repro.machine.heap import Cell
from repro.machine.observe import Outcome, observe
from repro.machine.strategy import Strategy
from repro.machine.values import VIO
from repro.prelude.loader import (
    con_arities,
    denote_env,
    machine_env,
    prelude_program,
)
from repro.types.adt import ADTEnv
from repro.types.infer import TypeEnv, infer_program


def compile_expr(source: str) -> Expr:
    """Parse and flatten one expression (prelude constructors in scope)."""
    program = prelude_program()
    expr = parse_expr(source, con_arities=con_arities())
    arities = dict(con_arities())
    return flatten_case_patterns(expr, sibling_map(program), arities)


def compile_program(source: str, typecheck: bool = False) -> Program:
    """Parse and flatten a module on top of the prelude."""
    program = parse_program(source, con_arities=con_arities())
    flattened = flatten_program(program)
    if typecheck:
        typecheck_program(flattened)
    return flattened


def prelude_type_env() -> Tuple[TypeEnv, ADTEnv]:
    """Infer the prelude's type environment afresh (uncached)."""
    prelude = prelude_program()
    adts = ADTEnv.from_programs(prelude)
    env = infer_program(prelude, adts=adts)
    return env, adts


_shared_type_env: Optional[Tuple[TypeEnv, ADTEnv]] = None
_shared_type_env_lock = threading.Lock()


def shared_prelude_type_env() -> Tuple[TypeEnv, ADTEnv]:
    """The prelude's type environment, built by the first caller and
    shared by the rest of the process.  Read-only: inference copies
    the type environment, and a caller that declares new types extends
    ``adts.copy()``, never the shared ``ADTEnv``."""
    global _shared_type_env
    if _shared_type_env is None:
        with _shared_type_env_lock:
            if _shared_type_env is None:
                _shared_type_env = prelude_type_env()
    return _shared_type_env


def typecheck_program(program: Program) -> TypeEnv:
    """Typecheck a module against the prelude environment."""
    base, shared_adts = shared_prelude_type_env()
    adts = shared_adts.copy()
    for decl in program.data_decls:
        adts.add_decl(decl)
    return infer_program(program, base_env=base, adts=adts)


def denote_source(
    source: str,
    fuel: int = 200_000,
    ctx: Optional[DenoteContext] = None,
) -> SemVal:
    """The denotation (Section 4) of an expression, prelude in scope."""
    ensure_recursion_headroom()
    expr = compile_expr(source)
    if ctx is None:
        ctx = DenoteContext(fuel=fuel)
    env = denote_env(ctx)
    return denote(expr, env, ctx)


def observe_source(
    source: str,
    strategy: Optional[Strategy] = None,
    fuel: int = 2_000_000,
    deep: bool = False,
    backend: str = "ast",
) -> Outcome:
    """Run an expression on the operational machine, prelude in scope.

    ``backend="super"`` selects the superinstruction backend
    (docs/PERFORMANCE.md); observations are identical, only speed
    differs."""
    expr = compile_expr(source)
    machine = Machine(strategy=strategy, fuel=fuel, backend=backend)
    env = machine_env(machine)
    return observe(expr, env=env, machine=machine, deep=deep)


def run_io_source(
    source: str,
    stdin: str = "",
    strategy: Optional[Strategy] = None,
    fuel: int = 2_000_000,
    timeout_as_exception: bool = False,
    events: Optional[EventPlan] = None,
    backend: str = "ast",
) -> IOResult:
    """Perform an ``IO`` expression, prelude in scope."""
    expr = compile_expr(source)
    machine = Machine(
        strategy=strategy,
        fuel=fuel,
        event_plan=events.as_dict() if events else None,
        backend=backend,
    )
    env = machine_env(machine)
    executor = IOExecutor(
        machine=machine,
        stdin=stdin,
        timeout_as_exception=timeout_as_exception,
    )
    return executor.run_cell(Cell(expr, env))


def run_io_program(
    source: str,
    entry: str = "main",
    stdin: str = "",
    strategy: Optional[Strategy] = None,
    fuel: int = 2_000_000,
    timeout_as_exception: bool = False,
    events: Optional[EventPlan] = None,
    typecheck: bool = False,
    backend: str = "ast",
) -> IOResult:
    """Compile a module and perform its ``main`` (or another entry)."""
    program = compile_program(source, typecheck=typecheck)
    machine = Machine(
        strategy=strategy,
        fuel=fuel,
        event_plan=events.as_dict() if events else None,
        backend=backend,
    )
    env = machine_program_env(program, machine, machine_env(machine))
    executor = IOExecutor(
        machine=machine,
        stdin=stdin,
        timeout_as_exception=timeout_as_exception,
    )
    cell = env.get(entry)
    if cell is None:
        raise KeyError(f"no top-level binding {entry!r}")
    return executor.run_cell(cell)


def check_law_sources(
    lhs: str, rhs: str, name: str = "law", **kwargs
) -> LawReport:
    """Check a law given as two source strings, with the prelude in
    scope (both constructor arities and prelude *functions* — so
    ``error "This"`` means the real prelude ``error``, not a schema
    variable)."""
    if "base_env" not in kwargs:
        prelude_ctx = DenoteContext(fuel=2_000_000)
        kwargs["base_env"] = denote_env(prelude_ctx)
    return check_law(
        compile_expr(lhs), compile_expr(rhs), name=name, **kwargs
    )
