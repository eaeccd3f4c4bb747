"""In-process microbenchmarks: one public function per layer, timed
without HTTP or a daemon.  Each result is a median of a few repeats.

These numbers do not depend on the workload; they are printed with
every traced pass so that a change to one layer shows up next to the
end-to-end numbers it should (or should not) move.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict, List, Tuple

from repro.api import compile_expr, prelude_type_env
from repro.io.run import IOExecutor
from repro.lang.ast import expr_size
from repro.machine.heap import Cell
from repro.machine.slices import run_sliced
from repro.machine.snapshot import PreludeSnapshot
from repro.machine.strategy import LeftToRight
from repro.machine.superop import compile_super
from repro.obs.sinks import CountingSink
from repro.serve.governor import GovernorLimits, ResourceGovernor
from repro.serve.service import EvalService, ServiceConfig
from repro.types.infer import infer_expr

from benchmarks.e2e.workloads import COLD_KINDS, COLD_SIZES, cold_program

#: The machine workload: fib 15, 19,730 steps on every backend.
FIB = "let { fib = \\n -> if n < 2 then n else fib (n - 1) + fib (n - 2) } in fib 15"
#: The IO workload: 100 ``putStr`` actions chained by ``mapM_``.
IO_ACTIONS = 100
IO_PROGRAM = f'mapM_ (\\c -> putStr "x") (enumFromTo 1 {IO_ACTIONS})'
#: The daemon's default per-request limits (``repro serve`` flags).
SERVED_LIMITS = GovernorLimits(
    max_steps=2_000_000, max_allocations=1_000_000, deadline_seconds=5.0
)
SLICE_STEPS = 2_000

Metrics = Dict[str, Tuple[float, str]]


def _median_time(fn: Callable[[], object], reps: int) -> float:
    """Median wall seconds of ``fn()`` over ``reps`` calls."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def calibrate(reps: int = 5, iterations: int = 200_000) -> float:
    """Nanoseconds per iteration of a fixed pure-Python loop: the
    host's speed, to tell a slow commit from a slow machine."""

    def loop() -> int:
        acc = 0
        for i in range(iterations):
            acc += i ^ 3
        return acc

    return _median_time(loop, reps) / iterations * 1e9


def _front_end(sources: List[str]) -> Metrics:
    """Parse/flatten, type inference and ``super`` codegen, each per
    AST node over the same seeded sample of cold-mix programs."""
    exprs = [compile_expr(src) for src in sources]
    nodes = sum(expr_size(e) for e in exprs)
    env, adts = prelude_type_env()
    snapshot = PreludeSnapshot.build(backend="super")
    strategy = LeftToRight()
    compile_s = _median_time(lambda: [compile_expr(s) for s in sources], 3)
    infer_s = _median_time(lambda: [infer_expr(e, env, adts) for e in exprs], 3)
    codegen_s = _median_time(
        lambda: [compile_super(e, snapshot.env, strategy) for e in exprs], 3
    )
    return {
        "lang.compile_us_per_node": (compile_s / nodes * 1e6, "us/node"),
        "types.prelude_env_ms": (_median_time(prelude_type_env, 3) * 1e3, "ms"),
        "types.infer_us_per_node": (infer_s / nodes * 1e6, "us/node"),
        "codegen.us_per_node": (codegen_s / nodes * 1e6, "us/node"),
    }


def _snapshot() -> Metrics:
    build_s = _median_time(lambda: PreludeSnapshot.build(backend="super"), 3)
    snapshot = PreludeSnapshot.build(backend="super")
    forks = 1_000
    fork_s = _median_time(
        lambda: [snapshot.fork() for _ in range(forks)], 5
    )
    return {
        "snapshot.build_ms": (build_s * 1e3, "ms"),
        "snapshot.fork_us": (fork_s / forks * 1e6, "us"),
    }


def _machine() -> Metrics:
    """ns per step of fib on a snapshot fork, per backend and per set
    of per-step consumers: ``bare``; with the service's counting
    ``sink``; with its ``governor``; ``served`` = both, as the daemon
    runs every request; ``sliced`` = served plus 2000-step slices
    (cooperative scheduler, super only)."""
    out: Metrics = {}
    expr = compile_expr(FIB)
    for backend in ("ast", "super"):
        snapshot = PreludeSnapshot.build(backend=backend)
        if backend == "super":
            program, env = compile_super(expr, snapshot.env, LeftToRight()), ()
        else:
            program, env = expr, snapshot.env

        def run(sink: bool, governor: bool, sliced: bool = False) -> float:
            machine, _ = snapshot.fork()
            if sink:
                machine.attach_sink(CountingSink())
            if governor:
                gov = ResourceGovernor(SERVED_LIMITS)
                machine.attach_governor(gov)
                gov.start()
            start = time.perf_counter()
            if sliced:
                run_sliced(machine, lambda: machine.eval(program, env), SLICE_STEPS)
            else:
                machine.eval(program, env)
            return (time.perf_counter() - start) / machine.stats.steps * 1e9

        variants = {
            "bare": (False, False),
            "sink": (True, False),
            "governor": (False, True),
            "served": (True, True),
        }
        for name, (sink, governor) in variants.items():
            out[f"machine.ns_per_step.{backend}.{name}"] = (
                statistics.median(run(sink, governor) for _ in range(5)),
                "ns/step",
            )
        if backend == "super":
            out["machine.ns_per_step.super.sliced"] = (
                statistics.median(run(True, True, sliced=True) for _ in range(5)),
                "ns/step",
            )
    return out


def _io() -> Metrics:
    """Microseconds per IO action performed by ``IOExecutor.run_cell``
    on a ``super`` fork (the evaluation to the IO value is excluded)."""
    snapshot = PreludeSnapshot.build(backend="super")
    code = compile_super(compile_expr(IO_PROGRAM), snapshot.env, LeftToRight())

    def perform() -> None:
        machine, _ = snapshot.fork()
        action = machine.eval(code, ())
        start = time.perf_counter()
        result = IOExecutor(machine=machine).run_cell(Cell.ready(action))
        times.append(time.perf_counter() - start)
        if result.stdout != "x" * IO_ACTIONS:
            raise RuntimeError(f"IO microbenchmark went wrong: {result}")

    times: List[float] = []
    for _ in range(5):
        perform()
    return {"io.us_per_action": (statistics.median(times) / IO_ACTIONS * 1e6, "us")}


def _metrics_render(sources: List[str]) -> Metrics:
    """``GET /metrics`` rendering cost after a few dozen requests."""
    service = EvalService(ServiceConfig(backend="super"))
    try:
        for src in sources:
            service.handle({"expr": src})
        render_s = _median_time(service.metrics_text, 20)
    finally:
        service.close()
    return {"obs.metrics_render_ms": (render_s * 1e3, "ms")}


def run_all(seed: int) -> Metrics:
    """Every microbenchmark; ``seed`` picks the front-end sample."""
    rng = random.Random(f"micro:{seed}")
    sources = [
        cold_program(rng, COLD_KINDS[i % len(COLD_KINDS)], COLD_SIZES[i % len(COLD_SIZES)])[0]
        for i in range(40)
    ]
    out: Metrics = {}
    out.update(_front_end(sources))
    out.update(_snapshot())
    out.update(_machine())
    out.update(_io())
    out.update(_metrics_render(sources))
    return out
