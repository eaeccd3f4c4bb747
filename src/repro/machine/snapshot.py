"""Prelude heap snapshots: warm machines by copy-on-write forking.

The serving daemon (repro.serve) used to rebuild the prelude for every
request: ~60 `machine_env` cells allocated, then forced (and, on the
``super`` backend, lowered) again and again for identical bindings.
This module captures that work once in a :class:`PreludeSnapshot` and
hands out *forks* — fresh machines that share the snapshot's heap.

Why sharing is sound
--------------------

A heap cell is mutable in exactly one direction: ``UNEVALUATED ->
BLACKHOLE -> (VALUE | RAISE)``, and once a cell reaches ``VALUE`` or
``RAISE`` it is never written again — ``Cell.force`` returns the
memoised value (or re-raises the memoised exception, Section 3.3 of
the paper: "re-evaluation never happens") without touching the cell.
The snapshot therefore *deep-forces* the prelude heap at build time:
every cell reachable from the environment (through constructor fields,
closure captures and IO payloads) is driven to ``VALUE`` or ``RAISE``.
After that the entire structure is immutable, so any number of
machines — even concurrently, from different threads — can read it
without blackhole races, and a fork can share the environment dict
itself (the evaluator copies-on-extend, never mutating a caller's
env).

Why observations stay byte-identical
------------------------------------

Counters and trace events are *per-machine*, and a fork is a fresh
machine: its stats start at zero and its sink/governor/fault plan are
attached by the caller after forking.  The matching cold-path
construction is :meth:`PreludeSnapshot.cold_start`, which performs the
same warm-up on a brand-new heap and then ``reset_stats()`` — so warm
and cold evaluations begin from *the same* heap shape (all prelude
cells memoised) with *the same* zeroed counters and fuel budget.
Every step, allocation, force, raise, trace event, governor poll and
fault-plan consultation thereafter is driven by identical state, which
is what the warm-vs-cold parity suite (tests/machine/test_snapshot.py)
and the fuzz oracle's warm lane pin down.

Stateful strategies (``Shuffled``) are handled by value: the snapshot
records the strategy's pre- and post-warm-up states, forks deep-copy
the post-warm-up state, and ``cold_start`` replays the warm-up from
the pre-warm-up state — so both paths consume the RNG stream from the
same point.  (The prelude's bindings are all lambdas and constructors,
so warm-up runs no strict primitives and consumes no randomness; the
discipline still holds for arbitrary base programs.)
"""

from __future__ import annotations

import copy
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.machine.eval import Env, Machine
from repro.machine.frames import CClosure
from repro.machine.heap import Cell, ObjRaise, _RAISE, _VALUE
from repro.machine.strategy import LeftToRight, Strategy
from repro.machine.values import VCon, VFun, VIO

#: Fuel for the build-time warm-up.  The prelude is ~60 lambda/constant
#: bindings; forcing them costs a few hundred steps.  A generous budget
#: keeps the snapshot usable for larger base programs too.
_WARMUP_FUEL = 2_000_000


def _push_children(value, push) -> None:
    """Enqueue every heap cell reachable from a WHNF value."""
    if isinstance(value, VCon):
        for cell in value.args:
            push(cell)
    elif isinstance(value, CClosure):
        for cell in value.captures:
            push(cell)
    elif isinstance(value, VFun):
        for cell in value.env.values():
            push(cell)
    elif isinstance(value, VIO):
        for cell in value.payload:
            push(cell)


def freeze_env(env: Env, machine: Machine) -> List[Cell]:
    """Force every cell reachable from ``env`` to ``VALUE``/``RAISE``.

    Traversal is a worklist over cells (id-visited, so shared cells are
    forced once): each cell is forced to WHNF, then its value's
    children — constructor fields, closure captures (``super``) or
    captured environments (AST), IO payloads — are enqueued.  A cell
    whose forcing raises is left in its memoised ``RAISE`` state (it,
    too, is immutable from then on).  Returns the frozen cells, in
    traversal order.
    """
    seen = set()
    work: deque = deque()

    def push(cell: Cell) -> None:
        if id(cell) not in seen:
            seen.add(id(cell))
            work.append(cell)

    for cell in env.values():
        push(cell)
    frozen: List[Cell] = []
    while work:
        cell = work.popleft()
        frozen.append(cell)
        try:
            value = cell.force(machine)
        except ObjRaise:
            continue
        _push_children(value, push)
    return frozen


def mutable_cells(env: Env) -> List[Cell]:
    """Reachable cells *not* yet memoised (diagnostic/test helper).

    Empty on a properly frozen environment — the invariant that makes
    cross-thread sharing of a snapshot safe.
    """
    seen = set()
    work: deque = deque()

    def push(cell: Cell) -> None:
        if id(cell) not in seen:
            seen.add(id(cell))
            work.append(cell)

    for cell in env.values():
        push(cell)
    offenders: List[Cell] = []
    while work:
        cell = work.popleft()
        if cell.state not in (_VALUE, _RAISE):
            offenders.append(cell)
            continue
        if cell.state == _VALUE:
            _push_children(cell.value, push)
    return offenders


def warm_machine(
    backend: str = "ast",
    strategy: Optional[Strategy] = None,
    fuel: int = 2_000_000,
    detect_blackholes: bool = True,
) -> Tuple[Machine, Env]:
    """Build a machine whose prelude heap is fully memoised.

    This is the *cold* construction with the warm-path starting state:
    a brand-new machine and environment, warmed by :func:`freeze_env`,
    then rebased (``reset_stats``, fuel restored) so the warm-up itself
    is invisible to the observation that follows.  Both the snapshot's
    forks and this function yield machines in byte-identical states —
    the parity contract the serving layer relies on.
    """
    from repro.prelude.loader import machine_env

    machine = Machine(
        strategy=strategy or LeftToRight(),
        fuel=max(fuel, _WARMUP_FUEL),
        detect_blackholes=detect_blackholes,
        backend=backend,
    )
    env = machine_env(machine)
    freeze_env(env, machine)
    machine.reset_stats()
    machine.fuel = fuel
    return machine, env


class PreludeSnapshot:
    """A frozen prelude heap plus the recipe for warm and cold twins.

    ``build`` pays the setup cost once; ``fork`` is O(1) — a fresh
    machine sharing the immutable environment.  ``cold_start`` rebuilds
    the same state from scratch (for benchmarks and parity checks).
    """

    def __init__(
        self,
        backend: str,
        env: Env,
        strategy_warm: Strategy,
        strategy_cold: Strategy,
    ) -> None:
        self.backend = backend
        self.env = env
        self._strategy_warm = strategy_warm
        self._strategy_cold = strategy_cold

    @classmethod
    def build(
        cls,
        backend: str = "ast",
        strategy: Optional[Strategy] = None,
    ) -> "PreludeSnapshot":
        strategy = strategy or LeftToRight()
        pristine = copy.deepcopy(strategy)
        machine, env = warm_machine(backend=backend, strategy=strategy)
        return cls(
            backend=backend,
            env=env,
            strategy_warm=machine.strategy,
            strategy_cold=pristine,
        )

    def strategy_key(self) -> str:
        """The strategy component of cache keys (repro.serve.cache)."""
        return self._strategy_cold.name

    def fork(
        self,
        fuel: int = 2_000_000,
        detect_blackholes: bool = True,
    ) -> Tuple[Machine, Env]:
        """A fresh machine sharing this snapshot's frozen heap.

        The machine carries no sink, governor, fault plan or
        provenance recorder — callers attach those, mirroring
        :func:`warm_machine`'s post-reset state, so warm and cold
        observations see identical instrumentation windows.

        A stateless strategy (the flag of repro.machine.strategy) is
        *shared* between forks — ``order`` is a pure function, so the
        instance is concurrency-safe; stateful strategies (Shuffled's
        RNG) are copied so each fork consumes its own stream from the
        snapshot's post-warm-up point.
        """
        strategy = self._strategy_warm
        if not strategy.stateless:
            strategy = copy.deepcopy(strategy)
        machine = Machine(
            strategy=strategy,
            fuel=fuel,
            detect_blackholes=detect_blackholes,
            backend=self.backend,
        )
        return machine, self.env

    def cold_start(
        self,
        fuel: int = 2_000_000,
        detect_blackholes: bool = True,
    ) -> Tuple[Machine, Env]:
        """The fork's cold twin: same starting state, fresh heap."""
        return warm_machine(
            backend=self.backend,
            strategy=copy.deepcopy(self._strategy_cold),
            fuel=fuel,
            detect_blackholes=detect_blackholes,
        )


_SNAPSHOTS: Dict[Tuple[str, str], PreludeSnapshot] = {}


def shared_snapshot(
    backend: str = "ast", strategy: Optional[Strategy] = None
) -> PreludeSnapshot:
    """A process-wide snapshot per (backend, strategy) — the fuzz
    oracle's warm lane and ad-hoc callers reuse one build instead of
    re-freezing the prelude per evaluation.  Safe because snapshots
    are immutable once built."""
    strategy = strategy or LeftToRight()
    key = (backend, strategy.name)
    snap = _SNAPSHOTS.get(key)
    if snap is None:
        snap = PreludeSnapshot.build(
            backend=backend, strategy=copy.deepcopy(strategy)
        )
        _SNAPSHOTS[key] = snap
    return snap
