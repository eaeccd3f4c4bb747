"""Evaluation-order strategies.

The denotational semantics deliberately does not fix the order in which
strict primitives evaluate their arguments — that freedom is the whole
point (Section 3.4).  The machine therefore takes the order from a
pluggable :class:`Strategy`.  Different strategies correspond to the
paper's "recompiled with different optimisation settings" scenario
(Section 3.5): the observed exception may change, but it is always a
member of the denoted set.
"""

from __future__ import annotations

import random
from typing import Sequence, Tuple


class Strategy:
    """Decides the evaluation order of strict primitive arguments.

    ``stateless`` declares that :meth:`order` is a pure function of
    ``(op, n)``; the ``super`` backend (repro.machine.compile) then
    bakes the permutation in at compile time instead of consulting the
    strategy per execution.  Stateful strategies (Shuffled) must leave
    it False so their per-call RNG stream matches the AST backend's.
    """

    name = "abstract"
    stateless = False

    def order(self, op: str, n: int) -> Tuple[int, ...]:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.name


class LeftToRight(Strategy):
    """The 'obvious' sequential order (what a naive compiler emits)."""

    name = "left-to-right"
    stateless = True

    def order(self, op: str, n: int) -> Tuple[int, ...]:
        return tuple(range(n))


class RightToLeft(Strategy):
    """Arguments last-to-first (e.g. a compiler that pushes arguments
    onto a stack right-to-left and evaluates as it pushes)."""

    name = "right-to-left"
    stateless = True

    def order(self, op: str, n: int) -> Tuple[int, ...]:
        return tuple(reversed(range(n)))


class Shuffled(Strategy):
    """A deterministic pseudo-random order per call site occurrence —
    modelling an optimiser that reorders aggressively.  Deterministic
    given the seed, so runs are reproducible (the paper: "successive
    runs of a program, using the same compiler optimisation level, will
    in practice give the same behaviour")."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self.seed = seed
        self.name = f"shuffled(seed={seed})"

    def order(self, op: str, n: int) -> Tuple[int, ...]:
        idx = list(range(n))
        self._rng.shuffle(idx)
        return tuple(idx)


ALL_STRATEGIES: Sequence[Strategy] = (
    LeftToRight(),
    RightToLeft(),
    Shuffled(1),
    Shuffled(2),
)


def standard_strategies() -> Sequence[Strategy]:
    """Fresh instances (Shuffled carries RNG state)."""
    return (LeftToRight(), RightToLeft(), Shuffled(1), Shuffled(2))
