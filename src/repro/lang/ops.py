"""The primitive operation table.

Primitives are the operations the denotational semantics treats
specially (Section 4.2 gives ``+`` as the representative example; the
others follow the same two-clause scheme: combine normal values when
both arguments are normal, union the exception sets otherwise).

``seq`` is the paper's Section 3.2 mechanism for forcing values out of
lazy structures; its semantics is that of ``case a of _ -> b``, i.e. the
branch exceptions are unioned in exception-finding mode.

IO primitives (``returnIO``, ``bindIO``, ``getChar``, ``putChar``,
``putStr``, ``getException``, ``randomRIO``) construct IO-action values;
they are interpreted by :mod:`repro.io`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

# Two's-complement bounds used by the paper's overflow-checking addition
# (Section 4.2: -2^31 < v1 + v2 < 2^31).
INT_MIN = -(2 ** 31)
INT_MAX = 2 ** 31


@dataclass(frozen=True)
class PrimInfo:
    """Static description of one primitive.

    ``strict_in`` lists the argument positions the primitive evaluates
    (all strict primitives union exception sets over those positions).
    ``is_io`` marks primitives whose result is an IO action.
    ``commutes`` marks binary primitives that are semantically
    commutative under the imprecise semantics (used by E3).
    """

    name: str
    arity: int
    strict_in: Tuple[int, ...]
    is_io: bool = False
    commutes: bool = False


_PRIMS = [
    # arithmetic
    PrimInfo("+", 2, (0, 1), commutes=True),
    PrimInfo("-", 2, (0, 1)),
    PrimInfo("*", 2, (0, 1), commutes=True),
    PrimInfo("div", 2, (0, 1)),
    PrimInfo("mod", 2, (0, 1)),
    PrimInfo("negate", 1, (0,)),
    # comparison (on integers and characters)
    PrimInfo("==", 2, (0, 1), commutes=True),
    PrimInfo("/=", 2, (0, 1), commutes=True),
    PrimInfo("<", 2, (0, 1)),
    PrimInfo("<=", 2, (0, 1)),
    PrimInfo(">", 2, (0, 1)),
    PrimInfo(">=", 2, (0, 1)),
    # strings
    PrimInfo("strAppend", 2, (0, 1)),
    PrimInfo("strLen", 1, (0,)),
    PrimInfo("showInt", 1, (0,)),
    PrimInfo("ord", 1, (0,)),
    PrimInfo("chr", 1, (0,)),
    # unchecked arithmetic: used by the explicit ExVal encoding
    # (repro.encoding), whose whole point is that failures are ordinary
    # values — so its primitives must never raise.  udiv/umod require a
    # non-zero divisor (the encoding emits an explicit guard).
    PrimInfo("uadd", 2, (0, 1), commutes=True),
    PrimInfo("usub", 2, (0, 1)),
    PrimInfo("umul", 2, (0, 1), commutes=True),
    PrimInfo("udiv", 2, (0, 1)),
    PrimInfo("umod", 2, (0, 1)),
    PrimInfo("unegate", 1, (0,)),
    # forcing
    PrimInfo("seq", 2, (0,)),
    # exceptions (pure layer)
    PrimInfo("mapException", 2, ()),
    # IO layer — these build IO actions lazily, so they are non-strict
    PrimInfo("returnIO", 1, (), is_io=True),
    PrimInfo("bindIO", 2, (), is_io=True),
    PrimInfo("getChar", 0, (), is_io=True),
    PrimInfo("putChar", 1, (), is_io=True),
    PrimInfo("putStr", 1, (), is_io=True),
    PrimInfo("getException", 1, (), is_io=True),
    PrimInfo("ioError", 1, (), is_io=True),
    # Extension (not in the paper; the direction its Section 6
    # comparison points at, adopted by the 2001 follow-up work):
    # handle exceptions escaping from an IO *action*.
    PrimInfo("catchIO", 2, (), is_io=True),
    # Concurrency extension (Section 4.4: "scales to other extensions,
    # such as adding concurrency to the language [16]" — Concurrent
    # Haskell).  Interpreted by repro.io.concurrent.
    PrimInfo("forkIO", 1, (), is_io=True),
    PrimInfo("newMVar", 1, (), is_io=True),
    PrimInfo("newEmptyMVar", 0, (), is_io=True),
    PrimInfo("takeMVar", 1, (), is_io=True),
    PrimInfo("putMVar", 2, (), is_io=True),
    PrimInfo("yieldIO", 0, (), is_io=True),
]

PRIM_TABLE: Dict[str, PrimInfo] = {p.name: p for p in _PRIMS}


# Surface-syntax operator table: (precedence, associativity, target).
# Associativity: "left" | "right" | "none".  The target is either a
# primitive name ("prim:NAME"), a prelude function ("var:NAME") or a
# constructor ("con:NAME").
OPERATORS: Dict[str, Tuple[int, str, str]] = {
    "$": (0, "right", "var:apply"),
    ">>=": (1, "left", "prim:bindIO"),
    ">>": (1, "left", "var:thenIO"),
    "||": (2, "right", "var:or"),
    "&&": (3, "right", "var:and"),
    "==": (4, "none", "prim:=="),
    "/=": (4, "none", "prim:/="),
    "<": (4, "none", "prim:<"),
    "<=": (4, "none", "prim:<="),
    ">": (4, "none", "prim:>"),
    ">=": (4, "none", "prim:>="),
    ":": (5, "right", "con:Cons"),
    "++": (5, "right", "var:append"),
    "+": (6, "left", "prim:+"),
    "-": (6, "left", "prim:-"),
    "*": (7, "left", "prim:*"),
    "`div`": (7, "left", "prim:div"),
    "`mod`": (7, "left", "prim:mod"),
    ".": (9, "right", "var:compose"),
}

OP_SYMBOLS = sorted(
    (op for op in OPERATORS if not op.startswith("`")),
    key=len,
    reverse=True,
)
