"""The operational layer: a lazy graph-reduction interpreter.

This is "the implementation" the paper contrasts with its semantic
model (Section 3.3): exceptional values are never represented
explicitly; ``raise`` trims the evaluation stack (here: propagates a
Python exception), overwriting every thunk under evaluation with
``raise ex`` on the way out, and thunks are blackholed on entry (which
enables the Section 5.2 "detectable bottoms" behaviour).

Which exception an execution *observes* depends on the evaluation
strategy (the order primitives evaluate their arguments) — that is the
imprecision.  The soundness property linking the two layers is property
tested: any observed exception is a member of the denoted exception
set.
"""

from repro.machine.values import VCon, VFun, VInt, VIO, VStr, Value
from repro.machine.heap import Cell, MachineDiverged, ObjRaise
from repro.machine.strategy import (
    LeftToRight,
    RightToLeft,
    Shuffled,
    Strategy,
)
from repro.machine.eval import BACKENDS, Machine, MachineStats, StatsSnapshot
from repro.machine.superop import SuperMachine
from repro.machine.frames import CClosure
from repro.machine.observe import (
    Diverged,
    Exceptional,
    Normal,
    Outcome,
    deep_force,
    observe,
    observe_program,
)

__all__ = [
    "BACKENDS",
    "CClosure",
    "Cell",
    "Diverged",
    "Exceptional",
    "LeftToRight",
    "Machine",
    "MachineDiverged",
    "MachineStats",
    "Normal",
    "ObjRaise",
    "Outcome",
    "RightToLeft",
    "Shuffled",
    "StatsSnapshot",
    "Strategy",
    "SuperMachine",
    "VCon",
    "VFun",
    "VIO",
    "VInt",
    "VStr",
    "Value",
    "deep_force",
    "observe",
    "observe_program",
]
