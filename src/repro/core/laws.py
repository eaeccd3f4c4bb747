"""Law checking (Section 4.5).

A *law* relates two expression schemas.  Under the imprecise semantics
a transformation is

* an **identity** when ``[lhs] = [rhs]`` in every tested environment,
* a **refinement** when ``[lhs] ⊑ [rhs]`` (the rewrite may only
  *increase* information — "it is legitimate to perform a transformation
  that increases information"), and
* **unsound** otherwise.

The checker instantiates the schemas' free variables over a battery of
denotations (normal values, exceptional values, ⊥) and compares the
results with :func:`repro.core.ordering.refines`.  It is a testing
semantics: it can refute laws outright and classify the ones that
survive; the classifications for the paper's examples match the paper
(E3/E9, see EXPERIMENTS.md).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.denote import (
    DenoteContext,
    InternalError,
    denote,
    ensure_recursion_headroom,
)
from repro.core.domains import (
    BAD_EMPTY,
    BOTTOM,
    Bad,
    ConVal,
    FunVal,
    Ok,
    SemVal,
    Thunk,
)
from repro.core.excset import (
    DIVIDE_BY_ZERO,
    ExcSet,
    OVERFLOW,
    user_error,
)
from repro.core.ordering import refines
from repro.lang.ast import Expr
from repro.lang.names import free_vars

# A compact but discriminating battery of denotations.  It contains the
# values the paper's own counter-examples need: distinct normal values,
# distinct singleton Bads (error "This" vs error "That"), Bad {} and ⊥.
DEFAULT_BATTERY: Tuple[SemVal, ...] = (
    Ok(0),
    Ok(1),
    Ok(7),
    Ok(ConVal("True")),
    Ok(ConVal("False")),
    Bad(ExcSet.of(DIVIDE_BY_ZERO)),
    Bad(ExcSet.of(user_error("This"))),
    Bad(ExcSet.of(user_error("That"))),
    Bad(ExcSet.of(DIVIDE_BY_ZERO, OVERFLOW)),
    BAD_EMPTY,
    BOTTOM,
)

# Function-valued battery entries, used when a schema variable is
# applied in the law (e.g. the f and g of the case-pushing example).
FUNCTION_BATTERY: Tuple[SemVal, ...] = (
    Ok(FunVal(lambda t: Ok(3), label="\\_ -> 3")),
    Ok(FunVal(lambda t: t.force(), label="id")),
    Ok(FunVal(lambda t: BOTTOM, label="\\_ -> bottom")),
    Ok(
        FunVal(
            lambda t: Bad(ExcSet.of(user_error("F"))),
            label="\\_ -> raise F",
        )
    ),
    Bad(ExcSet.of(user_error("badfun"))),
)

# The paper's own function instantiations for the Section 4.5 example
# (f = g = \v.1): total functions only.  With ⊥-bodied functions in
# scope the app-of-case rewrite is *not* monotone (a reproduction
# finding documented in EXPERIMENTS.md), so the paper-faithful checks
# use this battery.
TOTAL_FUNCTION_BATTERY: Tuple[SemVal, ...] = (
    Ok(FunVal(lambda t: Ok(1), label="\\v -> 1")),
    Ok(FunVal(lambda t: Ok(3), label="\\_ -> 3")),
    Ok(FunVal(lambda t: t.force(), label="id")),
    Bad(ExcSet.of(user_error("badfun"))),
)

# Pair-valued entries for laws whose variables are scrutinised against
# Tuple2 patterns (the Section 4 case-switch example).
PAIR_BATTERY: Tuple[SemVal, ...] = (
    Ok(ConVal("Tuple2", (Thunk.ready(Ok(1)), Thunk.ready(Ok(2))))),
    Ok(
        ConVal(
            "Tuple2",
            (
                Thunk.ready(Bad(ExcSet.of(user_error("inL")))),
                Thunk.ready(Ok(5)),
            ),
        )
    ),
    Ok(ConVal("Tuple2", (Thunk.ready(BOTTOM), Thunk.ready(BOTTOM)))),
    Bad(ExcSet.of(DIVIDE_BY_ZERO)),
    Bad(ExcSet.of(user_error("This"))),
    BAD_EMPTY,
    BOTTOM,
)

# Boolean-valued entries for laws scrutinising True/False.
BOOL_BATTERY: Tuple[SemVal, ...] = (
    Ok(ConVal("True")),
    Ok(ConVal("False")),
    Bad(ExcSet.of(DIVIDE_BY_ZERO)),
    Bad(ExcSet.of(user_error("This"))),
    BAD_EMPTY,
    BOTTOM,
)


@dataclass
class LawReport:
    """The outcome of checking one law over a battery of environments."""

    name: str
    verdict: str  # "identity" | "refinement" | "unsound"
    environments_tested: int
    counterexample: Optional[Dict[str, SemVal]] = None
    lhs_value: Optional[SemVal] = None
    rhs_value: Optional[SemVal] = None

    @property
    def holds(self) -> bool:
        """Is the rewrite lhs -> rhs legitimate (identity or refinement)?"""
        return self.verdict in ("identity", "refinement")

    def __str__(self) -> str:
        text = f"{self.name}: {self.verdict} ({self.environments_tested} envs)"
        if self.counterexample is not None:
            bindings = ", ".join(
                f"{k} = {v}" for k, v in self.counterexample.items()
            )
            text += (
                f"\n  counterexample: {bindings}"
                f"\n  lhs = {self.lhs_value}, rhs = {self.rhs_value}"
            )
        return text


def _batteries_for(
    names: Sequence[str],
    function_vars: Iterable[str],
    battery: Sequence[SemVal],
    var_batteries: Optional[Dict[str, Sequence[SemVal]]] = None,
) -> Iterable[Dict[str, Thunk]]:
    fun_vars = set(function_vars)
    overrides = var_batteries or {}

    def battery_for(name: str) -> Sequence[SemVal]:
        if name in overrides:
            return tuple(overrides[name])
        if name in fun_vars:
            return FUNCTION_BATTERY
        return tuple(battery)

    per_var = [battery_for(name) for name in names]
    for combo in itertools.product(*per_var):
        yield {
            name: Thunk.ready(value) for name, value in zip(names, combo)
        }


def check_law(
    lhs: Expr,
    rhs: Expr,
    name: str = "law",
    battery: Sequence[SemVal] = DEFAULT_BATTERY,
    function_vars: Iterable[str] = (),
    fuel: int = 50_000,
    ctx_factory=None,
    base_env: Optional[Dict[str, Thunk]] = None,
    max_environments: int = 4000,
    var_batteries: Optional[Dict[str, Sequence[SemVal]]] = None,
) -> LawReport:
    """Check ``lhs -> rhs`` over all battery instantiations of the free
    variables shared by the two sides.

    ``ctx_factory`` lets callers check the same law under a different
    semantics (e.g. the fixed-order baseline) by supplying a
    ``DenoteContext`` constructor.  ``var_batteries`` overrides the
    battery per variable — laws are quantified over *well-typed*
    environments, so a variable matched against ``Tuple2`` patterns
    should range over :data:`PAIR_BATTERY`, etc.
    """
    ensure_recursion_headroom()
    names = sorted(free_vars(lhs) | free_vars(rhs))
    if base_env:
        names = [n for n in names if n not in base_env]
    verdict = "identity"
    tested = 0
    for env in _batteries_for(names, function_vars, battery, var_batteries):
        if tested >= max_environments:
            break
        tested += 1
        full_env = dict(base_env) if base_env else {}
        full_env.update(env)
        ctx_l = (
            ctx_factory() if ctx_factory else DenoteContext(fuel=fuel)
        )
        ctx_r = (
            ctx_factory() if ctx_factory else DenoteContext(fuel=fuel)
        )
        try:
            lhs_val = denote(lhs, dict(full_env), ctx_l)
            rhs_val = denote(rhs, dict(full_env), ctx_r)
        except InternalError:
            # This battery instantiation is ill-typed for the schema
            # (e.g. a Bool fed to +); laws are quantified over
            # well-typed environments only.
            tested -= 1
            continue
        forward = refines(lhs_val, rhs_val)
        if not forward:
            return LawReport(
                name,
                "unsound",
                tested,
                counterexample={k: t.force() for k, t in env.items()},
                lhs_value=lhs_val,
                rhs_value=rhs_val,
            )
        if verdict == "identity" and not refines(rhs_val, lhs_val):
            verdict = "refinement"
    return LawReport(name, verdict, tested)
