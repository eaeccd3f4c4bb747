"""Type representations: monotypes and type schemes."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple


class Type:
    __slots__ = ()


@dataclass(frozen=True)
class TVar(Type):
    """A type variable (unification or quantified)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class TCon(Type):
    """A type constructor application: ``Int``, ``List a``, ``IO a``."""

    name: str
    args: Tuple[Type, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        if self.name == "List" and len(self.args) == 1:
            return f"[{self.args[0]}]"
        if self.name.startswith("Tuple"):
            return "(" + ", ".join(str(a) for a in self.args) + ")"
        inner = " ".join(
            f"({a})" if isinstance(a, (TCon, TFun)) and _needs_parens(a) else str(a)
            for a in self.args
        )
        return f"{self.name} {inner}"


@dataclass(frozen=True)
class TFun(Type):
    """The function type ``arg -> result``."""

    arg: Type
    result: Type

    def __str__(self) -> str:
        arg = (
            f"({self.arg})" if isinstance(self.arg, TFun) else str(self.arg)
        )
        return f"{arg} -> {self.result}"


def _needs_parens(t: Type) -> bool:
    if isinstance(t, TFun):
        return True
    return isinstance(t, TCon) and bool(t.args) and t.name != "List"


INT = TCon("Int")
CHAR = TCon("Char")
STRING = TCon("String")
BOOL = TCon("Bool")
UNIT = TCon("Unit")
EXCEPTION = TCon("Exception")


def io_of(t: Type) -> TCon:
    return TCon("IO", (t,))


def exval_of(t: Type) -> TCon:
    return TCon("ExVal", (t,))


def fun(*types: Type) -> Type:
    """``fun(a, b, c)`` builds ``a -> b -> c``."""
    result = types[-1]
    for t in reversed(types[:-1]):
        result = TFun(t, result)
    return result


def free_type_vars(t: Type) -> FrozenSet[str]:
    if isinstance(t, TVar):
        return frozenset((t.name,))
    if isinstance(t, TCon):
        out: FrozenSet[str] = frozenset()
        for arg in t.args:
            out |= free_type_vars(arg)
        return out
    if isinstance(t, TFun):
        return free_type_vars(t.arg) | free_type_vars(t.result)
    raise TypeError(f"free_type_vars: {t!r}")


@dataclass(frozen=True)
class Scheme:
    """A polymorphic type: ``forall vars. type``."""

    vars: Tuple[str, ...]
    type: Type

    @staticmethod
    def mono(t: Type) -> "Scheme":
        return Scheme((), t)

    def free_vars(self) -> FrozenSet[str]:
        return free_type_vars(self.type) - frozenset(self.vars)

    def __str__(self) -> str:
        if not self.vars:
            return str(self.type)
        return f"forall {' '.join(self.vars)}. {self.type}"


class TVarSupply:
    """Fresh type-variable names: t0, t1, ..."""

    def __init__(self) -> None:
        self._counter = itertools.count()

    def fresh(self, hint: str = "t") -> TVar:
        return TVar(f"{hint}{next(self._counter)}")
