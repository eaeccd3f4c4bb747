"""Substitutions and unification (Robinson, with occurs check)."""

from __future__ import annotations

from typing import Dict, Optional

from repro.types.types import TCon, TFun, TVar, Type

Subst = Dict[str, Type]


class UnifyError(Exception):
    def __init__(self, t1: Type, t2: Type, reason: str = "") -> None:
        message = f"cannot unify {t1} with {t2}"
        if reason:
            message += f" ({reason})"
        super().__init__(message)
        self.t1 = t1
        self.t2 = t2


def apply_subst(subst: Subst, t: Type) -> Type:
    if isinstance(t, TVar):
        replacement = subst.get(t.name)
        if replacement is None:
            return t
        # Path-compress chains v -> v' -> type.
        result = apply_subst(subst, replacement)
        if result is not replacement:
            subst[t.name] = result
        return result
    if isinstance(t, TCon):
        if not t.args:
            return t
        return TCon(t.name, tuple(apply_subst(subst, a) for a in t.args))
    if isinstance(t, TFun):
        return TFun(
            apply_subst(subst, t.arg), apply_subst(subst, t.result)
        )
    raise TypeError(f"apply_subst: {t!r}")


def _occurs(name: str, t: Type, subst: Subst) -> bool:
    t = apply_subst(subst, t)
    if isinstance(t, TVar):
        return t.name == name
    if isinstance(t, TCon):
        return any(_occurs(name, a, subst) for a in t.args)
    if isinstance(t, TFun):
        return _occurs(name, t.arg, subst) or _occurs(name, t.result, subst)
    return False


def unify(t1: Type, t2: Type, subst: Subst) -> None:
    """Destructively extend ``subst`` so that ``t1`` equals ``t2``."""
    t1 = apply_subst(subst, t1)
    t2 = apply_subst(subst, t2)
    if isinstance(t1, TVar):
        if isinstance(t2, TVar) and t1.name == t2.name:
            return
        if _occurs(t1.name, t2, subst):
            raise UnifyError(t1, t2, "occurs check")
        subst[t1.name] = t2
        return
    if isinstance(t2, TVar):
        unify(t2, t1, subst)
        return
    if isinstance(t1, TCon) and isinstance(t2, TCon):
        if t1.name != t2.name or len(t1.args) != len(t2.args):
            raise UnifyError(t1, t2)
        for a, b in zip(t1.args, t2.args):
            unify(a, b, subst)
        return
    if isinstance(t1, TFun) and isinstance(t2, TFun):
        unify(t1.arg, t2.arg, subst)
        unify(t1.result, t2.result, subst)
        return
    raise UnifyError(t1, t2)
