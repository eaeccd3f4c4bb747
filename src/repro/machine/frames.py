"""Slot-addressed frames and pruned closures for the ``super`` backend.

The AST interpreter represents an environment as a string-keyed dict
and copies the *whole* dict on every application and ``let`` — so each
call pays for every binding in scope (including the ~40 prelude
entries), whether the body mentions it or not.  The lowered code
(:mod:`repro.machine.compile`, :mod:`repro.machine.superop`) replaces that with *frames*: flat
tuples of heap cells, indexed by slot numbers the resolver assigns at
compile time.

Layout discipline (fixed by the resolver, one frame per binder):

* lambda-body frame: ``(argument, captured_0, ..., captured_k)``
* ``let`` frame: ``(bind_0, ..., bind_n, captured_0, ...)`` — the
  bound cells see the frame itself, which ties recursive knots;
* case-alt frame: ``(pattern_bind_0, ..., captured_0, ...)`` — built
  only when the alternative actually binds names; a non-binding
  alternative reuses the scrutinee's frame unchanged;
* ``fix`` frame: ``(knot_cell, captured_0, ...)``.

Captured slices are *pruned*: a closure holds exactly the cells its
body's free variables name (in sorted name order), so a tight inner
lambda does not retain the whole enclosing environment — the space
behaviour STG-style compiled code has, rather than the dict-copy
behaviour of the tree-walker.  Top-level and prelude bindings never
occupy frame slots at all: the compiler bakes their cells in directly
(see ``_var_global`` in repro.machine.compile).
"""

from __future__ import annotations

from repro.machine.values import VFun


class CClosure(VFun):
    """A compiled closure: body code plus its pruned capture tuple.

    Subclasses :class:`VFun` so everything that type-tests for
    function-ness (the IO executor, ``fix``, the fuzz oracle's
    ``ok-fun`` classification) treats both backends' functions alike.
    The AST fields ``body``/``env`` are ``None`` here; application goes
    through ``Machine.bind_cell`` or the lowered App code, never
    through field poking.

    Frame convention: the body code runs on ``(arg,) + captures``.
    """

    __slots__ = ("code", "captures")

    def __init__(self, var: str, code, captures) -> None:
        self.var = var
        self.body = None
        self.env = None
        self.code = code
        self.captures = captures

    def __str__(self) -> str:
        return f"\\{self.var} -> ..."
