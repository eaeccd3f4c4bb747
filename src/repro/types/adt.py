"""Algebraic data type environments.

Elaborates parsed ``data`` declarations (syntactic types) into semantic
:class:`repro.types.types.Type` values, and records, for every
constructor, its owning type, type parameters and field types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.lang.ast import DataDecl, Program
from repro.lang.syntax_types import STCon, STFun, STVar, SynType
from repro.types.types import Scheme, TCon, TFun, TVar, Type, fun


class ADTError(Exception):
    pass


@dataclass(frozen=True)
class ConstructorInfo:
    """Everything inference needs about one constructor."""

    name: str
    type_name: str
    params: Tuple[str, ...]
    fields: Tuple[Type, ...]

    @property
    def arity(self) -> int:
        return len(self.fields)

    def result_type(self) -> Type:
        return TCon(self.type_name, tuple(TVar(p) for p in self.params))

    def scheme(self) -> Scheme:
        """The constructor as a function: ``forall ps. f1 -> ... -> T ps``."""
        return Scheme(self.params, fun(*self.fields, self.result_type()))


# Base types known without declaration.  Bool, List, Maybe, Tuple*,
# Exception, ExVal etc. come from the prelude's data declarations.
PRIMITIVE_TYPES: Dict[str, int] = {
    "Int": 0,
    "Char": 0,
    "String": 0,
    "IO": 1,
    "MVar": 1,
}


class ADTEnv:
    """Constructor and type-constructor environment."""

    def __init__(self) -> None:
        self.constructors: Dict[str, ConstructorInfo] = {}
        self.type_arity: Dict[str, int] = dict(PRIMITIVE_TYPES)

    @staticmethod
    def from_programs(*programs: Program) -> "ADTEnv":
        env = ADTEnv()
        for program in programs:
            for decl in program.data_decls:
                env.add_decl(decl)
        return env

    def copy(self) -> "ADTEnv":
        """An independent environment with the same declarations
        (entries are immutable, so the dicts are copied shallowly)."""
        env = ADTEnv()
        env.constructors = dict(self.constructors)
        env.type_arity = dict(self.type_arity)
        return env

    def add_decl(self, decl: DataDecl) -> None:
        if decl.name in self.type_arity:
            # Redeclaration with the same shape is tolerated (so the
            # prelude and a test fixture can both declare e.g. Bool);
            # differing shapes are an error.
            if self.type_arity[decl.name] != len(decl.params):
                raise ADTError(
                    f"type {decl.name!r} redeclared with different arity"
                )
        self.type_arity[decl.name] = len(decl.params)
        for cname, cargs in decl.constructors:
            fields = tuple(
                self.elaborate(arg, decl.params) for arg in cargs
            )
            info = ConstructorInfo(cname, decl.name, decl.params, fields)
            if cname in self.constructors:
                old = self.constructors[cname]
                if (old.type_name, old.params, old.fields) != (
                    info.type_name,
                    info.params,
                    info.fields,
                ):
                    raise ADTError(f"constructor {cname!r} redeclared")
            self.constructors[cname] = info

    def constructor(self, name: str) -> ConstructorInfo:
        info = self.constructors.get(name)
        if info is None:
            raise ADTError(f"unknown constructor {name!r}")
        return info

    def elaborate(
        self, syn: object, scope: Iterable[str] = ()
    ) -> Type:
        """Syntactic type -> semantic type.  ``scope`` lists the type
        variables in scope (a data declaration's parameters); other
        lower-case names also elaborate to TVars (for standalone
        signatures)."""
        if isinstance(syn, STVar):
            return TVar(syn.name)
        if isinstance(syn, STFun):
            return TFun(
                self.elaborate(syn.arg, scope),
                self.elaborate(syn.result, scope),
            )
        if isinstance(syn, STCon):
            args = tuple(self.elaborate(a, scope) for a in syn.args)
            return TCon(syn.name, args)
        raise ADTError(f"cannot elaborate type {syn!r}")
