"""The compilation-unit source registry.

Spans are ``(unit, region)`` pairs (:class:`repro.lang.ast.Span`): the
coordinates are local to one compilation unit, and ``unit`` names which
one.  This module is the other half of that pair — a process-wide table
mapping unit names to their source text, so any tool holding a span can
resolve the line it points at.  ``repro explain`` uses it to quote the
prelude line behind a prelude-introduced raise (e.g. ``error``'s
``raise``) instead of leaving the reader to guess what
``prelude:23:13`` says.

Registration is idempotent and the registry is deliberately tiny: the
prelude registers itself when loaded, and embedders (the evaluation
service, tests) may register additional named units.  Unregistered
units resolve to nothing — a span is still printable without its
source, just less helpful.
"""

from __future__ import annotations

from typing import Dict, Optional

_SOURCES: Dict[str, str] = {}


def register_unit(name: str, source: str) -> None:
    """Register (or re-register) the source text of a named unit."""
    _SOURCES[name] = source


def source_line(unit: Optional[str], line: int) -> Optional[str]:
    """Line ``line`` (1-based) of ``unit``'s source, or None when the
    unit is unregistered or the line is out of range."""
    if unit is None:
        return None
    source = _SOURCES.get(unit)
    if source is None:
        return None
    lines = source.splitlines()
    if 1 <= line <= len(lines):
        return lines[line - 1]
    return None
