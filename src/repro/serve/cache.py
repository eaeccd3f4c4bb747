"""The content-addressed program cache behind ``repro serve``.

A served program's front-end work — parse, pattern-flatten, optionally
typecheck, and (on the ``super`` backend) lower to closures or fused
frames — is a pure function of the *source text*, the
*backend* and the *strategy*.  The
cache therefore keys entries by ``sha256(source) × backend ×
strategy`` and stores the derived artifacts:

* the flattened AST (``expr``) — or, for unparseable source, the
  parse error itself (negative caching: a client retrying a bad
  program in a loop should not re-run the parser either);
* the lowered program (``lower()``), built lazily on first use
  against the :class:`~repro.machine.snapshot.PreludeSnapshot`'s
  frozen environment — the generated code bakes those shared cells in,
  which is exactly why it can be reused by every fork (the cells are
  immutable and machine-independent; the running machine is a call
  argument, not a capture);
* the type-check verdict (``typecheck()``), also lazy — most clients
  do not ask for it.  Inference runs against the process-wide prelude
  type environment (:func:`repro.api.shared_prelude_type_env`), so a
  miss pays for the program alone.

Lowering is tiered on the ``super`` backend.  An entry's first use
runs the closure lowering (:func:`~repro.machine.compile.compile_top`,
cheap to build); its first cache *hit* — counted in
:meth:`ProgramCache.lookup`, so retries and forks within one request
never count — marks it hot, and its next lowering builds the fused
frames (:func:`~repro.machine.superop.compile_super`) once and drops
the closure tree.  Backend parity makes the two tiers observably
identical (same steps, allocations, events and traces), so the choice
is purely a cost decision: a program seen once never pays fused
codegen, and a repeated one runs fused code from its second request.

Invalidation is structural: content addressing means an edited source
*is* a different key, so stale artifacts are never served — the old
entry simply ages out of the LRU bound.  ``invalidate`` exists for
explicit eviction (operational hygiene, tested), and ``clear`` drops
everything.  All operations are thread-safe under one lock; the lazy
``lower``/``typecheck`` stages are double-checked under the entry's
lock, so concurrent misses compile once and concurrent hits promote
once.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple


#: The two lowering tiers, as reported on the ``attempt`` span.
CLOSURE = "closure"
FUSED = "fused"


class CachedProgram:
    """One cache entry: source-derived artifacts, computed at most once."""

    __slots__ = (
        "key",
        "source",
        "expr",
        "error",
        "hot",
        "owner",
        "_lowered",
        "_verdict",
        "_lock",
    )

    def __init__(self, key, source: str, expr, error) -> None:
        self.key = key
        self.source = source
        self.expr = expr
        self.error = error  # parse/flatten failure message, or None
        self.hot = False  # set by the entry's first cache hit
        self.owner: Optional["ProgramCache"] = None
        self._lowered: Optional[Tuple[Any, str]] = None  # (code, tier)
        self._verdict: Optional[Tuple[str, str]] = None
        self._lock = threading.Lock()

    def lower(self, glob, strategy) -> Tuple[Any, str, bool]:
        """``(code, tier, built)``: the program lowered against
        ``glob`` (the snapshot's frozen environment) in the tier the
        entry has reached, and whether this call paid the codegen.
        The tier is ``"fused"`` once the entry is hot and
        ``"closure"`` otherwise."""
        tier = FUSED if self.hot else CLOSURE
        lowered = self._lowered
        if lowered is not None and lowered[1] == tier:
            return lowered[0], tier, False
        with self._lock:
            lowered = self._lowered
            if lowered is not None and lowered[1] == tier:
                return lowered[0], tier, False
            if tier == FUSED:
                from repro.machine.superop import compile_super

                code = compile_super(self.expr, glob, strategy)
            else:
                from repro.machine.compile import compile_top

                code = compile_top(self.expr, glob, strategy)
            # Replacing the pair drops the closure tree on promotion;
            # forks already running it keep their own reference.
            self._lowered = (code, tier)
        if tier == FUSED and self.owner is not None:
            self.owner._count_promotion()
        return code, tier, True

    def typecheck(self) -> Tuple[str, str]:
        """``("ok", type)`` or ``("type-error", message)``, memoised."""
        if self._verdict is None:
            with self._lock:
                if self._verdict is None:
                    self._verdict = self._infer()
        return self._verdict

    def _infer(self) -> Tuple[str, str]:
        from repro.api import shared_prelude_type_env
        from repro.types.infer import TypeError_, infer_expr

        try:
            env, adts = shared_prelude_type_env()
            t = infer_expr(self.expr, env, adts)
        except TypeError_ as err:
            return ("type-error", str(err))
        return ("ok", str(t))


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class ProgramCache:
    """A bounded, thread-safe LRU of :class:`CachedProgram` entries."""

    def __init__(
        self, backend: str, strategy_key: str, capacity: int = 256
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.backend = backend
        self.strategy_key = strategy_key
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, CachedProgram]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.promotions = 0

    def key_for(self, source: str) -> tuple:
        return (source_digest(source), self.backend, self.strategy_key)

    def lookup(self, source: str) -> CachedProgram:
        """The entry for ``source``, front end run on first sight."""
        key = self.key_for(source)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                entry.hot = True
                self._entries.move_to_end(key)
                return entry
            self.misses += 1
        # Parse outside the lock: front-end work must not serialize
        # unrelated requests.  A concurrent duplicate miss is benign —
        # last writer wins and both entries are equivalent.
        from repro.api import compile_expr

        try:
            expr, error = compile_expr(source), None
        except Exception as err:
            expr, error = None, str(err)
        entry = CachedProgram(key, source, expr, error)
        entry.owner = self
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return entry

    def _count_promotion(self) -> None:
        with self._lock:
            self.promotions += 1

    def invalidate(self, source: str) -> bool:
        """Drop the entry for ``source``; True if one was cached."""
        key = self.key_for(source)
        with self._lock:
            if key in self._entries:
                del self._entries[key]
                self.invalidations += 1
                return True
            return False

    def clear(self) -> int:
        with self._lock:
            n = len(self._entries)
            self._entries.clear()
            self.invalidations += n
            return n

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, source: str) -> bool:
        with self._lock:
            return self.key_for(source) in self._entries

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "promotions": self.promotions,
            }
