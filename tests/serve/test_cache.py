"""The content-addressed program cache (repro.serve.cache).

Pins the properties docs/SERVING.md advertises: sha256 × backend ×
strategy keying, LRU bounding with oldest-first eviction, automatic
invalidation on source edits (a changed source is a different key),
negative caching of parse errors, and memoised lazy stages (lowering
in each tier, typecheck) that run at most once per entry.  The tiering
itself is pinned in tests/serve/test_tiering.py.
"""

import pytest

from repro.machine.snapshot import shared_snapshot
from repro.serve.cache import CachedProgram, ProgramCache, source_digest


def _cache(capacity=4, backend="ast", strategy_key="left-to-right"):
    return ProgramCache(
        backend=backend, strategy_key=strategy_key, capacity=capacity
    )


class TestKeying:
    def test_key_is_digest_backend_strategy(self):
        cache = _cache()
        key = cache.key_for("1 + 2")
        assert key == (
            source_digest("1 + 2"),
            "ast",
            "left-to-right",
        )

    def test_edited_source_is_a_different_key(self):
        """Content addressing *is* the invalidation story: the old
        artifact can never be served for new source."""
        cache = _cache()
        before = cache.lookup("1 + 2")
        after = cache.lookup("1 + 3")
        assert before is not after
        assert before.key != after.key
        # and the original is still served from cache, unchanged
        assert cache.lookup("1 + 2") is before

    def test_distinct_backends_do_not_share_entries(self):
        ast = _cache(backend="ast")
        fused = _cache(backend="super")
        assert ast.key_for("1") != fused.key_for("1")


class TestLRU:
    def test_capacity_is_enforced(self):
        cache = _cache(capacity=3)
        for i in range(10):
            cache.lookup(f"1 + {i}")
        assert len(cache) == 3
        assert cache.stats()["evictions"] == 7

    def test_eviction_is_oldest_first(self):
        cache = _cache(capacity=2)
        cache.lookup("1")
        cache.lookup("2")
        cache.lookup("3")  # evicts "1"
        assert "1" not in cache
        assert "2" in cache and "3" in cache

    def test_hit_refreshes_recency(self):
        cache = _cache(capacity=2)
        cache.lookup("1")
        cache.lookup("2")
        cache.lookup("1")  # "2" is now the LRU entry
        cache.lookup("3")  # evicts "2", not "1"
        assert "1" in cache
        assert "2" not in cache

    def test_hit_and_miss_counters(self):
        cache = _cache()
        cache.lookup("1 + 2")
        cache.lookup("1 + 2")
        cache.lookup("1 + 2")
        cache.lookup("3 + 4")
        stats = cache.stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 2
        assert stats["entries"] == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            _cache(capacity=0)


class TestInvalidation:
    def test_explicit_invalidate(self):
        cache = _cache()
        first = cache.lookup("head Nil")
        assert cache.invalidate("head Nil") is True
        assert "head Nil" not in cache
        assert cache.invalidate("head Nil") is False
        assert cache.lookup("head Nil") is not first
        assert cache.stats()["invalidations"] == 1

    def test_clear_empties_and_counts(self):
        cache = _cache()
        cache.lookup("1")
        cache.lookup("2")
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 2


class TestNegativeCaching:
    def test_parse_error_is_cached(self):
        cache = _cache()
        entry = cache.lookup("let { = } in")
        assert entry.error is not None
        assert entry.expr is None
        assert cache.lookup("let { = } in") is entry
        assert cache.stats()["hits"] == 1


class TestCachedProgram:
    def test_typecheck_memoised(self):
        entry = _cache().lookup("1 + 2")
        verdict = entry.typecheck()
        assert verdict == ("ok", "Int")
        assert entry.typecheck() is verdict

    def test_typecheck_reports_type_errors(self):
        entry = _cache().lookup('1 + "two"')
        status, message = entry.typecheck()
        assert status == "type-error"
        assert message

    def test_code_compiles_once_and_is_shared_across_forks(self):
        """The lowered artifact bakes the snapshot's frozen cells in,
        so one compilation serves every fork of that snapshot — in
        each tier: the closure tree an entry's first use builds, and
        the fused frames its first cache hit builds."""
        snapshot = shared_snapshot(backend="super")
        cache = ProgramCache(
            backend="super",
            strategy_key=snapshot.strategy_key(),
        )

        def lower_twice(entry):
            m1, _ = snapshot.fork()
            m2, _ = snapshot.fork()
            code, tier, built = entry.lower(snapshot.env, m1.strategy)
            assert built
            assert entry.lower(snapshot.env, m2.strategy) == (
                code,
                tier,
                False,
            )
            assert str(m1.eval(code, ())) == str(m2.eval(code, ())) == "55"
            return code, tier

        entry = cache.lookup("sum (enumFromTo 1 10)")
        closure, tier = lower_twice(entry)
        assert tier == "closure"
        assert cache.lookup("sum (enumFromTo 1 10)") is entry
        fused, tier = lower_twice(entry)
        assert tier == "fused"
        assert fused is not closure
        assert cache.stats()["promotions"] == 1

    def test_entry_shape(self):
        entry = CachedProgram(("k",), "1", object(), None)
        assert entry.source == "1"
        assert entry.error is None
