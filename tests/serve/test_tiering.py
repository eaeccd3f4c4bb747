"""Tiered lowering at the program cache (repro.serve.cache).

On the ``super`` backend an entry's first use runs the closure
lowering; its first cache hit promotes it to fused frames.  Backend
parity makes the tiers observably identical, so these tests pin that
the choice is invisible in response bodies, that a program served once
never pays fused codegen, that promotion happens exactly once however
many hits race for it, and that the prelude type environment the
typecheck stage uses is built once per process and never mutated.
"""

import json
import sys
import threading

import pytest

import repro.api as api
import repro.machine.superop as superop
from repro.api import compile_program, shared_prelude_type_env
from repro.fuzz.gen import generate_case
from repro.machine.snapshot import shared_snapshot
from repro.serve import EvalService, ServiceConfig
from repro.serve.cache import CLOSURE, FUSED, ProgramCache

SEEDS = range(24)


@pytest.fixture
def fused_compiles(monkeypatch):
    """Count calls to ``compile_super`` (the cache imports it lazily,
    so patching the module attribute intercepts every promotion)."""
    calls = []
    real = superop.compile_super

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(superop, "compile_super", spy)
    return calls


def _service(**overrides):
    config = dict(backend="super", retries=0)
    config.update(overrides)
    return EvalService(ServiceConfig(**config), sleep=lambda s: None)


def _request(case):
    return {"expr": case.source, "stdin": case.stdin}


def _without_ids(body):
    return {
        k: v for k, v in body.items() if k not in ("request_id", "trace_id")
    }


def _lowering(service, body):
    return service.get_trace(body["trace_id"]).find("attempt").attrs.get(
        "lowering"
    )


@pytest.mark.parametrize("scheduler", ["threads", "cooperative"])
@pytest.mark.parametrize("faults", [None, 7], ids=["clean", "faults"])
def test_closure_and_fused_bodies_are_byte_identical(scheduler, faults):
    """Two services see the same request sequence, so request ids and
    fault plans line up.  ``closure`` serves each program on first
    sight; ``fused`` has seen each one before the request (a direct
    cache lookup, which does not advance the request counter), so its
    request is the entry's first hit and runs promoted code."""
    closure = _service(scheduler=scheduler, fault_seed=faults)
    fused = _service(scheduler=scheduler, fault_seed=faults)
    kinds = set()
    try:
        for seed in SEEDS:
            case = generate_case(seed)
            kinds.add(case.kind)
            fused.cache.lookup(case.source)
            status_c, body_c, _ = closure.handle(_request(case))
            status_f, body_f, _ = fused.handle(_request(case))
            assert status_c == status_f == 200
            assert json.dumps(_without_ids(body_c)) == json.dumps(
                _without_ids(body_f)
            ), case.source
            assert _lowering(closure, body_c) == CLOSURE
            assert _lowering(fused, body_f) == FUSED
        assert closure.health()["cache"]["promotions"] == 0
        assert fused.health()["cache"]["promotions"] == len(SEEDS)
    finally:
        closure.close()
        fused.close()
    assert kinds == {"pure", "io"}


def test_program_served_once_never_fuses(fused_compiles):
    service = _service()
    try:
        for seed in SEEDS:
            status, _body, _ = service.handle(_request(generate_case(seed)))
            assert status == 200
        assert fused_compiles == []
        # The first repeat is the entry's first hit: it promotes.
        service.handle(_request(generate_case(0)))
        assert len(fused_compiles) == 1
        service.handle(_request(generate_case(0)))
        assert len(fused_compiles) == 1
        assert service.health()["cache"]["promotions"] == 1
    finally:
        service.close()


def test_retries_within_one_request_do_not_promote(fused_compiles):
    """Every attempt of a retried request lowers the entry again (one
    fork each); only cache hits count toward promotion."""
    service = _service(retries=3, fault_seed=7, fault_horizon=200)
    retried = 0
    try:
        for seed in SEEDS:
            _status, body, _ = service.handle(_request(generate_case(seed)))
            retried += body.get("attempts", 1) > 1
    finally:
        service.close()
    assert retried > 0
    assert fused_compiles == []


def test_concurrent_hits_promote_exactly_once(fused_compiles):
    snapshot = shared_snapshot(backend="super")
    cache = ProgramCache(backend="super", strategy_key=snapshot.strategy_key())
    source = "sum (map (\\x -> x * x) (enumFromTo 1 20))"
    cache.lookup(source)  # first sight: a miss, no promotion
    barrier = threading.Barrier(16)
    results = []

    def hit():
        entry = cache.lookup(source)
        machine, _ = snapshot.fork()
        barrier.wait()
        results.append(entry.lower(snapshot.env, machine.strategy))

    threads = [threading.Thread(target=hit) for _ in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(fused_compiles) == 1
    assert cache.stats()["promotions"] == 1
    assert cache.stats()["hits"] == 16
    codes = {id(code) for code, _tier, _built in results}
    assert len(codes) == 1
    assert {tier for _code, tier, _built in results} == {FUSED}
    assert sum(built for _code, _tier, built in results) == 1


class TestSharedPreludeTypeEnv:
    def test_fresh_builds_have_equal_schemes(self):
        env_a, adts_a = api.prelude_type_env()
        env_b, adts_b = api.prelude_type_env()
        assert env_a is not env_b
        assert {k: str(v) for k, v in env_a.items()} == {
            k: str(v) for k, v in env_b.items()
        }
        assert adts_a.constructors == adts_b.constructors
        shared_env, _ = shared_prelude_type_env()
        assert {k: str(v) for k, v in shared_env.items()} == {
            k: str(v) for k, v in env_a.items()
        }

    def test_module_declarations_do_not_leak(self):
        """``typecheck_program`` declares a module's types in a private
        copy of the shared ``ADTEnv``: a served program still cannot
        see them, and a later module may declare the same name anew."""
        api.typecheck_program(compile_program("data Foo = MkFoo Int\n"))
        _env, adts = shared_prelude_type_env()
        assert "MkFoo" not in adts.constructors
        assert "Foo" not in adts.type_arity
        api.typecheck_program(compile_program("data Foo = MkFoo Int Int\n"))

        service = _service()
        try:
            status, body, _ = service.handle(
                {"expr": "MkFoo 1", "typecheck": True}
            )
        finally:
            service.close()
        assert status == 400
        assert _without_ids(body) == {
            "status": "error",
            "reason": "parse-error",
            "message": "unknown constructor 'MkFoo'",
        }

    def test_daemon_builds_it_once_and_not_at_boot(self, monkeypatch):
        builds = []
        real = api.prelude_type_env

        def counting():
            builds.append(1)
            return real()

        monkeypatch.setattr(api, "_shared_type_env", None)
        monkeypatch.setattr(api, "prelude_type_env", counting)
        service = _service()
        try:
            assert builds == []
            sources = ["1 + 2", 'length "abc"', '1 + "two"', "head Nil"]
            threads = [
                threading.Thread(
                    target=service.handle,
                    args=({"expr": s, "typecheck": True},),
                )
                for s in sources * 2
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            _status, body, _ = service.handle(
                {"expr": '1 + "two"', "typecheck": True}
            )
            assert body["reason"] == "type-error"
        finally:
            service.close()
        assert builds == [1]
