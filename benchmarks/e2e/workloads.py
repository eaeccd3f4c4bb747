"""The four traffic mixes, generated from a seed.

A workload is a set of daemon flags plus one request stream per client
connection.  Each stream is an endless iterator of :class:`Request`
(payload + expected answer); the seed is the only input, so the same
seed always yields the same requests.  The daemon only ever sees the
generated payloads.

Only ``tenants`` opens two connections, because contention between
them is what it measures.  The others use one: with two callers a
request's latency also depends on what the other connection happens to
be running at the time, and on ``cold-mix`` that nearly doubled the
run-to-run spread of the p95.

The seed changes every literal, message and tree shape, and the order
of requests; it never changes a mix's composition — which templates,
how many of each, their sizes and step counts are fixed.  Runs with
different seeds therefore do the same amount of work, and their spread
measures the system rather than the draw.

Why each mix exists (the README has the full table):

* ``warm-mix`` — a fixed corpus served from the cache: per-request
  fixed costs (HTTP/JSON, admission, fork, render) dominate; the
  control for machine and front-end changes.
* ``cold-mix`` — every source is new: parse/flatten, type inference and
  ``super`` codegen do the work; ``warm-mix`` is its control.
* ``compute`` — a repeat corpus of 2k–20k-step programs: ``machine-run``
  dominates; HTTP and front-end changes should move it little.
* ``tenants`` — the cooperative scheduler with a batch hog and three
  interactive tenants: the only mix that runs ``serve.scheduler`` and
  ``machine.slices``.

``cold-mix-hostile`` adds the unbound-variable and deep-fold requests
that drop the connection at the time of writing; it is runnable by name
but is not part of the recorded benchmark, whose workloads must not
fail.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Tuple

from benchmarks.e2e.oracle import (
    Batch,
    ClientError,
    Exhausted,
    Expect,
    OneOf,
    Raises,
    Value,
    reference,
)

INT_LIMIT = 2 ** 30  # well inside the machine's Int range (±2^31)
SPINNER_MAX_STEPS = 40_000


@dataclass(frozen=True)
class Request:
    """One ``POST /eval`` body and the answer it must get.  ``stream``
    names whose traffic it is (``light``/``hog`` on ``tenants``)."""

    payload: Dict[str, Any]
    expect: Expect
    stream: str = "main"

    @property
    def is_batch(self) -> bool:
        return "programs" in self.payload


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``repro serve`` flags beyond ``--port 0``.
    flags: Tuple[str, ...]
    #: seed -> one endless request stream per client connection.
    streams: Callable[[int], List[Iterator[Request]]]
    #: Requests each connection sends before the measured window.
    warmup: int
    #: The stream whose latencies are the end-to-end metrics.
    measured: str = "main"


def _request(
    src: str, expect: Expect, typecheck: bool = False, stream: str = "main", **fields: Any
) -> Request:
    payload: Dict[str, Any] = {"expr": src, **fields}
    if typecheck:
        payload["typecheck"] = True
    return Request(payload, expect, stream)


# -- cold-mix: fresh programs with closed-form answers -------------------


class _Term:
    """A generated integer expression: source text and value."""

    __slots__ = ("src", "value")

    def __init__(self, src: str, value: int) -> None:
        self.src = src
        self.value = value


def _arith(rng: random.Random, leaves: int, names: Dict[str, int]) -> _Term:
    """A random ``+ - * max min`` tree over ``leaves`` leaves (literals
    or the ``names`` in scope), built bottom-up so every intermediate
    value stays far from overflow."""
    if leaves <= 1:
        if names and rng.random() < 0.3:
            name = rng.choice(sorted(names))
            return _Term(name, names[name])
        n = rng.randint(0, 20)
        return _Term(str(n), n)
    split = rng.randint(1, leaves - 1)
    a, b = _arith(rng, split, names), _arith(rng, leaves - split, names)
    op = rng.choice(["+", "+", "-", "-", "*", "max", "min"])
    if op == "max":
        return _Term(f"max ({a.src}) ({b.src})", max(a.value, b.value))
    if op == "min":
        return _Term(f"min ({a.src}) ({b.src})", min(a.value, b.value))
    value = {"+": a.value + b.value, "-": a.value - b.value, "*": a.value * b.value}[op]
    if abs(value) >= INT_LIMIT:
        return _Term(f"min ({a.src}) ({b.src})", min(a.value, b.value))
    return _Term(f"({a.src}) {op} ({b.src})", value)


#: Template kinds of the well-formed cold-mix programs.
COLD_KINDS = ("arith", "let", "lambda", "pipeline", "cond", "case", "lazy", "raise")
#: Target sizes, in AST nodes.
COLD_SIZES = tuple(range(10, 201, 10))


def cold_program(rng: random.Random, kind: str, nodes: int) -> Tuple[str, Expect]:
    """A well-typed program of template ``kind`` and about ``nodes``
    AST nodes, with its closed-form answer."""
    leaves = max(2, nodes * 2 // 5)
    if kind == "arith":
        t = _arith(rng, leaves, {})
        return t.src, Value(str(t.value))
    if kind == "let":
        a = _arith(rng, leaves // 3 + 1, {})
        b = _arith(rng, leaves // 3 + 1, {"a": a.value})
        body = _arith(rng, leaves // 3 + 1, {"a": a.value, "b": b.value})
        return f"let {{ a = {a.src} ; b = {b.src} }} in {body.src}", Value(str(body.value))
    if kind == "lambda":
        k, c, d = rng.randint(1, 9), rng.randint(0, 50), rng.randint(0, 50)
        x = _arith(rng, leaves - 3, {})
        f = lambda v: v * k + c  # noqa: E731
        src = (
            f"let {{ f = \\x -> x * {k} + {c} ; g = \\y -> f (f y) - {d} }} "
            f"in g (({x.src}) `mod` 1000) + f {d}"
        )
        return src, Value(str(f(f(x.value % 1000)) - d + f(d)))
    if kind == "pipeline":
        lo = rng.randint(0, 30)
        hi = lo + 10 + leaves // 2
        k, c = rng.randint(1, 9), rng.randint(0, 20)
        m, r = rng.randint(2, 5), rng.randint(0, 1)
        xs = [x for x in range(lo, hi + 1) if x % m == r]
        filtered = f"filter (\\x -> x `mod` {m} == {r}) (enumFromTo {lo} {hi})"
        shape = rng.choice(["sum", "length", "foldr"])
        if shape == "sum":
            src = f"sum (map (\\x -> x * {k} + {c}) ({filtered}))"
            return src, Value(str(sum(x * k + c for x in xs)))
        if shape == "length":
            return f"length ({filtered})", Value(str(len(xs)))
        return f"foldr (\\x acc -> x + acc) {c} ({filtered})", Value(str(sum(xs) + c))
    if kind == "cond":
        a, b, t, e = (_arith(rng, leaves // 4 + 1, {}) for _ in range(4))
        src = f"if ({a.src}) < ({b.src}) then {t.src} else {e.src}"
        return src, Value(str(t.value if a.value < b.value else e.value))
    if kind == "case":
        items = [_arith(rng, max(1, leaves // 3), {}) for _ in range(3)]
        k = rng.randint(1, 9)
        src = (
            f"case [{', '.join(i.src for i in items)}] of "
            f"{{ Nil -> 0; (x:xs) -> x * {k} + length xs }}"
        )
        return src, Value(str(items[0].value * k + 2))
    if kind == "lazy":
        t = _arith(rng, leaves - 1, {})
        word = f"lazy{rng.randint(0, 999)}"
        if rng.random() < 0.5:
            return f"fst (Tuple2 ({t.src}) (error \"{word}\"))", Value(str(t.value))
        src = f"length [{t.src}, {rng.randint(1, 9)} `div` 0, error \"{word}\"]"
        return src, Value("3")
    # "raise": an imprecise exception inside an otherwise normal
    # computation.  The operators are strict in both operands, so the
    # denotation is the union of both sides' sets (§4).
    t = _arith(rng, leaves - 2, {})
    word = f"urk{rng.randint(0, 999)}"
    shape = rng.choice(["div-error", "mod-head", "error-error"])
    if shape == "div-error":
        src = f"(({t.src}) + ({rng.randint(1, 9)} `div` 0)) + error \"{word}\""
        return src, Raises(frozenset({"DivideByZero", "UserError"}))
    if shape == "mod-head":
        return f"(({t.src}) `mod` 0) * head Nil", Raises(frozenset({"DivideByZero", "UserError"}))
    src = f"(({t.src}) - error \"{word}\") * error \"x{word}\""
    return src, Raises(frozenset({"UserError"}))


def _malformed(rng: random.Random, slot: str) -> Tuple[str, Expect, bool]:
    """The client-error slots: ``(source, expected, typecheck)``."""
    t = _arith(rng, rng.randint(3, 30), {})
    if slot == "parse":
        src = rng.choice([f"({t.src}", f"{t.src})", f"let {{ a = {t.src} }} in", f"{t.src} +"])
        return src, ClientError("parse-error"), False
    if slot == "type":
        src = rng.choice([f"({t.src}) + True", f"if {t.src} then 1 else 2", f"length ({t.src})"])
        return src, ClientError("type-error"), True
    if slot == "unbound":
        return f"({t.src}) + unbound{rng.randint(0, 999)}", ClientError(None), False
    n = rng.randint(300, 3000)
    src = f"foldr (\\x acc -> x + acc) 0 (enumFromTo 1 {n})"
    deep = OneOf((Value(str(n * (n + 1) // 2)), Exhausted(None, "StackOverflow")))
    return src, deep, False


#: Every 40 cold-mix requests: a parse error and a type error (2.5%
#: each); the hostile variant also an unbound variable and a deep fold.
_COLD_SLOTS = {0: "parse", 20: "type"}
_HOSTILE_SLOTS = {0: "parse", 10: "unbound", 20: "type", 30: "deep"}


def _cold_stream(seed: int, hostile: bool) -> Iterator[Request]:
    """Fresh programs forever.  The well-formed ones cycle through every
    template kind and every size; 9 in 38 of them ask for a typecheck,
    so with the type-error slot a quarter of all requests do."""
    rng = random.Random(f"cold-mix:{seed}")
    slots = _HOSTILE_SLOTS if hostile else _COLD_SLOTS
    seen = set()
    well_formed = 0
    for i in itertools.count():
        slot = slots.get(i % 40)
        while True:
            if slot is not None:
                src, expect, typecheck = _malformed(rng, slot)
            else:
                kind = COLD_KINDS[well_formed % len(COLD_KINDS)]
                size = COLD_SIZES[well_formed % len(COLD_SIZES)]
                src, expect = cold_program(rng, kind, size)
                typecheck = well_formed * 9 % 38 < 9
            if src not in seen:
                break
        if slot is None:
            well_formed += 1
        seen.add(src)
        yield _request(src, expect, typecheck)


# -- repeat corpora (warm-mix, compute, tenants) -------------------------


def _repeat_streams(
    name: str, corpus: Callable[[int], List[Request]]
) -> Callable[[int], List[Iterator[Request]]]:
    """One connection cycling one corpus, reshuffled every pass in a
    seeded order."""

    def streams(seed: int) -> List[Iterator[Request]]:
        items = corpus(seed)

        def cycle(rng: random.Random) -> Iterator[Request]:
            while True:
                order = list(items)
                rng.shuffle(order)
                yield from order

        return [cycle(random.Random(f"{name}:{seed}"))]

    return streams


def _small_values(rng: random.Random) -> List[str]:
    a, b, c, d = (rng.randint(2, 60) for _ in range(4))
    return [
        f"{a} + {b} * {c} - {d}",
        f"length (enumFromTo {a} ({a} + 20))",
        f"max {a} {b} + min {c} {d}",
        f"reverse [{a}, {b}, {c}]",
        f"fst (Tuple2 {a} (error \"unused\"))",
        f"if {a} < {b} then {c} else {d}",
        f"case Just {a} of {{ Nothing -> 0; Just v -> v * {b} }}",
        f"take 3 (map (\\x -> x * {c}) (enumFromTo 1 10))",
        f"length [{a} `div` 0, error \"lazy\", {b}]",
        f"let {{ sq = \\x -> x * x }} in sq {a} + sq {b}",
    ]


def _imprecise(rng: random.Random) -> List[str]:
    a = rng.randint(1, 60)
    w1, w2 = f"Urk{rng.randint(0, 99)}", f"Ouch{rng.randint(0, 99)}"
    return [
        f"({a} `div` 0) + error \"{w1}\"",
        f"error \"{w1}\" * error \"{w2}\"",
        f"head Nil + ({a} `mod` 0)",
        f"sum [1, 2, error \"{w1}\", {a} `div` 0]",
    ]


def _warm_corpus(seed: int) -> List[Request]:
    """20 requests: 10 small values, 4 imprecise exceptions, 3 IO
    (``putStr``/``getException``/``catchIO``), 2 batch envelopes of 8
    and a 2k-step sum of squares; 5 of the single requests ask for a
    typecheck."""
    rng = random.Random(f"warm-mix:{seed}")
    a = rng.randint(1, 60)
    w = rng.choice(["hello", "imprecise", "exceptions", "pldi"])
    singles = _small_values(rng) + _imprecise(rng) + [
        f"thenIO (putStr \"{w}\") (putStr \"!\")",
        f"getException ({a} `div` 0)",
        f"catchIO (ioError (UserError \"{w}\")) (\\e -> returnIO {a})",
        f"sum (map (\\x -> x * x + {a}) (enumFromTo 1 48))",
    ]
    checked = {0, 3, 6, 11, 16}
    corpus = [
        _request(src, reference(src), i in checked) for i, src in enumerate(singles)
    ]
    for programs in (_small_values(rng)[:8], _small_values(rng)[:4] + _imprecise(rng)):
        corpus.append(
            Request({"programs": programs}, Batch(tuple(reference(p) for p in programs)))
        )
    return corpus


_FIB = "let { fib = \\n -> if n < 2 then n else fib (n - 1) + fib (n - 2) } in "
_TREE = (
    "let {{ build = \\d -> if d == 0 then Nothing "
    "else Just (Tuple3 (build (d - 1)) d (build (d - 1))) ; "
    "total = \\t -> case t of {{ Nothing -> 0; "
    "Just n -> case n of {{ Tuple3 l v r -> total l + v * {k} + total r }} }} }} in "
)


def _compute_corpus(seed: int) -> List[Request]:
    """12 evaluation-heavy programs of 4.4k–20k steps (about 10k on
    average): fib, list pipelines, a sort, tree folds, and exceptions
    raised only after a long computation.  Three ask for a typecheck
    (the tree folds are untypeable — the machine is untyped)."""
    rng = random.Random(f"compute:{seed}")
    k = [rng.randint(1, 9) for _ in range(8)]
    word = rng.choice(["late", "done", "finally"])
    programs = [
        (_FIB + f"fib 13 + {k[0]}", True),
        (_FIB + f"fib 15 + {k[1]}", False),
        (f"sum (map (\\x -> x * x + {k[2]}) (filter (\\x -> x `mod` 3 /= 0) "
         "(enumFromTo 1 120)))", True),
        (f"length (sort (map (\\x -> (x * 13) `mod` 53 + {k[3]}) (enumFromTo 1 30)))", False),
        (f"length (nub (map (\\x -> (x + {k[4]}) `mod` 16) (enumFromTo 1 60)))", True),
        (_TREE.format(k=k[5]) + "total (build 8)", False),
        (_TREE.format(k=k[6]) + "total (build 9)", False),
        (_FIB + f"fib 13 + ({k[7]} `div` (fib 1 - 1))", False),
        (f"let {{ go = \\n acc -> if n == 0 then error \"{word}\" "
         "else go (n - 1) (acc + n) } in go 700 0", False),
        (f"sum (map (\\x -> {1000 + k[0]} `div` (100 - x)) (enumFromTo 1 150))", False),
        (_FIB + f"(fib 12 `div` 0) + error \"{word}\"", False),
        (f"foldr (\\x acc -> x * x + acc) {k[1]} (filter even (enumFromTo 1 140))", False),
    ]
    return [_request(src, reference(src), typecheck) for src, typecheck in programs]


def _tenant_streams(seed: int) -> List[Iterator[Request]]:
    """Connection A: a batch-priority hog sending spinners, each of
    which trips the step governor.  Connection B: three interactive
    tenants in turn, each with its own light program (the third asks
    for a typecheck)."""
    rng = random.Random(f"tenants:{seed}")
    k = [rng.randint(1, 9) for _ in range(4)]
    trip = Exhausted("steps", "Timeout", steps=SPINNER_MAX_STEPS + 1)
    hog = [
        _request(src, trip, tenant="hog", priority="batch", stream="hog")
        for src in (
            "let { w = \\u -> w u } in w ()",
            f"let {{ spin = \\n -> spin n }} in spin {k[0]}",
        )
    ]
    lights = [
        f"sum (map (\\x -> x * x + {k[1]}) (enumFromTo 1 20))",
        f"length (filter even (enumFromTo {k[2]} ({k[2]} + 30)))",
        f"foldr (\\x acc -> x + acc) {k[3]} (enumFromTo 1 30)",
    ]
    light = [
        _request(
            src, reference(src), i == 2,
            tenant=f"light-{i}", priority="interactive", stream="light",
        )
        for i, src in enumerate(lights)
    ]
    return [itertools.cycle(hog), itertools.cycle(light)]


#: Every hog request ends resource-exhausted, which the circuit breaker
#: counts as a failure; five in a row would open it and turn the light
#: tenants away with 503s, so the tenants daemon raises the threshold.
_TENANT_FLAGS = (
    "--backend", "super",
    "--scheduler", "cooperative",
    "--workers", "2",
    "--slice-steps", "2000",
    "--max-steps", str(SPINNER_MAX_STEPS),
    "--breaker-threshold", "1000000",
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("warm-mix", ("--backend", "super"), _repeat_streams("warm-mix", _warm_corpus), 20),
        Workload(
            "cold-mix",
            ("--backend", "super"),
            lambda seed: [_cold_stream(seed, hostile=False)],
            10,
        ),
        Workload("compute", ("--backend", "super"), _repeat_streams("compute", _compute_corpus), 12),
        Workload("tenants", _TENANT_FLAGS, _tenant_streams, 6, measured="light"),
        Workload(
            "cold-mix-hostile",
            ("--backend", "super"),
            lambda seed: [_cold_stream(seed, hostile=True)],
            10,
        ),
    )
}

#: The recorded benchmark's workloads (BENCHMARK.json), in order.
RECORDED = ("warm-mix", "cold-mix", "compute", "tenants")
