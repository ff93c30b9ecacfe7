"""The four workloads: their requests, pinned answers, and runners.

``zoo_sweeps``, ``deep_hunt`` and ``engine_fanout`` send their requests
one after another through :class:`repro.api.Session`, with no store: every
answer is computed ("cold"). ``serve_mix`` puts
:class:`repro.service.http.VerificationService` over a fresh
:class:`repro.store.FileStore` on a loopback port. Its cold phase streams
36 spec documents as NDJSON, one at a time (store misses, so store
writes); its warm phase is a closed loop of one client thread replaying
``Accept: application/json`` requests in an order drawn from the seed
(store hits, so store reads).

Every answer is checked against a hand-pinned known answer, and every warm
reply must be a store hit equal, timings stripped, to its cold answer.
Warm replies are checked after the timed interval.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.api import (
    EngineSpec,
    Session,
    VerificationRequest,
    VerificationResult,
    result_from_dict,
    result_to_dict,
    strip_result_timings,
    with_engine,
)
from repro.obs.trace import TRACER
from repro.service.http import VerificationService
from repro.store import FileStore

from perfbench.layers import BENCH

#: Warm replays per serve_mix repeat: a repeat's warm p99 alone has at
#: least ten samples beyond it.
WARM_REPLAYS = 1200

#: Closed-loop client threads of the serve_mix warm phase. One: with two,
#: the clients, the service loop and its executor outnumber the two CPUs,
#: and on a contended host the warm phase measured thread wake-ups more
#: than the service (ten runs spread 26% against 9% for deep_hunt).
SERVE_CLIENTS = 1

_NDJSON = "application/x-ndjson"
_JSON = "application/json"

# ---------------------------------------------------------------------------
# pinned answers
# ---------------------------------------------------------------------------

#: zoo row -> exact worst-case N when proved, None when not proved.
ZOO_ANSWERS: dict[str, int | None] = {
    "balance_count(margin=2)": 2,
    "greedy_halving(margin=2)": 2,
    "provable_weighted(margin=2, margin_weight=30)": 2,
    "weighted_balance(margin_weight=30)": None,
    "naive_overloaded": None,
    "greedy_ready": None,
    "random_steal(seed=0)": None,
    "balance_count(margin=1)": None,
    "balance_count(margin=3)": None,
}

#: serve_mix policies; the first three are provable at every serve scope.
SERVE_POLICIES = ("balance_count", "greedy_halving", "provable_weighted",
                  "naive", "greedy_ready", "weighted")
PROVABLE = frozenset(SERVE_POLICIES[:3])
SERVE_SCOPES = ((3, 2), (3, 3), (4, 2))


def check_zoo(result: VerificationResult) -> str | None:
    """Mismatch description, or None when the zoo matrix is as pinned."""
    if result.zoo is None:
        return "no zoo report"
    rows = {cert.policy_name: cert.exact_worst_rounds if cert.proved
            else None for cert in result.zoo.certificates}
    return None if rows == ZOO_ANSWERS else \
        f"zoo rows {rows}, expected {ZOO_ANSWERS}"


def expect_hunt(violated: bool, states: int,
                rounds: int | None) -> Callable[[VerificationResult],
                                                str | None]:
    """A check pinning a hunt's verdict, state count and exact N."""
    want = (violated, states, rounds)

    def check(result: VerificationResult) -> str | None:
        analysis = result.analysis
        if analysis is None:
            return "no analysis"
        got = (analysis.violated, analysis.states_explored,
               analysis.worst_case_rounds)
        return None if got == want else f"hunt gave {got}, expected {want}"
    return check


def expect_verdict(verdict: str) -> Callable[[dict[str, Any]], str | None]:
    """A check pinning the verdict of a result document."""
    def check(document: dict[str, Any]) -> str | None:
        got = document.get("verdict")
        return None if got == verdict else \
            f"verdict {got!r}, expected {verdict!r}"
    return check


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One cold request: a label, what to send, and its pinned answer.

    ``request`` is a :class:`VerificationRequest` for the direct workloads
    and a spec document for ``serve_mix``; ``check`` takes the matching
    result (object or document) and returns a mismatch or None.
    """

    label: str
    request: Any
    check: Callable[[Any], str | None]


@dataclass(frozen=True)
class Plan:
    """A repeat's inputs: cold requests in order, then (serve_mix) the
    indices of the requests its warm phase replays."""

    ops: tuple[Op, ...]
    warm: tuple[int, ...]


def deep_ops() -> list[Op]:
    """The three serial hunt rows of ``deep_hunt``."""
    hunt = VerificationRequest.builder
    return [
        Op("flat6", hunt("hunt").policy("balance_count")
           .scope(cores=6, max_load=4).build(),
           expect_hunt(False, 15625, 4)),
        Op("numa2x4", hunt("hunt").policy("balance_count")
           .topology("numa:2x4").scope(max_load=3).build(),
           expect_hunt(False, 630, 5)),
        Op("hier3x2", hunt("hunt").policy("hierarchical")
           .topology("numa:3x2").scope(max_load=4).no_symmetry().build(),
           expect_hunt(True, 15625, None)),
    ]


#: engine_fanout rows: the first deep row on each non-serial engine.
ENGINES = (
    ("pool", EngineSpec(kind="pool", jobs=2)),
    ("level_sync", EngineSpec(kind="distributed", workers=2)),
    ("async", EngineSpec(kind="distributed", workers=2, mode="async")),
)


def engine_ops() -> list[Op]:
    flat6 = deep_ops()[0]
    return [Op(label, with_engine(flat6.request, spec), flat6.check)
            for label, spec in ENGINES]


def serve_ops() -> list[Op]:
    """36 one-run spec documents: prove and hunt x policies x scopes."""
    ops = []
    for kind in ("prove", "hunt"):
        for policy in SERVE_POLICIES:
            ok = policy in PROVABLE
            verdict = (("proved" if ok else "refuted") if kind == "prove"
                       else ("clean" if ok else "violated"))
            for cores, load in SERVE_SCOPES:
                name = f"{kind}-{policy}-{cores}x{load}"
                document = {
                    "spec_version": 1, "name": name,
                    "runs": [{"name": name, "kind": kind, "policy": policy,
                              "scope": {"cores": cores, "max_load": load}}],
                }
                ops.append(Op(name, document, expect_verdict(verdict)))
    return ops


def make_plan(workload: str, seed: int) -> Plan:
    """The inputs of one repeat; the same seed gives the same plan."""
    rng = random.Random(seed)
    if workload == "zoo_sweeps":
        ops = [Op("zoo", VerificationRequest.builder("zoo")
                  .scope(cores=4, max_load=3).build(), check_zoo)]
    elif workload == "deep_hunt":
        ops = deep_ops()
    elif workload == "engine_fanout":
        ops = engine_ops()
    elif workload == "serve_mix":
        ops = serve_ops()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    warm = tuple(rng.randrange(len(ops)) for _ in range(WARM_REPLAYS)) \
        if workload == "serve_mix" else ()
    return Plan(tuple(ops), warm)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak resident memory, the larger of this process and its children."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


@dataclass
class Outcome:
    """What one repeat's timed phase measured and checked."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    cold_ms: list[float] = field(default_factory=list)
    warm_ms: list[float] = field(default_factory=list)
    warm_s: float = 0.0
    cpu_s: float = 0.0
    window: tuple[float, float] = (0.0, 0.0)
    _cpu_start: float = 0.0

    def start(self) -> None:
        """Mark the first request submitted."""
        self.window = (time.perf_counter(), 0.0)
        self._cpu_start = cpu_seconds()

    def stop(self) -> None:
        """Mark the last answer received."""
        self.window = (self.window[0], time.perf_counter())
        self.cpu_s = cpu_seconds() - self._cpu_start

    @property
    def wall_s(self) -> float:
        return self.window[1] - self.window[0]

    def attempt(self, label: str, call: Callable[[], Any]) -> Any:
        """Run one operation; a raise counts as a failure (None returned)."""
        self.attempted += 1
        try:
            return call()
        except Exception as exc:  # any raise is a failed operation
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None

    def check(self, label: str, error: str | None) -> None:
        if error is not None:
            self.fail(label, error)

    def fail(self, label: str, error: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(f"{label}: {error}")


def run_direct(plan: Plan) -> Outcome:
    """The plan's requests through one Session, one after another."""
    out = Outcome()
    session = Session()
    out.start()
    for op in plan.ops:
        with TRACER.span("row." + op.label, BENCH):
            started = time.perf_counter()
            result = out.attempt(op.label,
                                 lambda: session.run(op.request))
            out.cold_ms.append((time.perf_counter() - started) * 1e3)
        if result is not None:
            out.check(op.label, op.check(result))
    out.stop()
    return out


# ---------------------------------------------------------------------------
# serve_mix
# ---------------------------------------------------------------------------


def _stripped(result: VerificationResult) -> dict[str, Any]:
    return result_to_dict(strip_result_timings(result))


def _warm_error(hit: bool, got: dict[str, Any],
                want: dict[str, Any]) -> str | None:
    if not hit:
        return "warm reply was not a store hit"
    return None if got == want else "warm reply differs from its cold answer"


class ServiceHarness:
    """A VerificationService over a fresh FileStore on a loopback port.

    The service's event loop runs on a background thread; leaving the
    context closes the listener, shuts down the loop's executor, and
    joins the thread.
    """

    def __init__(self, store_dir: str) -> None:
        self.service = VerificationService(store=FileStore(store_dir))
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._serve,
                                        name="bench-service")
        self.address: tuple[str, int] = ("", 0)

    def _serve(self) -> None:
        loop = self._loop
        asyncio.set_event_loop(loop)
        try:
            self.address = loop.run_until_complete(
                self.service.start("127.0.0.1", 0))
            self._ready.set()
            loop.run_forever()
            loop.run_until_complete(self.service.close())
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            self._ready.set()
            loop.close()

    def __enter__(self) -> "ServiceHarness":
        self._thread.start()
        self._ready.wait(60)
        if not self.address[1]:
            raise RuntimeError("the verification service did not start")
        return self

    def __exit__(self, *exc_info: object) -> None:
        if not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(60)


def post_spec(address: tuple[str, int], body: bytes,
              accept: str) -> tuple[int, bytes]:
    """POST one spec document; the status and the whole body."""
    conn = http.client.HTTPConnection(address[0], address[1], timeout=120)
    try:
        conn.request("POST", "/run-spec", body=body,
                     headers={"Content-Type": _JSON, "Accept": accept})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _streamed_answer(status: int, body: bytes) -> dict[str, Any] | str:
    """The result document of a one-run NDJSON stream, or what went wrong."""
    if status != 200:
        return f"HTTP {status}"
    final = json.loads(body.splitlines()[-1])
    if final.get("event") != "spec_finished":
        return f"stream ended with {final.get('event')}: {final}"
    return final["report"][0]["result"]


def run_serve(plan: Plan, address: tuple[str, int]) -> Outcome:
    """NDJSON cold requests one at a time, then a closed warm loop."""
    out = Outcome()
    bodies = [json.dumps(op.request).encode() for op in plan.ops]
    answers: dict[int, dict[str, Any]] = {}
    out.start()
    for index, op in enumerate(plan.ops):
        started = time.perf_counter()
        reply = out.attempt(op.label, lambda: post_spec(
            address, bodies[index], _NDJSON))
        out.cold_ms.append((time.perf_counter() - started) * 1e3)
        if reply is None:
            continue
        answer = _streamed_answer(*reply)
        if isinstance(answer, str):
            out.check(op.label, answer)
        else:
            out.check(op.label, op.check(answer))
            answers[index] = answer
    pending = iter(index for index in plan.warm if index in answers)
    lock = threading.Lock()
    replies: list[tuple[int, int, bytes]] = []

    def client() -> None:
        while True:
            with lock:
                index = next(pending, None)
            if index is None:
                return
            started = time.perf_counter()
            try:
                status, body = post_spec(address, bodies[index], _JSON)
            except OSError as exc:
                status, body = 0, repr(exc).encode()
            elapsed = (time.perf_counter() - started) * 1e3
            with lock:
                replies.append((index, status, body))
                out.warm_ms.append(elapsed)

    clients = [threading.Thread(target=client, name=f"bench-client-{i}")
               for i in range(SERVE_CLIENTS)]
    warm_start = time.perf_counter()
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    out.warm_s = time.perf_counter() - warm_start
    out.stop()
    for index, op in enumerate(plan.ops):
        skipped = 0 if index in answers else plan.warm.count(index)
        if skipped:  # a failed cold request is not replayed
            out.attempted += skipped
            out.fail(op.label, f"{skipped} warm replays skipped", skipped)
    reference = {index: _stripped(result_from_dict(answer))
                 for index, answer in answers.items()}
    for index, status, body in replies:
        out.attempted += 1
        label = plan.ops[index].label
        if status != 200:
            out.check(label, f"warm HTTP {status}: {body[:200]!r}")
            continue
        document = json.loads(body)[0]["result"]
        hit = bool((document.get("provenance") or {}).get("hit"))
        out.check(label, _warm_error(
            hit, _stripped(result_from_dict(document)), reference[index]))
    return out

