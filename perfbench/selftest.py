"""Toy-size self-test of the benchmark harness.

Usage::

    python3 perfbench/run.py selftest

Checks, in well under a minute:

* span reduction: self time, interval coverage, HTTP containment, and that
  :func:`perfbench.layers.layer_metrics` yields every per-layer metric
  ``BENCHMARK.json`` lists (``trace.overhead`` comes from ``run.py``);
* the pinned-answer checks reject a wrong answer and a warm reply that is
  not a store hit;
* the deep rows, shrunk to toy scopes, give the same verdict, state count
  and exact N on the array kernel and on the tuple oracle
  (``REPRO_KERNEL=off``);
* ``run.py``'s aggregation, reference-host normalisation included, and
  ``compare``'s verdicts on synthetic runs;
* one real repeat process (``serve_mix`` set-up) starts, reports and
  cleans up after itself.

Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent


def _span(span_id: int, name: str, start: float, duration: float,
          parent: int | None = None, category: str = "x",
          worker: str = "", **args: Any) -> Any:
    from repro.obs.trace import Span

    return Span(name=name, category=category, start=start,
                duration=duration, span_id=span_id, parent_id=parent,
                pid=1, tid=1, worker=worker, args=args)


def check_spans() -> None:
    from perfbench import layers

    spans = [
        _span(1, "request.hunt", 0.0, 10.0, category="session"),
        _span(2, "explore", 1.0, 6.0, 1, layers.BENCH, states=30,
              checker="ModelChecker"),
        _span(3, "checker.kernel", 2.0, 3.0, 2, values=60),
        _span(4, "checker.dedup", 5.0, 1.0, 2),
        _span(5, "http.request", 20.0, 5.0),
        _span(6, "http.request", 21.0, 5.0, 5),
        _span(7, "request.prove", 22.0, 2.0, category="session"),
        _span(8, "store.lookup", 22.5, 1.0, 7, outcome="exact"),
        _span(9, "worker.ExpandTask", 0.0, 4.0, worker="worker-1"),
    ]
    own = layers.self_times(spans)
    assert own[1] == 4.0 and own[2] == 2.0 and own[7] == 1.0, own
    assert layers.covered([(0, 2), (1, 3), (5, 6)], (0.5, 10)) == 3.5
    metrics = layers.layer_metrics(spans, (0.0, 30.0))
    expected = {
        "explore_s": 6.0, "explore.states": 30, "kernel_s": 3.0,
        "kernel.successors": 60, "explore.yield": 0.5, "dedup_s": 1.0,
        "http.requests": 2, "http.request_s": 8.0, "store.hit_ratio": 1.0,
        "session.request_s": 5.0, "worker.busy_s": 4.0,
        "untraced_s": 30.0 - 10.0 - 6.0,
    }
    for name, value in expected.items():
        assert metrics[name] == value, (name, metrics[name], value)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]} - {"trace.overhead"}
    assert set(metrics) == listed, set(metrics) ^ listed


TOY_ROWS = (
    ("flat4", lambda b: b.policy("balance_count").scope(cores=4,
                                                        max_load=2)),
    ("numa2x2", lambda b: b.policy("balance_count").topology("numa:2x2")
     .scope(max_load=3)),
    ("hier3x2", lambda b: b.policy("hierarchical").topology("numa:3x2")
     .scope(max_load=2).no_symmetry()),
)


def check_answers_and_oracle() -> None:
    from perfbench import workloads
    from repro.api import Session, VerificationRequest

    def hunt_all() -> list[tuple[bool, int, int | None]]:
        found = []
        for _, build in TOY_ROWS:
            analysis = Session().run(
                build(VerificationRequest.builder("hunt")).build()).analysis
            found.append((analysis.violated, analysis.states_explored,
                          analysis.worst_case_rounds))
        return found

    kernel = hunt_all()
    saved = os.environ.get("REPRO_KERNEL")
    os.environ["REPRO_KERNEL"] = "off"
    try:
        oracle = hunt_all()
    finally:
        if saved is None:
            del os.environ["REPRO_KERNEL"]
        else:
            os.environ["REPRO_KERNEL"] = saved
    assert kernel == oracle, (kernel, oracle)
    assert [violated for violated, _, _ in kernel] == [False, False, True]
    result = Session().run(
        TOY_ROWS[0][1](VerificationRequest.builder("hunt")).build())
    violated, states, rounds = kernel[0]
    assert workloads.expect_hunt(violated, states, rounds)(result) is None
    assert workloads.expect_hunt(violated, states + 1, rounds)(result)
    assert workloads.check_zoo(result) == "no zoo report"
    assert workloads.expect_verdict("proved")({"verdict": "refuted"})
    assert workloads._warm_error(False, {}, {})
    assert workloads._warm_error(True, {"a": 1}, {"a": 2})
    assert workloads._warm_error(True, {"a": 1}, {"a": 1}) is None


def check_summary_and_compare() -> None:
    from perfbench import calibrate, compare, run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = calibrate.REFERENCE_S
    doc = {"setup_s": 1.0, "wall_s": 2.0, "cpu_s": 3.0, "peak_rss_mb": 4.0,
           "calibration": [[2 * reference["wall"], reference["cpu"] / 2]],
           "attempted": 1001, "failed": 0, "failures": [],
           "cold_ms": [5.0], "warm_ms": [float(i) for i in range(1, 1001)],
           "warm_s": 2.0}
    reps = [("timed", doc), ("setup", {"setup_s": 3.0}), ("timed", None),
            ("timed", dict(doc, peak_rss_mb=5.0))]
    summary = run.summarise(reps, False, spec)
    result, metrics = summary["result"], summary["result"]["metrics"]
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    assert summary["extras"]["measured"]["setup_s"] == 1.0
    assert metrics["setup_s"]["value"] == 0.5
    assert metrics["wall_s"]["value"] == 1.0
    assert metrics["cpu_s"]["value"] == 6.0
    assert metrics["peak_rss_mb"]["value"] == 5.0
    assert calibrate.factors([]) == {"wall": 1.0, "cpu": 1.0}
    assert summary["extras"]["reported"]["warm_rps"]["value"] == 500.0
    assert result["attempted"] == 2003 and result["failed"] == 1
    assert not result["correct"]
    assert summary["extras"]["beyond_p99"] >= 10
    assert compare.spread([1.0, 1.0, 1.0]) == 0.0
    assert compare.verdict([1.0] * 4, [1.3] * 4, 0.1, "lower")[1] == "WORSE"
    assert compare.verdict([1.0] * 4, [1.3] * 4, 0.1, "higher")[1] \
        == "better"
    assert compare.verdict([1.0] * 4, [1.05] * 4, 0.1, "lower")[1] == "same"
    noisy = [1.0, 2.0, 3.0, 4.0]
    assert compare.verdict(noisy, noisy, 0.1, "lower")[1] == "unresolved"
    assert compare.verdict(noisy, [0.5] * 4, 0.1, "lower")[1] == "better"


def check_repeat_process() -> None:
    from perfbench import run

    with run.scratch_root("selftest") as run_root:
        doc = run.spawn("serve_mix", 0, "setup", run_root / "rep0",
                        timeout=120)
        assert not (run_root / "rep0").exists()
    assert doc is not None and doc["setup_s"] > 0, doc
    assert not run_root.exists()


CHECKS: tuple[Callable[[], None], ...] = (
    check_spans, check_answers_and_oracle, check_summary_and_compare,
    check_repeat_process)


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    failed = 0
    for check in CHECKS:
        try:
            check()
        except Exception as exc:  # report every failing check
            failed += 1
            print(f"FAIL {check.__name__}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {check.__name__}")
    return 1 if failed else 0
