"""Tracing wired through the engines: spans appear, bytes do not change."""

from __future__ import annotations

import timeit

from repro.api import Session, VerificationRequest
from repro.cli import _ProgressPrinter
from repro.obs.trace import TRACER
from repro.policies import BalanceCountPolicy, NaiveOverloadedPolicy
from repro.verify import ModelChecker, StateCodec, StateScope
from repro.verify.distributed import WorkerRuntime
from repro.verify.wire import CheckerConfig, ExpandTask, TracedResult


def _request() -> VerificationRequest:
    builder = VerificationRequest.builder("prove")
    builder.policy("balance_count")
    builder.scope(cores=3, max_load=2)
    return builder.build()


class TestEngineSpans:
    def test_serial_run_records_checker_and_session_spans(self):
        TRACER.enable()
        result = Session().run(_request())
        spans = TRACER.drain()
        assert result.exit_code == 0
        categories = {span.category for span in spans}
        assert "session" in categories
        assert "closure" in categories
        assert "checker" in categories
        root = next(s for s in spans if s.category == "session")
        assert root.name == "request.prove"
        assert root.args["store_hit"] is False

    def test_kernel_span_counts_rows_and_distinct_successors(self):
        """``values`` counts each state's distinct successors; ``rows``
        the steal-walk rows materialised before dedup, never fewer."""
        TRACER.enable()
        Session().run(_request())
        kernels = [s for s in TRACER.drain() if s.name == "checker.kernel"]
        assert kernels
        for span in kernels:
            assert 0 < span.args["values"] <= span.args["rows"]

    def test_graph_phases_have_spans(self):
        """CSR build, bad mask and escape peel on every analysis; the
        lasso walk only when the bad region has a cycle."""
        TRACER.enable()
        analysis = ModelChecker(BalanceCountPolicy()).analyze(
            StateScope(3, 2)
        )
        proved = {s.name: s.args for s in TRACER.drain()
                  if s.category == "graph"}
        assert set(proved) == {"graph.csr", "graph.bad", "graph.escape"}
        assert proved["graph.escape"]["rounds"] \
            == analysis.worst_case_rounds
        assert proved["graph.bad"]["states"] == proved["graph.csr"]["states"]

        TRACER.enable()
        ModelChecker(NaiveOverloadedPolicy()).analyze(StateScope(3, 2))
        refuted = {s.name: s.args for s in TRACER.drain()
                   if s.category == "graph"}
        assert refuted["graph.lasso"]["live"] > 0

    def test_rendered_output_identical_with_tracing_on_and_off(self):
        plain = Session().run(_request()).render()
        TRACER.enable()
        traced = Session().run(_request()).render()
        assert traced == plain

    def test_disabled_tracer_records_nothing_during_a_run(self):
        Session().run(_request())
        assert TRACER.spans() == ()


def _expand_task(trace=False):
    codec = StateCodec(n_cores=3, max_value=6)
    return ExpandTask(config=CheckerConfig(policy=BalanceCountPolicy()),
                      codec=codec, packed=(codec.encode((0, 1, 2)),),
                      trace=trace)


class TestWorkerCapture:
    def test_traced_task_returns_wrapped_spans(self):
        runtime = WorkerRuntime()
        task = _expand_task(trace=True)
        outcome = runtime.execute(task)
        assert isinstance(outcome, TracedResult)
        assert outcome.pid > 0
        assert outcome.clock > 0.0
        names = {doc["name"] for doc in outcome.spans}
        assert "worker.ExpandTask" in names
        # The worker-side tracer is torn down again after the task.
        assert not TRACER.enabled
        assert TRACER.spans() == ()

    def test_untraced_task_returns_the_bare_value(self):
        runtime = WorkerRuntime()
        task = _expand_task()
        assert not isinstance(runtime.execute(task), TracedResult)

    def test_coordinator_side_tracer_wins_over_capture(self):
        # In-process transports share the coordinator's tracer: spans
        # must land there directly, not be double-wrapped.
        TRACER.enable()
        runtime = WorkerRuntime()
        task = _expand_task(trace=True)
        outcome = runtime.execute(task)
        assert not isinstance(outcome, TracedResult)
        assert any(span.name == "worker.ExpandTask"
                   for span in TRACER.spans())


class TestNoOpOverhead:
    def test_disabled_span_call_is_cheap(self):
        # The disabled path is one attribute check plus returning the
        # shared no-op handle; guard against it growing allocation or
        # locking. Generous absolute bound: well under 5µs per call
        # even on a loaded CI box.
        per_call = min(
            timeit.repeat(
                "with TRACER.span('x', 'y', a=1): pass",
                globals={"TRACER": TRACER}, number=10_000, repeat=5,
            )
        ) / 10_000
        assert per_call < 5e-6


class TestProgressFormat:
    def test_pinned_prefix_format(self):
        from repro.api.session import LevelCompleted, StatesExplored

        ticks = iter([0.0, 1.0, 2.0, 4.0])
        printer = _ProgressPrinter(clock=lambda: next(ticks))
        first = printer.format(StatesExplored(states=500))
        second = printer.format(LevelCompleted(level=1,
                                               states_expanded=100,
                                               frontier=7))
        third = printer.format(object())
        assert first == "[progress +1.00s 500/s] StatesExplored(states=500)"
        assert second.startswith("[progress +2.00s 250/s] ")
        # Events without counts keep the running rate denominator.
        assert third.startswith("[progress +4.00s 125/s] ")

    def test_rate_is_dash_until_a_count_arrives(self):
        ticks = iter([0.0, 0.5])
        printer = _ProgressPrinter(clock=lambda: next(ticks))
        assert printer.format(object()).startswith("[progress +0.50s -/s] ")
