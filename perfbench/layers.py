"""Traced repeats: spans around public layer calls, reduced to layer metrics.

:func:`install` wraps public functions of ``repro.verify`` in spans of the
``bench`` category, so a traced repeat sees the lemma sweeps, the progress
and closure sweeps, exploration and graph analysis as named intervals next
to the spans the program records itself (``request.<kind>``,
``checker.*``, ``store.*``, ``http.request``, ``coordinator.dispatch``,
``async.expand`` and the merged ``worker.*`` spans of distributed workers).
Nothing under ``src/`` changes.

:func:`layer_metrics` reduces one repeat's spans to the per-layer metrics
``BENCHMARK.json`` lists. Two kinds of time appear:

* inclusive time of the benchmark's own spans around a public call
  (``lemmas_s``, ``sweep.*_s``, ``explore_s``, ``graph_s``,
  ``hierarchical_s``, ``engine.*_s``);
* self time of the program's spans: duration minus the durations of the
  spans whose parent they are (``kernel_s``, ``dedup_s``,
  ``canonicalise_s``, ``store.*_s``, ``session.request_s``,
  ``coordinator.dispatch_s``, ``async.expand_s``).

``http.request`` spans share the service's event-loop thread, whose span
stack is not task-aware, so their parent links are not used:
``http.request_s`` is their total duration minus that of the
``request.<kind>`` spans they contain. Only this process's spans feed the
layer times; worker spans feed ``worker.busy_s`` alone. Pool workers record
no spans, so ``worker.*`` covers the distributed rows only.
"""

from __future__ import annotations

import bisect
import functools
from collections import defaultdict
from typing import Any, Callable, Iterable, Sequence

from repro.obs.trace import TRACER
from repro.verify import work_conservation
from repro.verify.model_checker import ModelChecker

#: Category of every span the benchmark itself records.
BENCH = "bench"

#: Lemma and potential calls of the serial prove pipeline.
LEMMA_CALLS = ("check_lemma1", "check_filter_soundness",
               "check_steal_soundness", "check_choice_irrelevance",
               "check_potential_decrease", "min_observed_decrease")

#: Distributed rows of engine_fanout and their worker count.
DISTRIBUTED_ROWS = ("row.level_sync", "row.async")
DISTRIBUTED_WORKERS = 2


def _wrap(call: Callable[..., Any], name: str,
          describe: Callable[[Sequence[Any], Any], dict[str, Any]]
          ) -> Callable[..., Any]:
    @functools.wraps(call)
    def traced(*args: Any, **kwargs: Any) -> Any:
        with TRACER.span(name, BENCH) as span:
            result = call(*args, **kwargs)
            span.set(**describe(args, result))
        return result
    return traced


def _checked(args: Sequence[Any], result: Any) -> dict[str, Any]:
    return {"checked": int(getattr(result, "states_checked", 0))}


def _explored(args: Sequence[Any], result: Any) -> dict[str, Any]:
    return {"states": len(result[0]), "checker": type(args[0]).__name__}


def install() -> None:
    """Put a ``bench`` span around each public layer call the metrics read."""
    for name in LEMMA_CALLS:
        setattr(work_conservation, name,
                _wrap(getattr(work_conservation, name), "lemmas." + name,
                      _checked))
    ModelChecker.check_progress = _wrap(  # type: ignore[method-assign]
        ModelChecker.check_progress, "sweep.progress", _checked)
    ModelChecker.check_good_state_closure = _wrap(  # type: ignore
        ModelChecker.check_good_state_closure, "sweep.closure", _checked)
    ModelChecker.explore = _wrap(  # type: ignore[method-assign]
        ModelChecker.explore, "explore", _explored)
    ModelChecker.analyze_graph = _wrap(  # type: ignore[method-assign]
        ModelChecker.analyze_graph, "graph", lambda args, result: {})


def self_times(spans: Iterable[Any]) -> dict[int, float]:
    """span id -> duration minus the durations of its child spans."""
    spans = list(spans)
    children: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id] += span.duration
    return {span.span_id: span.duration - children[span.span_id]
            for span in spans}


def covered(intervals: Iterable[tuple[float, float]],
            window: tuple[float, float]) -> float:
    """Length of the union of ``intervals`` clipped to ``window``."""
    total, reach = 0.0, window[0]
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, window[1])
        if end > start:
            total += end - start
            reach = end
    return total


def _contained(inner: Sequence[Any], outer: Sequence[Any]) -> list[Any]:
    """The spans of ``inner`` lying inside some span of ``outer``."""
    outer = sorted(outer, key=lambda span: span.start)
    starts = [span.start for span in outer]
    reach: list[float] = []
    for span in outer:
        reach.append(max(reach[-1], span.start + span.duration)
                     if reach else span.start + span.duration)
    found = []
    for span in inner:
        index = bisect.bisect_right(starts, span.start) - 1
        if index >= 0 and reach[index] >= span.start + span.duration:
            found.append(span)
    return found


def layer_metrics(spans: Sequence[Any],
                  window: tuple[float, float]) -> dict[str, float]:
    """The per-layer metrics of one traced repeat.

    ``window`` is the timed interval (first request submitted, last answer
    received) on the tracer's clock.
    """
    local = [span for span in spans if not span.worker]
    remote = [span for span in spans if span.worker]
    own = self_times(local)

    def pick(name: str, category: str | None = None,
             prefix: bool = False) -> list[Any]:
        return [span for span in local
                if (span.name.startswith(name) if prefix
                    else span.name == name)
                and (category is None or span.category == category)]

    def inclusive(found: Iterable[Any]) -> float:
        return sum(span.duration for span in found)

    def own_time(found: Iterable[Any]) -> float:
        return sum(own[span.span_id] for span in found)

    def arg_sum(found: Iterable[Any], key: str) -> int:
        return sum(int(span.args.get(key, 0)) for span in found)

    lemmas = pick("lemmas.", BENCH, prefix=True)
    progress = pick("sweep.progress", BENCH)
    closure = pick("sweep.closure", BENCH)
    explore = pick("explore", BENCH)
    kernel = pick("checker.kernel")
    lookups = pick("store.lookup")
    requests = pick("request.", "session", prefix=True)
    http = pick("http.request")
    distributed_wall = inclusive(
        span for span in local
        if span.category == BENCH and span.name in DISTRIBUTED_ROWS)
    busy = inclusive(span for span in remote
                     if span.name.startswith("worker."))
    explored = arg_sum(explore, "states")
    successors = arg_sum(kernel, "values")
    hits = sum(1 for span in lookups if span.args.get("outcome") != "miss")
    return {
        "lemmas_s": inclusive(lemmas),
        "lemmas.checked": arg_sum(lemmas, "checked"),
        "sweep.progress_s": inclusive(progress),
        "sweep.progress.branches": arg_sum(progress, "checked"),
        "sweep.closure_s": inclusive(closure),
        "sweep.closure.states": arg_sum(closure, "checked"),
        "explore_s": inclusive(explore),
        "explore.states": explored,
        "kernel_s": own_time(kernel),
        "kernel.successors": successors,
        "explore.yield": explored / successors if successors else 0.0,
        "dedup_s": own_time(pick("checker.dedup")),
        "canonicalise_s": own_time(pick("checker.canonicalise")),
        "canonicalise.values": arg_sum(pick("checker.canonicalise"),
                                       "values"),
        "graph_s": inclusive(pick("graph", BENCH)),
        "hierarchical_s": inclusive(
            span for span in explore
            if span.args.get("checker") == "HierarchicalModelChecker"),
        "engine.pool_s": inclusive(pick("row.pool", BENCH)),
        "engine.level_sync_s": inclusive(pick("row.level_sync", BENCH)),
        "engine.async_s": inclusive(pick("row.async", BENCH)),
        "engine.acquire_s": inclusive(pick("engine.acquire")),
        "coordinator.dispatch_s": own_time(pick("coordinator.dispatch")),
        "async.expand_s": own_time(pick("async.expand")),
        "worker.busy_s": busy,
        "worker.idle_share": (
            1.0 - busy / (DISTRIBUTED_WORKERS * distributed_wall)
            if distributed_wall else 0.0),
        "store.lookup_s": own_time(lookups),
        "store.read_s": own_time(pick("store.read")),
        "store.write_s": own_time(pick("store.write")),
        "store.hit_ratio": hits / len(lookups) if lookups else 0.0,
        "http.request_s": inclusive(http)
        - inclusive(_contained(requests, http)),
        "http.requests": len(http),
        "session.request_s": own_time(requests),
        "untraced_s": (window[1] - window[0]) - covered(
            ((span.start, span.start + span.duration)
             for span in requests + http), window),
    }
