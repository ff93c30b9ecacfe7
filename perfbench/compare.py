"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Usage::

    python3 perfbench/run.py compare OLD NEW

``OLD`` and ``NEW`` are files that ``run.py --record FILE`` appended runs
to, one JSON object a line; each side should hold several runs of each
workload (different seeds). One row is printed per (workload, metric)
pair with each side's median, the change, each side's spread (the distance
between the first and third quartile as a share of the median) and a
verdict:

* ``WORSE`` / ``better``: the medians moved by more than the metric's
  bound from ``BENCHMARK.json``;
* ``unresolved``: either side's spread is wider than the bound, and not
  every new run beats every old run;
* ``same``: neither.

Per-layer metrics and the request latencies ``run.py`` reports besides
``BENCHMARK.json`` have no bound; their rows show the change only. The exit code is 1 when any pair is ``WORSE``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any

from perfbench.run import REPORTED_METRICS

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, one per recorded run."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for line in path.read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            reported = {**run["metrics"],
                        **run.get("extras", {}).get("reported", {})}
            for name, metric in reported.items():
                values[(run["workload"], name)].append(float(metric["value"]))
    return values


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 below 2 runs)."""
    if len(values) < 2:
        return 0.0
    median = statistics.median(values)
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median) if median else 0.0


def verdict(old: list[float], new: list[float], bound: float | None,
            better: str) -> tuple[float, str]:
    """(relative change of the median, verdict) for one pair."""
    old_median, new_median = statistics.median(old), statistics.median(new)
    change = ((new_median - old_median) / abs(old_median) if old_median
              else 0.0 if new_median == old_median else float("inf"))
    if bound is None:
        return change, "-"
    worse = change if better == "lower" else -change

    def beats(a: float, b: float) -> bool:
        return a < b if better == "lower" else a > b

    if max(spread(old), spread(new)) > bound:
        if all(beats(n, o) for n in new for o in old):
            return change, "better"
        return change, "unresolved"
    if worse > bound:
        return change, "WORSE"
    if -worse > bound:
        return change, "better"
    return change, "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 perfbench/run.py compare OLD NEW",
              file=sys.stderr)
        return 2
    old, new = (load_runs(Path(arg)) for arg in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics: dict[str, dict[str, Any]] = {
        m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    metrics.update(REPORTED_METRICS)
    order = {name: index for index, name in enumerate(metrics)}
    pairs = sorted(set(old) & set(new),
                   key=lambda pair: (pair[0], order.get(pair[1], 1 << 30)))
    print(f"{'workload':<14} {'metric':<24} {'old':>11} {'new':>11}"
          f" {'change':>8} {'spread':>13} {'bound':>6}  verdict")
    worse = False
    for workload, name in pairs:
        info = metrics.get(name, {"unit": "?", "better": "lower"})
        a, b = old[(workload, name)], new[(workload, name)]
        bound = info.get("bound")
        change, outcome = verdict(a, b, bound, info["better"])
        worse = worse or outcome == "WORSE"
        print(f"{workload:<14} {name:<24} {statistics.median(a):>11.5g}"
              f" {statistics.median(b):>11.5g} {change:>+8.1%}"
              f" {spread(a):>6.1%}/{spread(b):<6.1%}"
              f" {'-' if bound is None else f'{bound:.0%}':>6}  {outcome}"
              f"  ({len(a)} vs {len(b)} runs, {info['unit']})")
    for workload, name in sorted(set(old) ^ set(new)):
        side = "old" if (workload, name) in old else "new"
        print(f"{workload:<14} {name:<24} only in {side}")
    return 1 if worse else 0
