"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]
    python3 perfbench/run.py compare OLD NEW
    python3 perfbench/run.py selftest

A run starts fresh repeat processes (``perfbench/rep.py``), because
in-process re-runs reuse checker and worker memos, while the next one would
end within ``S`` seconds. Each repeat that runs the workload also times a
block of a fixed reference computation (``perfbench/calibrate.py``) right
before and right after its timed interval.

With ``--trace 0`` every repeat runs untraced, at least two are timed and
at least five processes are set up. The run reports the time metrics as
medians divided by the host's slowness against the reference host, so they
read in reference-host seconds, and ``peak_rss_mb`` as the largest over the
timed repeats. With ``--trace 1`` untraced and traced repeats alternate and
the run reports the per-layer metrics (medians over traced repeats, as
measured) plus ``trace.overhead``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
restate every metric by name and unit, add the request latencies
(``REPORTED_METRICS``), the time metrics as measured, the host's slowness
and ``failed_share``, and name the host.

``--record FILE`` appends the run, with each repeat's figures, as one JSON
line to FILE; ``compare`` reads two such files. Nothing else is written
outside ``.bench_run/``, which the run removes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("zoo_sweeps", "deep_hunt", "engine_fanout", "serve_mix")

#: No repeat starts once the slowest one so far would end the run later
#: than this many seconds after it began.
RUN_LIMIT_S = 150.0

#: Timed repeats per untraced run, so one repeat never makes a run. A
#: workload whose repeat lasts longer than half a run (zoo_sweeps, or any
#: on a contended host) stops at it, so the run stays near its length.
MIN_REPEATS = 2

#: Processes set up per untraced run, so ``setup_s`` is a median.
MIN_SETUPS = 5

#: Request latencies, printed and recorded but not in ``BENCHMARK.json``:
#: its end-to-end metrics are the ones every workload reports, and only
#: serve_mix has warm requests. cold_p50_ms is the median latency of the
#: requests whose answer is computed; serve_mix's wall_s is mostly its warm
#: phase, so it carries warm latency into the bounded set.
REPORTED_METRICS = {"cold_p50_ms": {"unit": "ms", "better": "lower"},
                    "warm_p50_ms": {"unit": "ms", "better": "lower"},
                    "warm_p99_ms": {"unit": "ms", "better": "lower"},
                    "warm_rps": {"unit": "1/s", "better": "higher"}}


def host_info() -> dict[str, Any]:
    """git rev, usable CPUs, python and numpy versions."""
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                capture_output=True, text=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {"rev": rev, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version}


@contextlib.contextmanager
def scratch_root(name: str) -> Iterator[Path]:
    """A directory under ``.bench_run/`` for one run, removed afterwards
    (with ``.bench_run/`` itself once empty)."""
    root = ROOT / ".bench_run" / f"{name}-{os.getpid()}"
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            root.parent.rmdir()
        except OSError:
            pass


def spawn(workload: str, seed: int, mode: str, run_dir: Path,
          timeout: float) -> dict[str, Any] | None:
    """One repeat in a fresh process; its document, or None if it failed.

    The repeat runs in its own session, so on a timeout the whole process
    group (pool and distributed workers included) is killed and reaped.
    Its temporary files go under ``run_dir``'s parent, inside the checkout.
    """
    scratch = run_dir.parent / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(scratch))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    spawned = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), workload, str(seed), mode,
         repr(spawned), str(run_dir)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"repeat timed out after {timeout:.0f}s", file=sys.stderr)
        stdout = ""
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if process.returncode != 0:
        return None
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def measure(workload: str, seed: int, seconds: int, trace: bool,
            run_root: Path) -> list[tuple[str, dict[str, Any] | None]]:
    """Repeat rounds while the next one, at the slowest repeat's pace,
    would end within ``seconds`` and, untraced, until ``MIN_REPEATS`` are
    timed; the (mode, document) list. A run therefore lasts about
    ``seconds`` however slow the host is, unless its minimum does not fit."""
    modes = ("timed", "traced") if trace else ("timed",)
    min_rounds = 1 if trace else MIN_REPEATS
    started = time.monotonic()
    reps: list[tuple[str, dict[str, Any] | None]] = []
    slowest = 0.0

    def run(mode: str) -> None:
        elapsed = time.monotonic() - started
        began = time.monotonic()
        reps.append((mode, spawn(
            workload, seed * 1000 + len(reps), mode,
            run_root / f"rep{len(reps)}",
            timeout=max(10.0, RUN_LIMIT_S + 20.0 - elapsed))))
        nonlocal slowest
        slowest = max(slowest, time.monotonic() - began)

    def room() -> bool:
        return time.monotonic() - started + slowest <= RUN_LIMIT_S

    rounds = 0
    while not rounds or (room() and (
            rounds < min_rounds or time.monotonic() - started
            + len(modes) * slowest <= seconds)):
        for mode in modes:
            run(mode)
        rounds += 1
    if not trace:
        while len(reps) < MIN_SETUPS and room():
            run("setup")
    return reps


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


#: End-to-end time metrics and the reference time each is divided by.
NORMALISED = {"setup_s": "wall", "wall_s": "wall", "cpu_s": "cpu"}


def summarise(reps: list[tuple[str, dict[str, Any] | None]], trace: bool,
              spec: dict[str, Any]) -> dict[str, Any]:
    """The run's result object plus readable extras."""
    done = [(mode, doc) for mode, doc in reps if doc is not None]
    runs = [doc for mode, doc in done if mode != "setup"]
    timed = [doc for mode, doc in done if mode == "timed"]
    crashed = len(reps) - len(done)
    attempted = crashed + sum(doc["attempted"] for doc in runs)
    failed = crashed + sum(doc["failed"] for doc in runs)
    cold = [ms for doc in timed for ms in doc["cold_ms"]]
    warm = [ms for doc in timed for ms in doc["warm_ms"]]
    values: dict[str, float] = {}
    measured: dict[str, float] = {}
    from perfbench import calibrate
    slowness = calibrate.factors([tuple(sample) for doc in runs
                                  for sample in doc["calibration"]])
    if trace:
        traced = [doc for mode, doc in done if mode == "traced"]
        for name in traced[0]["layers"] if traced else ():
            values[name] = _median([doc["layers"][name] for doc in traced])
        untraced_wall = _median([doc["wall_s"] for doc in timed])
        values["trace.overhead"] = (
            _median([doc["wall_s"] for doc in traced]) / untraced_wall - 1.0
            if untraced_wall and traced else 0.0)
        wanted = spec["per_layer"]
    else:
        measured = {
            "setup_s": _median([doc["setup_s"] for _, doc in done]),
            "wall_s": _median([doc["wall_s"] for doc in timed]),
            "cpu_s": _median([doc["cpu_s"] for doc in timed]),
        }
        values = {name: value / slowness[NORMALISED[name]]
                  for name, value in measured.items()}
        values["peak_rss_mb"] = max((doc["peak_rss_mb"] for doc in timed),
                                    default=0.0)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    latencies: dict[str, float] = {}
    beyond_p99 = 0
    if cold and not trace:
        latencies["cold_p50_ms"] = statistics.median(cold)
    if warm and not trace:
        p99 = statistics.quantiles(warm, n=100)[98]
        beyond_p99 = sum(1 for ms in warm if ms > p99)
        latencies.update(
            warm_p50_ms=statistics.median(warm), warm_p99_ms=p99,
            warm_rps=len(warm) / sum(doc["warm_s"] for doc in timed))
    reported = {name: {"value": value,
                       "unit": REPORTED_METRICS[name]["unit"]}
                for name, value in latencies.items()}
    extras = {
        "repeats": {mode: sum(1 for m, _ in reps if m == mode)
                    for mode in ("timed", "traced", "setup")},
        "crashed": crashed,
        "failed_share": failed / attempted if attempted else 1.0,
        "reported": reported,
        "measured": measured,
        "slowness": slowness,
        "warm_samples": len(warm),
        "beyond_p99": beyond_p99,
        "failures": [line for doc in runs for line in doc["failures"]][:20],
    }
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    return {"result": result, "extras": extras}


def report(workload: str, args: argparse.Namespace, host: dict[str, Any],
           summary: dict[str, Any]) -> None:
    """Readable lines first, the JSON result object last."""
    result, extras = summary["result"], summary["extras"]
    print(f"perfbench {workload} seed={args.seed} trace={args.trace}"
          f" repeats={extras['repeats']} rev={host['rev'][:12]}"
          f" nproc={host['nproc']} python={host['python']}"
          f" numpy={host['numpy']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<26} {metric['value']:>14.6g} {metric['unit']}")
    for name, metric in extras["reported"].items():
        print(f"  {name:<26} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in extras["measured"].items():
        print(f"  {name + ' as measured':<26} {value:>14.6g} s")
    print(f"  {'host slowness':<26} {extras['slowness']['wall']:>14.6g}"
          f" wall, {extras['slowness']['cpu']:.6g} cpu (reference host 1)")
    print(f"  {'failed_share':<26} {extras['failed_share']:>14.6g} ratio"
          f" ({result['failed']} of {result['attempted']} operations)")
    if extras["warm_samples"] and not args.trace:
        print(f"  warm p99 over {extras['warm_samples']} samples,"
              f" {extras['beyond_p99']} beyond it")
    if args.trace and workload == "engine_fanout":
        print("  worker.* not measured on the pool row: pool workers record"
              " no spans")
    for line in extras["failures"]:
        print(f"  FAILED {line}")
    print(json.dumps(result))


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="append this run as a JSON line to FILE")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT))
    if argv[:1] == ["compare"]:
        from perfbench import compare
        return compare.main(argv[1:])
    if argv[:1] == ["selftest"]:
        from perfbench import selftest
        return selftest.main(argv[1:])
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    host = host_info()
    if args.workload == "engine_fanout" and host["nproc"] < 2:
        print("perfbench: engine_fanout skipped: it needs 2 CPUs and this"
              f" host has {host['nproc']}; it is never rescaled",
              file=sys.stderr)
        return 3
    with scratch_root(args.workload) as run_root:
        reps = measure(args.workload, args.seed, args.seconds,
                       bool(args.trace), run_root)
    summary = summarise(reps, bool(args.trace), spec)
    if args.record is not None:
        with args.record.open("a") as record:
            record.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace, "host": host,
                **summary["result"], "extras": summary["extras"],
                "repeats": [
                    {"mode": mode, **{key: value for key, value in
                                      (doc or {}).items()
                                      if key not in ("cold_ms", "warm_ms")}}
                    for mode, doc in reps],
            }) + "\n")
    report(args.workload, args, host, summary)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
