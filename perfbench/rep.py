"""One repeat of one workload, in a fresh process.

``run.py`` starts it as::

    python3 perfbench/rep.py WORKLOAD SEED MODE SPAWNED DIR

``MODE`` is ``timed`` (tracing off), ``traced`` (tracing on, per-layer
metrics added) or ``setup`` (set up, report ``setup_s``, exit). A timed or
traced repeat times a block of ``perfbench/calibrate.py``'s reference
computation right before and right after its timed interval and reports
the chunk times as ``calibration``.
``SPAWNED`` is the parent's ``time.monotonic()`` reading taken just before
it started this process, so ``setup_s`` covers interpreter start, imports,
a first tiny request and, for ``serve_mix``, binding the service over an
empty store. ``DIR`` holds the service's store and is removed on exit.
The last line of standard output is one JSON document.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    spawned, run_dir = float(argv[3]), Path(argv[4])
    if workload == "serve_mix":
        # Client, service loop and executor threads hand every request to
        # one another. On one CPU a hand-off never waits for the host to
        # wake the other, idle CPU, which on a contended host added up to
        # 40% to wall_s but nothing to cpu_s; the GIL keeps them serial
        # anyway.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import calibrate, layers, workloads
    from repro.api import Session, VerificationRequest
    from repro.obs.trace import TRACER

    with contextlib.ExitStack() as stack:
        run_dir.mkdir(parents=True, exist_ok=True)
        stack.callback(shutil.rmtree, run_dir, True)
        Session().run(VerificationRequest.builder("hunt")
                      .policy("balance_count").scope(cores=2, max_load=1)
                      .build())
        service = None
        if workload == "serve_mix":
            service = stack.enter_context(
                workloads.ServiceHarness(str(run_dir / "serve-store")))
        document: dict = {"setup_s": time.monotonic() - spawned}
        if mode != "setup":
            plan = workloads.make_plan(workload, seed)
            samples: list[tuple[float, float]] = []
            calibrate.block(samples)
            if mode == "traced":
                layers.install()
                TRACER.enable()
            if service is not None:
                out = workloads.run_serve(plan, service.address)
            else:
                out = workloads.run_direct(plan)
            TRACER.disable()
            calibrate.block(samples)
            document.update(
                wall_s=out.wall_s, cpu_s=out.cpu_s,
                peak_rss_mb=workloads.peak_rss_mb(),
                attempted=out.attempted, failed=out.failed,
                failures=out.failures[:20],
                cold_ms=out.cold_ms, warm_ms=out.warm_ms, warm_s=out.warm_s,
                calibration=samples,
            )
            if mode == "traced":
                document["layers"] = layers.layer_metrics(TRACER.drain(),
                                                          out.window)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
