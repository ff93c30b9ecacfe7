"""Shared benchmark helpers.

Every benchmark regenerates one of the paper's artifacts (DESIGN.md's
experiment index E1..E10) and does three things:

1. times its central operation via pytest-benchmark (the `benchmark`
   fixture);
2. asserts the *shape* the paper reports (who wins, by what factor);
3. renders the regenerated table and, under ``REPRO_BENCH_RECORD=1``,
   writes it to ``benchmarks/results/<exp>.txt``, so the numbers behind
   EXPERIMENTS.md are reproducible from
   ``REPRO_BENCH_RECORD=1 pytest benchmarks/`` while a plain test run
   leaves the tracked tables untouched.
"""

from __future__ import annotations

import os
import pathlib

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

#: Set to ``1`` to (re)write the tracked result tables.
RECORD_ENV = "REPRO_BENCH_RECORD"


def record_result(exp_id: str, text: str) -> pathlib.Path:
    """Write a regenerated experiment table under ``benchmarks/results``.

    Writes only when ``REPRO_BENCH_RECORD=1``; otherwise the table is
    rendered (so a broken renderer still fails the run) and dropped.

    Args:
        exp_id: experiment identifier, e.g. ``"e5_pingpong"``.
        text: the table/series text to persist.

    Returns:
        The path of the table (written only when recording).
    """
    path = RESULTS_DIR / f"{exp_id}.txt"
    if os.environ.get(RECORD_ENV) == "1":
        RESULTS_DIR.mkdir(exist_ok=True)
        path.write_text(text + "\n")
    return path
