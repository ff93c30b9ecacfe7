"""A fixed reference computation that measures how fast the host is now.

The host's speed drifts: on a shared 2-CPU VM the same deep_hunt repeat
took from 2.3 s to 5.6 s at different times of one day, in wall and CPU
time alike. Each repeat process (``rep.py``) therefore times a block of
this computation right before and right after its timed interval, and
``run.py`` divides the run's times by the mean chunk time over
:data:`REFERENCE_S`. A time metric then reads "seconds on a host where one
chunk takes ``REFERENCE_S``": the host's drift cancels, a change to the
program does not, because the chunk runs none of it.

A chunk mixes the kinds of work the workloads do: tuple keys hashed into
dicts and sets, sorting, JSON encoding and decoding, and numpy array
passes, over a few MB of data, so a neighbour's cache and memory traffic
slows it much as it slows the workloads.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

import numpy

#: Median wall and CPU seconds of one chunk on the reference host (a quiet
#: 2-CPU x86-64 VM, Python 3.11.7, numpy 2.4.6, inside a repeat process).
REFERENCE_S = {"wall": 0.041, "cpu": 0.041}

#: Timed chunks per block, after one untimed warm-up chunk; a block lasts
#: about a quarter of a second.
CHUNKS = 5


def chunk() -> int:
    """One unit of reference work; returns a checksum so nothing is skipped."""
    seen: dict[tuple[int, int, int], int] = {}
    members = set()
    for i in range(40_000):
        key = (i % 97, (i * 31) % 89, i & 63)
        seen[key] = seen.get(key, 0) + i
        members.add((key[0], key[2]))
    ordered = sorted(seen.items(), key=lambda item: (item[1], item[0]))
    text = json.dumps([[list(key), value] for key, value in ordered[:6_000]])
    decoded = json.loads(text)
    values = numpy.arange(200_000, dtype=numpy.int64)
    mixed = (values * 7919) % 10_007
    unique = numpy.unique(mixed)
    order = numpy.argsort(mixed, kind="stable")
    return (len(members) + len(decoded) + int(unique.size)
            + int(order[-1]) + int(mixed.sum() % 1_000))


def block(samples: list[tuple[float, float]]) -> None:
    """Run a warm-up chunk, then time :data:`CHUNKS` chunks, appending
    (wall, cpu) seconds of each.

    The garbage collector is off meanwhile: a collection walks the
    program's whole heap, so it would make the chunk time depend on how
    much the repeat has allocated, not only on the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        chunk()
        for _ in range(CHUNKS):
            wall, cpu = time.perf_counter(), time.process_time()
            chunk()
            samples.append((time.perf_counter() - wall,
                            time.process_time() - cpu))
    finally:
        if enabled:
            gc.enable()


def factors(samples: list[tuple[float, float]]) -> dict[str, float]:
    """Host slowness against the reference host, for wall and CPU time:
    the mean chunk time over :data:`REFERENCE_S` (1.0 with no samples).

    The mean, not the median: on a contended host chunk times split into a
    fast and a slow group, and the median jumps between them while the
    workload's time follows the mix. Over the same ten-run sets the median
    spread contended runs 8-19% (IQR over median), the mean 4-10%.
    """
    if not samples:
        return {"wall": 1.0, "cpu": 1.0}
    return {kind: statistics.fmean(sample[index] for sample in samples)
            / REFERENCE_S[kind]
            for index, kind in enumerate(("wall", "cpu"))}
