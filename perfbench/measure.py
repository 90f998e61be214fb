"""Measurement helpers shared by the workloads: latency summaries, set-up
repeats, the closed-loop driver, peak memory and the leak check.

Gated end-to-end figures are CPU time of this process (``process_time``):
on a shared VM, hypervisor steal moved wall-time throughput by up to 1.7x
between identical runs while CPU time per request stayed within about
10 %.  Wall time is still measured and reported beside them, ungated.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: The reported tail has at least this many samples above it ...
TAIL_BEYOND = 10
#: ... and is at most this percentile, so that a long run's tail rests
#: on more than a handful of outliers.
TAIL_MAX_PCT = 99.0


def latency_summary(samples_s: list[float]) -> dict:
    """Median and tail of per-request latencies (seconds in, ms out).

    The tail is the highest percentile, up to :data:`TAIL_MAX_PCT`, with
    at least :data:`TAIL_BEYOND` samples beyond it; its percentile and
    the sample count are returned beside it.  With too few samples for a
    tail above the median, the median stands in and the percentile
    reads 50.
    """
    ordered = sorted(samples_s)
    count = len(ordered)
    if count == 0:
        return {"p50_ms": 0.0, "tail_ms": 0.0, "tail_pct": 0.0, "samples": 0}
    median = statistics.median(ordered)
    beyond = max(TAIL_BEYOND, math.ceil(count * (100.0 - TAIL_MAX_PCT) / 100.0))
    if count > 2 * beyond:
        tail = ordered[count - beyond - 1]
        tail_pct = 100.0 * (count - beyond) / count
    else:
        tail, tail_pct = median, 50.0
    return {
        "p50_ms": 1e3 * median,
        "tail_ms": 1e3 * tail,
        "tail_pct": round(tail_pct, 3),
        "samples": count,
    }


@dataclass
class Window:
    """One measuring window: per-request results and what it cost."""

    results: list
    #: ``perf_counter_ns`` bounds.
    start: int
    end: int
    #: Process CPU seconds spent inside the window (all threads).
    cpu_s: float

    @property
    def wall_s(self) -> float:
        return (self.end - self.start) / 1e9


def freeze_inputs() -> None:
    """Take every object alive now, the generated inputs, out of the
    collector's reach, so their size does not slow the program's own
    garbage collections in the window."""
    gc.collect()
    gc.freeze()


def repeat_setup(build, repeats: int, tracer=None):
    """Run ``build()`` ``repeats`` times; keep the last one.

    ``build`` returns ``(state, close)``; every state but the last is
    closed right away.  Only the last (kept) set-up is traced, so the
    per-layer set-up costs describe exactly one set-up.  Returns the kept
    state, the median CPU seconds of a set-up, and every set-up's
    ``(cpu_s, wall_s)``.
    """
    runs = []
    state = None
    for attempt in range(repeats):
        last = attempt == repeats - 1
        gc.collect()
        if last and tracer is not None:
            tracer.enabled = True
        wall, cpu = time.perf_counter(), time.process_time()
        state, close = build()
        runs.append((time.process_time() - cpu, time.perf_counter() - wall))
        if tracer is not None:
            tracer.enabled = False
        if not last:
            close()
    return state, statistics.median(cpu for cpu, _ in runs), runs


def closed_loop(step, seconds: float) -> Window:
    """Call ``step()`` back to back until ``seconds`` of wall time pass.

    One client: the next call starts only after the previous returned.
    """
    gc.collect()
    results = []
    cpu = time.process_time()
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    while time.perf_counter_ns() < deadline:
        results.append(step())
    end = time.perf_counter_ns()
    return Window(results, start, end, time.process_time() - cpu)


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss``) in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments visible to this process."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


def leaks(workdir: Path, shm_before: set[str]) -> list[str]:
    """What a closed workload left behind: serve threads, shm, temp files.

    ``workdir`` holds the run's temp directory (``tempfile.tempdir``
    points into it), so any temp or spill file the program failed to
    remove shows up there.
    """
    found = [
        f"thread {thread.name}"
        for thread in threading.enumerate()
        if thread.name.startswith("tcim-serve") and thread.is_alive()
    ]
    found += [f"shm segment {name}" for name in sorted(shm_segments() - shm_before)]
    found += [
        f"temp file {path.relative_to(workdir)}"
        for path in sorted((workdir / "tmp").rglob("*"))
    ]
    found += [
        f"spill file {path.relative_to(workdir)}"
        for path in sorted(workdir.rglob(f"spill-{os.getpid()}-*"))
    ]
    return found
