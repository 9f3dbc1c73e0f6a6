"""Clocks of the benchmark: the two references, passes run in forked
workers, and interpreter start-up launches.

Every time is wall time from time.perf_counter(), which on Linux reads
CLOCK_MONOTONIC and so compares across processes.  Times are *scaled* to
take out the drift of a shared machine: a reference of fixed work is timed
next to the work, and

    scaled = raw * NOMINAL[kind] / (median of the references within
             WINDOW_S of it, at least WINDOW_MIN of the nearest)

- kind "loop": a fixed pure-Python loop, for work inside one process.
- kind "start": a bare interpreter start, `python -c pass`, for work that
  starts interpreters (set-up, CLI invocations); process start drifts
  differently from the loop (README).

The references do not track sub-second jitter, so the window is wide; it
follows drift over seconds, which one median per pass does not.
"""

from __future__ import annotations

import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
import traceback
from bisect import bisect_left

REF_ITERATIONS = 3000
# Duration of one reference of each kind on the machine the bounds were set
# on (2-core VM, CPython 3.11.7) when it was quiet; scaled times are
# expressed at these speeds.
NOMINAL = {"loop": 0.0003, "start": 0.05}
WINDOW_S = 1.0
WINDOW_MIN = 9


def ref_slice() -> tuple[float, float]:
    """Run the reference loop once; return (midpoint, seconds)."""
    t0 = time.perf_counter()
    x = 1
    for i in range(REF_ITERATIONS):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
    t1 = time.perf_counter()
    return (t0 + t1) / 2, t1 - t0


def bare_start() -> tuple[float, float]:
    """Start `python -c pass` once; return (midpoint, seconds)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    t1 = time.perf_counter()
    return (t0 + t1) / 2, t1 - t0


REFERENCES = {"loop": ref_slice, "start": bare_start}


def scaled(times: list[tuple[float, float]], refs: list[tuple[float, float]],
           kind: str) -> list[float]:
    """Each (seconds, midpoint) at the nominal speed of the references
    (midpoint, seconds) of `kind` taken around it; refs are in time order."""
    mids = [t for t, _ in refs]
    out = []
    for dt, t in times:
        lo, hi = bisect_left(mids, t - WINDOW_S), bisect_left(mids, t + WINDOW_S)
        if hi - lo < WINDOW_MIN:
            i = bisect_left(mids, t)
            lo = max(0, min(i - WINDOW_MIN // 2, len(mids) - WINDOW_MIN))
            hi = lo + WINDOW_MIN
        out.append(dt * NOMINAL[kind] / statistics.median(d for _, d in refs[lo:hi]))
    return out


def slowdown(refs: list[tuple[float, float]], kind: str) -> float:
    """Median reference duration over its nominal value (> 1 means slower)."""
    return statistics.median(d for _, d in refs) / NOMINAL[kind]


def in_fork(fn):
    """Run fn() in a forked child and return its (picklable) result.

    The child starts with the parent's imports and whatever state the parent
    holds, so a parent that has imported hkpell but never called it hands
    every child empty caches without paying the import again.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(r)
        try:
            payload = pickle.dumps((True, fn()))
        except BaseException:  # report anything, the parent decides
            payload = pickle.dumps((False, traceback.format_exc()))
        with os.fdopen(w, "wb") as f:
            f.write(payload)
        os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as f:
        data = f.read()
    os.waitpid(pid, 0)
    ok, value = pickle.loads(data)
    if not ok:
        raise RuntimeError(f"benchmark worker failed:\n{value}")
    return value


def peak_rss_mb(who: int) -> float:
    """Peak resident set of this process (RUSAGE_SELF) or of its largest
    waited-for child (RUSAGE_CHILDREN), in MB; Linux reports KiB."""
    return resource.getrusage(who).ru_maxrss / 1024


def launch_times(module: str, count: int, env: dict, cwd: str):
    """(seconds, midpoint) from starting a fresh interpreter to `module`
    imported, for `count` launches, each after one bare start; returns the
    launches and the bare starts."""
    code = f"import time, {module}; print(time.perf_counter())"
    out, bare = [], []
    for _ in range(count):
        bare.append(bare_start())
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                              capture_output=True, text=True, check=True)
        t1 = float(proc.stdout)
        out.append((t1 - t0, (t0 + t1) / 2))
    return out, bare
