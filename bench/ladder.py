"""One-off reference figures for the scaling ladder of ROADMAP item 1.

    python3 bench/ladder.py

Runs each rung once, each in a worker forked after `import hkpell` so that
it starts with empty caches, and prints its wall time and a short summary of
its answer.  Takes about a minute.  These are single measurements for
orientation, not benchmark metrics; README.md records one set.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import hkpell  # noqa: E402,F401
from hkpell import pell, periods  # noqa: E402
from timing import in_fork  # noqa: E402


def _unit(d):
    u = pell.fundamental_solution(d)
    return f"{u.a.bit_length()}-bit unit"


def _classes(d, t):
    return f"{len(pell.solution_classes(d, t))} classes"


def _excluded(m, n, gamma):
    return f"{len(periods.excluded_heegner(m, n, gamma))} keys"


def _oracle(bound):
    return f"{len(periods.coordinate_oracle(2, 3, 2, bound))} quadruples"


def _cli_reproduce():
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-m", "hkpell.cli", "reproduce", "period-image-m12"],
                         env=env, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return f"{len(out)} bytes"


RUNGS = [
    ("fundamental_solution(10**6)", lambda: _unit(10 ** 6)),
    ("fundamental_solution(10**8 + 7)", lambda: _unit(10 ** 8 + 7)),
    ("fundamental_solution(10**9 + 7)", lambda: _unit(10 ** 9 + 7)),
    ("solution_classes(7, 10**4)", lambda: _classes(7, 10 ** 4)),
    ("solution_classes(7, 10**6)", lambda: _classes(7, 10 ** 6)),
    ("excluded_heegner(48, 1, 2)", lambda: _excluded(48, 1, 2)),
    ("excluded_heegner(98, 1, 1)", lambda: _excluded(98, 1, 1)),
    ("excluded_heegner(60, 7, 1)", lambda: _excluded(60, 7, 1)),
    ("coordinate_oracle(2, 3, 2, bound=12)", lambda: _oracle(12)),
    ("coordinate_oracle(2, 3, 2, bound=16)", lambda: _oracle(16)),
    ("coordinate_oracle(2, 3, 2, bound=20)", lambda: _oracle(20)),
    ("hkpell reproduce period-image-m12 (process)", _cli_reproduce),
]


def _timed(fn):
    def go():
        t0 = time.perf_counter()
        try:
            what = fn()
        except Exception as exc:  # a rung's failure is part of its record
            what = f"raises {type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, what
    return go


def main() -> int:
    for name, fn in RUNGS:
        seconds, what = in_fork(_timed(fn))
        print(f"{name:45s} {seconds:9.3f} s  {what}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
