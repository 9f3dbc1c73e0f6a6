"""Show that the benchmark's checks reject corrupted answers.

    python3 bench/sensitivity.py

For each workload it computes the answers to a short item list, confirms
that the check passes them, then corrupts one answer at a time and confirms
that the check reports every corruption.  Exits with 1 if one slips through.
"""

from __future__ import annotations

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = SRC  # for the cli_batch child processes

from checks import CHECKS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _set(path, value):
    def corrupt(outputs):
        *head, last = path
        target = outputs
        for key in head:
            target = target[key]
        target[last] = value(target[last]) if callable(value) else value
    return corrupt


def _edit_stdout(i, old, new):
    def corrupt(outputs):
        code, out, err = outputs[i]
        assert old in out
        outputs[i] = (code, out.replace(old, new, 1), err)
    return corrupt


CASES = {
    "degree_sweep": ([5, 11, 29], {
        "mov slope of e = 5": _set([0, "s2", "mov"], (False, 21, 9)),
        "a wall of e = 29 dropped": _set([2, "s2", "walls"], lambda w: w[:1]),
        "Bir of the Hilbert square at e = 11": _set([1, "bir_s2"], ["Z/2", "Z/2"]),
        "a walls_sm wall beyond the movable slope": _set([2, "sm", 0, "walls"], [(99, 1)]),
        "Aut of the n = 7 fourfold at e = 11": _set([1, "ff", 1, 0, 0], "Z"),
    }),
    "pell_large": ([("unit", 36047901), ("classes", 164, 5), ("min", 13, -3), ("gmin", 2, 7, 1)], {
        "unit off by one": _set([0], lambda u: (u[0] + 1, u[1])),
        "unit squared (solves, not fundamental)": _set(
            [0], lambda u: (u[0] ** 2 + 36047901 * u[1] ** 2, 2 * u[0] * u[1])),
        "a solution class dropped": _set([1], lambda c: c[:1]),
        "conjugate links swapped": _set([1], lambda c: [(a, b, None) for a, b, _ in c]),
        "second solution as the minimum": _set([2], (137, 38)),
        "generalized minimum replaced": _set([3], lambda s: (s[0] + 1, s[1])),
    }),
    "period_ladder": ([("ladder", 4, 1, 2), ("ladder", 3, 1, 1), ("m2", 3, 2)], {
        "an excluded d of (4,1,2)": _set([0, "keys", 0], lambda k: (k[0] + 2,) + k[1:]),
        "a key of (3,1,1) dropped": _set([1, "keys"], lambda ks: ks[1:]),
        "a star of (3,1,1)": _set([1, "keys", -1], lambda k: k[:3] + (((k[3][0] + 1) % 2, k[3][1]),)),
        "the m = 2 component at n = 3": _set([2, "keys", 0], lambda k: (10,) + k[1:]),
    }),
    "cli_batch": ([("pell", "fundamental", "--d", "13"), ("cone", "s2", "--e", "11"),
                   ("reproduce", "s2-cones"), ("reproduce", "period-image-m4")], {
        "a unit in the envelope": _edit_stdout(0, '"a": 649', '"a": 650'),
        "a nef slope in the envelope": _edit_stdout(1, '"nef": "22/7"', '"nef": "23/7"'),
        "a slope in the s2-cones table": _edit_stdout(2, "2340/649", "2341/649"),
        "an excluded d of period-image-m4": _edit_stdout(3, '"d": 8', '"d": 10'),
    }),
}


def main() -> int:
    slipped = 0
    for name, (items, corruptions) in CASES.items():
        w = WORKLOADS[name]
        good = [w.plain(w.run(item)) for item in items]
        errs = CHECKS[name](items, good)
        print(f"{name}: true answers {'pass' if not errs else 'FAIL: ' + '; '.join(errs)}")
        slipped += bool(errs)
        for what, corrupt in corruptions.items():
            bad = copy.deepcopy(good)
            corrupt(bad)
            caught = CHECKS[name](items, bad)
            print(f"  {'rejected' if caught else 'ACCEPTED'}: {what}"
                  + (f" -- {caught[0]}" if caught else ""))
            slipped += not caught
    return 1 if slipped else 0


if __name__ == "__main__":
    sys.exit(main())
