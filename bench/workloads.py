"""The four workloads: seeded item lists and how one item runs.

Each workload is a closed loop with one caller: the next item starts when
the previous one has returned.  items(seed) builds the item list from the
seed alone and never calls hkpell, so the process that forks the timed
passes keeps the program's caches empty.  run(item) is the timed call;
plain(output) turns its result into plain data for the checks.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time

# ---------------------------------------------------------------------------
# plain-data views of hkpell results (no hkpell import needed here)


def _frac(q) -> tuple[int, int]:
    return (q.numerator, q.denominator)


def _slope(s) -> tuple[bool, int, int]:
    return (s.is_sqrt, s.value.numerator, s.value.denominator)


def _cone(rep) -> dict:
    return {"mov": _slope(rep.mov_slope), "nef": _slope(rep.nef_slope),
            "walls": [_frac(w) for w in rep.interior_walls],
            "infinite": rep.walls_infinite}


def _key(k) -> tuple:
    return (k.d, k.kappa_prim_sq, k.s, tuple(k.star))


def _pair(s):
    return None if s is None else (s.a, s.b)


# ---------------------------------------------------------------------------
# degree_sweep


class DegreeSweep:
    """Every per-degree invariant for e = 1..13 (the paper's table) and one
    seeded degree out of each pair {2k, 2k+1}, 14 <= 2k < 300, ascending.
    Pairing the sample keeps the pass cost nearly the same for every seed."""

    name = "degree_sweep"
    in_process = True

    def items(self, seed: int) -> list[int]:
        rng = random.Random(f"degree_sweep:{seed}")
        return list(range(1, 14)) + [rng.choice((2 * k, 2 * k + 1)) for k in range(7, 150)]

    def run(self, e: int, tracer=None):
        from hkpell import autgroups, cones
        out = {"s2": cones.walls_s2(e), "bir_s2": autgroups.bir_s2(e),
               "sm": [cones.walls_sm(e, m) for m in (3, 4)]}
        if e >= 2:
            out["bir_sm"] = [autgroups.bir_sm(e, m) for m in (3, 4, 5, 6)]
            out["ff"] = [(autgroups.fourfold_groups(n, e), cones.fourfold_cones(n, e))
                         for n in (3, 7)]
        return out

    def plain(self, out) -> dict:
        res = {"s2": _cone(out["s2"]), "bir_s2": [str(g) for g in out["bir_s2"]],
               "sm": [_cone(r) for r in out["sm"]]}
        if "bir_sm" in out:
            res["bir_sm"] = [str(g) for g in out["bir_sm"]]
            res["ff"] = [([str(g) for g in groups], _cone(rep)) for groups, rep in out["ff"]]
        return res


# ---------------------------------------------------------------------------
# pell_large

# Steps of the continued fraction of sqrt(d) up to the unit of norm +1 (the
# period, doubled when it is odd) at the quantiles (k + 1/2)/120 * 0.97,
# k = 0..119, of d log-uniform in [1e6, 1e8] (20000 draws).  Unit item k takes
# the d of a seeded pool nearest to entry k in steps and in unit size (about
# 1.725 bits per step), so every seed gets the same spread of unit sizes,
# from a few bits to ~10^4-bit units at the top.
UNIT_STEPS = (
    4, 8, 14, 18, 24, 30, 36, 42, 48, 52, 58, 64, 70, 76, 82, 88, 94, 100, 108,
    116, 122, 128, 136, 144, 150, 158, 166, 174, 182, 190, 198, 206, 214, 222,
    230, 240, 250, 258, 266, 278, 288, 298, 308, 318, 328, 338, 348, 358, 370,
    384, 398, 410, 422, 434, 448, 460, 474, 486, 500, 516, 532, 550, 564, 578,
    596, 616, 636, 654, 672, 694, 718, 736, 758, 782, 804, 832, 854, 876, 904,
    930, 962, 992, 1022, 1054, 1088, 1126, 1164, 1204, 1236, 1274, 1314, 1356,
    1406, 1448, 1502, 1562, 1618, 1676, 1742, 1810, 1888, 1962, 2040, 2144,
    2246, 2338, 2462, 2574, 2692, 2834, 3002, 3188, 3380, 3602, 3876, 4214,
    4566, 5008, 5594, 6354)
BITS_PER_STEP = 1.725
UNIT_POOL = 3000
CLASS_ITEMS = 90
# Class items use d with a unit of at most this many steps, so that the class
# search, not the unit, sets their cost.
CLASS_MAX_STEPS = 24
# (call, right-hand side built as a norm so the equation is solvable)
CLASS_KINDS = (("classes", True), ("min", False), ("gmin", True),
               ("classes", False), ("min", True), ("gmin", False))
GMIN_E1 = (2, 3, 5, 6, 7)


def unit_size(d: int) -> tuple[int, float]:
    """(steps, bits) of the fundamental unit of norm +1 of Z[sqrt(d)], from
    the continued fraction of sqrt(d): the unit is the product of the
    complete quotients (P_i + sqrt(d))/Q_i over one period, squared when the
    period is odd."""
    r, root = math.isqrt(d), math.sqrt(d)
    m, q, a, n, bits = 0, 1, r, 0, 0.0
    while True:
        m = q * a - m
        q = (d - m * m) // q
        a = (r + m) // q
        n += 1
        bits += math.log2((m + root) / q)
        if q == 1:
            return (n, bits) if n % 2 == 0 else (2 * n, 2 * bits)


def _squarefree(n: int) -> bool:
    n = abs(n)
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 1
    return n > 0


class PellLarge:
    """The Pell layer alone on distinct inputs, so no cache ever serves one
    item from another: 120 fundamental units for d log-uniform in [1e6, 1e8],
    stratified by unit size (UNIT_STEPS), and 90 class searches --
    solution_classes, min_positive_solution and generalized_min -- with
    squarefree |right-hand side| N on a log grid from 10 to 1e6 (N is |e1*t|
    for generalized_min) and d log-uniform in [1e3, 1e5] with a short unit
    (CLASS_MAX_STEPS).  Half of the class items get t built as a norm, so
    they have solutions; the others get a random t.  Items run in seeded
    order."""

    name = "pell_large"
    in_process = True

    def items(self, seed: int) -> list[tuple]:
        rng = random.Random(f"pell_large:{seed}")
        used: set[int] = set()
        pool: list[tuple[int, int, float]] = []  # (d, steps, bits)
        lo, hi = math.log(1e6), math.log(1e8)
        while len(pool) < UNIT_POOL:
            d = int(math.exp(rng.uniform(lo, hi)))
            if math.isqrt(d) ** 2 != d and d not in used:
                used.add(d)
                pool.append((d, *unit_size(d)))
        out = []
        for target in UNIT_STEPS:
            best = min(pool, key=lambda c: abs(c[1] / target - 1)
                       + abs(c[2] / (BITS_PER_STEP * target) - 1))
            pool.remove(best)
            out.append(("unit", best[0]))
        used = {d for _, d in out}
        for k in range(CLASS_ITEMS):
            target = 10 * 10 ** (5 * (k + 0.5) / CLASS_ITEMS)
            kind, as_norm = CLASS_KINDS[k % len(CLASS_KINDS)]
            out.append(self._class_item(rng, used, kind, as_norm, target))
        rng.shuffle(out)
        return out

    @staticmethod
    def _class_item(rng, used, kind, as_norm, target) -> tuple:
        e1 = rng.choice(GMIN_E1) if kind == "gmin" else 1
        # 2% around the target, widened so that small targets admit a few
        # squarefree multiples of e1
        n_lo = max(1, math.floor(target * 0.98) - 2 * e1)
        n_hi = math.ceil(target * 1.02) + 2 * e1
        while True:
            e2 = int(math.exp(rng.uniform(math.log(1e3 / e1), math.log(1e5 / e1))))
            d = e1 * e2
            if math.isqrt(d) ** 2 == d or d in used or unit_size(d)[0] > CLASS_MAX_STEPS:
                continue
            if as_norm:  # t = e1*a^2 - e2*b^2 near the target
                b = rng.randint(1, 3)
                want = rng.choice((-1, 1)) * target / e1
                a0 = math.isqrt(max(0, int((e2 * b * b + want) / e1)))
                cands = [e1 * a * a - e2 * b * b for a in (a0, a0 + 1) if a > 0]
            else:
                cands = [rng.choice((-1, 1)) * rng.randint(-(-n_lo // e1), n_hi // e1)]
            for t in cands:
                if t and n_lo <= abs(e1 * t) <= n_hi and _squarefree(e1 * t):
                    used.add(d)
                    return ("gmin", e1, e2, t) if kind == "gmin" else (kind, d, t)

    def run(self, item, tracer=None):
        from hkpell import pell
        kind = item[0]
        if kind == "unit":
            return pell.fundamental_solution(item[1])
        if kind == "classes":
            return pell.solution_classes(item[1], item[2])
        if kind == "min":
            return pell.min_positive_solution(pell.PellEquation.classical(item[1], item[2]))
        return pell.generalized_min(item[1], item[2], item[3])

    def plain(self, out):
        if isinstance(out, list):
            return [(c.representative.a, c.representative.b, c.conjugate_of) for c in out]
        return _pair(out)


# ---------------------------------------------------------------------------
# period_ladder

LADDER_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
M2_STRATA = 28


def ladder_params() -> list[tuple[int, int, int]]:
    """(m, n, gamma) for every m - 1 prime <= 23, n <= 4, gamma in {1, 2}
    (gamma = 2 only where n + m = 1 mod 4, the condition for it to exist)."""
    out = []
    for p in LADDER_PRIMES:
        for n in range(1, 5):
            out.append((p + 1, n, 1))
            if (n + p + 1) % 4 == 1:
                out.append((p + 1, n, 2))
    return out


class PeriodLadder:
    """excluded_heegner over the whole ladder (45 items, fixed) plus
    excluded_heegner_m2_report for n in 28 strata of four: one seeded n per
    stratum with gamma = 1, and n = 4j + 3 with gamma = 2.  Items run in
    seeded order."""

    name = "period_ladder"
    in_process = True

    def items(self, seed: int) -> list[tuple]:
        rng = random.Random(f"period_ladder:{seed}")
        out = [("ladder",) + p for p in ladder_params()]
        for j in range(M2_STRATA):
            out.append(("m2", 4 * j + rng.randint(1, 4), 1))
            out.append(("m2", 4 * j + 3, 2))
        rng.shuffle(out)
        return out

    def run(self, item, tracer=None):
        from hkpell import periods
        if item[0] == "ladder":
            return periods.excluded_heegner(*item[1:])
        return periods.excluded_heegner_m2_report(*item[1:])

    def plain(self, out):
        if isinstance(out, tuple):
            return {"keys": [_key(k) for k in out]}
        return {"keys": [_key(k) for k in out.keys],
                "uncertain": [_key(k) for k in out.uncertain]}


# ---------------------------------------------------------------------------
# cli_batch

CLI_ROUNDS = 5
CLI_PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_probe.py")
PROBE_MARK = "#bench-trace "
TABLE_IDS = ("s2-cones", "s2-walls", "aut-n3", "period-image-m4",
             "period-image-m8", "period-image-m12")


def _nonsquare(rng, lo, hi) -> int:
    while True:
        d = rng.randint(lo, hi)
        if math.isqrt(d) ** 2 != d:
            return d


def cli_round(rng) -> list[list[str]]:
    """One invocation of each of 20 subcommands with seeded parameters, all
    inside the command's domain."""
    s = str
    d = _nonsquare(rng, 2, 5000)
    e = rng.randint(1, 300)
    e2 = rng.randint(2, 60)
    n4 = 4 * rng.randint(0, 7) + 3  # n = -1 mod 4
    m = rng.choice((3, 4))
    mg, ng = rng.choice(((4, 1), (8, 1), (3, 2), (6, 3), (12, 1), (2, 3)))  # n+m = 1 mod 4
    gamma = rng.randint(1, 2)
    series = rng.choice(("HilbK3", "Kummer"))
    return [
        ["pell", "fundamental", "--d", s(d)],
        ["pell", "min", "--d", s(d), "--t", s(rng.choice((-1, 1)) * rng.randint(1, 500))],
        ["pell", "classes", "--d", s(_nonsquare(rng, 2, 2000)), "--t", s(rng.randint(-300, 300) or 1)],
        ["pell", "stream", "--d", s(_nonsquare(rng, 2, 500)), "--t", "1", "--count", "5"],
        ["cone", "s2", "--e", s(e)],
        ["cone", "sm", "--e", s(rng.randint(1, 60)), "--m", s(m)],
        ["cone", "fourfold", "--n", s(n4), "--e-prime", s(e2)],
        ["chi", "--series", series, "--m", s(rng.randint(1, 6)), "--q", s(2 * rng.randint(-10, 20))],
        ["fujiki", "--series", series, "--m", s(rng.randint(1, 8))],
        ["lattice", "disc", "--m", s(mg), "--n", s(ng), "--gamma", "2"],
        ["lattice", "dual", "--m", s(rng.randint(2, 9)), "--n", s(rng.randint(1, 9)), "--gamma", "1"],
        ["aut", "s2", "--e", s(e)],
        ["aut", "sm", "--e", s(rng.randint(2, 40)), "--m", s(rng.randint(3, 8))],
        ["aut", "fourfold", "--n", s(n4), "--e-prime", s(e2)],
        ["aut", "table", "--n", s(n4), "--emax", s(rng.randint(6, 16))],
        ["heegner", "components", "--n", s(n4), "--gamma", s(gamma), "--e", s(rng.randint(1, 40))],
        ["period-image", "--m", s(mg), "--n", s(ng), "--gamma", "2"],
        ["oracle", "--m", "2", "--n", s(rng.randint(1, 3)), "--gamma", "1", "--bound", s(rng.randint(3, 5))],
        ["hilb-square", "--n", s(rng.randint(1, 13)), "--e", s(rng.randint(1, 40))],
        ["reproduce", rng.choice(TABLE_IDS)],
    ]


class CliBatch:
    """Each item is one fresh `python -m hkpell.cli ...` process; a pass is
    five seeded rounds of the 20 subcommands of cli_round, shuffled per
    round.  Interpreter start, the hkpell.cli import, argparse and the JSON
    envelope dominate; the computations are small."""

    name = "cli_batch"
    in_process = False  # the work runs in child interpreters

    def items(self, seed: int) -> list[tuple[str, ...]]:
        rng = random.Random(f"cli_batch:{seed}")
        out = []
        for _ in range(CLI_ROUNDS):
            batch = cli_round(rng)
            rng.shuffle(batch)
            out.extend(tuple(argv) for argv in batch)
        return out

    def run(self, argv, tracer=None):
        """Without a tracer, exactly what a user runs.  With one, the same
        invocation through cli_probe.py, whose spans join the tracer's."""
        if tracer is None:
            cmd = [sys.executable, "-m", "hkpell.cli", *argv]
        else:
            cmd = [sys.executable, CLI_PROBE, *argv]
        launched = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        err = proc.stderr
        if tracer is not None:
            err, _, line = err.rstrip("\n").rpartition("\n")
            data = json.loads(line.removeprefix(PROBE_MARK))
            tracer.absorb(data["trace"], tracer.current_item[0])
            tracer.samples.setdefault("cli.startup_s", []).append(data["imported"] - launched)
        return proc.returncode, proc.stdout, err

    def plain(self, out):
        return out


WORKLOADS = {w.name: w for w in (DegreeSweep(), PellLarge(), PeriodLadder(), CliBatch())}
