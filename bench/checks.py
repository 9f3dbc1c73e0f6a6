"""Correctness checks, run after the timed passes and after peak RSS is read.

Answers are compared with computations made apart from hkpell (sympy's
diop_DN, this file's own class-membership and discriminant-form arithmetic),
with the published tables of the paper, or with properties the method must
have -- never with a saved copy of the program's earlier output.  Each check
returns a list of error strings; an empty list means the answers hold.
"""

from __future__ import annotations

import json
from fractions import Fraction as F
from functools import lru_cache
from math import gcd, isqrt

# The paper's Hilbert-square table: e -> (mov slope, nef slope or None when
# the two cones agree).
HILBERT_SQUARE_TABLE = {
    1: (F(1), F(2, 3)), 2: (F(4, 3), None), 3: (F(3, 2), None), 4: (F(2), None),
    5: (F(20, 9), F(2)), 6: (F(12, 5), None), 7: (F(21, 8), None),
    8: (F(8, 3), None), 9: (F(3), None), 10: (F(60, 19), None),
    11: (F(33, 10), F(22, 7)), 12: (F(24, 7), None), 13: (F(2340, 649), None),
}
# The paper's wall table for the split degrees.
HILBERT_SQUARE_WALLS = {
    5: [F(2)], 11: [F(22, 7)], 19: [F(38, 9)], 29: [F(58, 11), F(12122, 2251)],
    31: [F(3658, 657)], 41: [F(82, 13), F(2542, 397)], 55: [F(22, 3)], 71: [F(142, 17)],
}
# The paper's rank-2 fourfold table at n = 3: e' -> (Aut, Bir).
FOURFOLD_N3 = {
    2: ("1", "Z x| Z/2"), 3: ("1", "1"), 4: ("1", "1"), 5: ("1", "Z"), 6: ("Z", "Z"),
    7: ("1", "1"), 8: ("1", "Z"), 9: ("Z", "Z"), 10: ("Z", "Z"),
    11: ("Z x| Z/2", "Z x| Z/2"),
}
# Appendix (Theorem ImagePeriodMap): excluded discriminants for (m, n, gamma).
APPENDIX_EXCLUDED_D = {
    (4, 1, 2): [2, 6, 8],
    (8, 1, 2): [2, 4, 8, 14, 16, 18, 22, 32],
    (12, 1, 2): [2, 6, 8, 10, 18, 22, 24, 28, 30, 32, 40, 50, 54, 72],
}
# Dimension 4: (n, gamma) -> the (d, divisibility) of the excluded components.
APPENDIX_M2 = {(3, 2): [(6, 1)], (11, 2): [(22, 1)]}
GROUP_SYMBOLS = {"trivial": "1", "z2": "Z/2", "z2xz2": "(Z/2)^2", "infinite_cyclic": "Z",
                 "infinite_dihedral": "Z x| Z/2", "unknown": "?"}


# ---------------------------------------------------------------------------
# Pell arithmetic apart from hkpell


@lru_cache(maxsize=None)
def sympy_classes(d: int, t: int) -> tuple:
    from sympy.solvers.diophantine.diophantine import diop_DN
    return tuple((int(x), int(y)) for x, y in diop_DN(d, t))


def sympy_unit(d: int) -> tuple[int, int]:
    return sympy_classes(d, 1)[0]


def _image_positive(x: int, y: int, d: int) -> bool:
    """Whether x + y*sqrt(d) > 0, exactly."""
    if x >= 0 and y >= 0:
        return x > 0 or y > 0
    if x <= 0 and y <= 0:
        return False
    return x * x > d * y * y if x > 0 else d * y * y > x * x


def associated(d: int, t: int, s1, s2) -> bool:
    """s1 and s2 lie in one class: s1 * conj(s2) / t is in Z[sqrt(d)]."""
    x = s1[0] * s2[0] - d * s1[1] * s2[1]
    y = s2[0] * s1[1] - s1[0] * s2[1]
    return x % abs(t) == 0 and y % abs(t) == 0


def min_positive_member(d: int, sol, unit) -> tuple[int, int]:
    """The member with a > 0, b > 0 and least a of the class of sol (up to sign)."""
    x, y = sol
    if not _image_positive(x, y, d):
        x, y = -x, -y
    u, v = unit
    while not (x > 0 and y > 0):
        x, y = x * u + d * y * v, x * v + y * u
    while True:
        xd, yd = x * u - d * y * v, y * u - x * v
        if not (xd > 0 and yd > 0):
            return x, y
        x, y = xd, yd


def expected_min(d: int, t: int):
    if isqrt(d) ** 2 == d:
        raise ValueError("square d")
    unit = sympy_unit(d)
    mins = [min_positive_member(d, s, unit) for s in sympy_classes(d, t)]
    return min(mins) if mins else None


def expected_gmin(e1: int, e2: int, t: int):
    """Least positive (a, b) with e1*a^2 - e2*b^2 = t: the classes of
    A^2 - e1*e2*B^2 = e1*t walked until A = 0 mod e1 or the residues cycle."""
    d = e1 * e2
    unit = sympy_unit(d)
    best = None
    for s in sympy_classes(d, e1 * t):
        x, y = min_positive_member(d, s, unit)
        seen = set()
        while x % e1 and (x % e1, y % e1) not in seen:
            seen.add((x % e1, y % e1))
            x, y = x * unit[0] + d * y * unit[1], x * unit[1] + y * unit[0]
        if x % e1 == 0 and (best is None or x // e1 < best[0]):
            best = (x // e1, y)
    return best


def _fmt(sol) -> str:
    """A solution for a message, with long integers cut to their size."""
    if sol is None:
        return "None"
    return "(" + ",".join(str(x) if abs(x) < 10 ** 30 else f"<{x.bit_length()}-bit>"
                          for x in sol) + ")"


def check_unit(d: int, got) -> list[str]:
    if got is None or got[0] ** 2 - d * got[1] ** 2 != 1:
        return [f"unit of {d}: {_fmt(got)} does not solve a^2 - {d} b^2 = 1"]
    if tuple(got) != sympy_unit(d):
        return [f"unit of {d}: {_fmt(got)} is not sympy's fundamental solution"]
    return []


def check_classes(d: int, t: int, got) -> list[str]:
    """got: [(a, b, conjugate_of)] from solution_classes."""
    where = f"classes of a^2 - {d} b^2 = {t}"
    errs = []
    reps = [(a, b) for a, b, _ in got]
    unit = sympy_unit(d)
    for a, b in reps:
        if a * a - d * b * b != t or a <= 0 or b <= 0:
            errs.append(f"{where}: {_fmt((a, b))} is not a positive solution")
        elif min_positive_member(d, (a, b), unit) != (a, b):
            errs.append(f"{where}: {_fmt((a, b))} is not its class's minimal positive member")
    theirs = sympy_classes(d, t)
    if len(theirs) != len(reps):
        errs.append(f"{where}: {len(reps)} classes, sympy finds {len(theirs)}")
    for s in theirs:
        if sum(associated(d, t, s, r) for r in reps) != 1:
            errs.append(f"{where}: sympy's class of {_fmt(s)} is not listed exactly once")
    for i, (a, b, conj) in enumerate(got):
        j = i if conj is None else conj
        if not 0 <= j < len(reps) or not associated(d, t, (a, -b), reps[j]):
            errs.append(f"{where}: wrong conjugate link at {_fmt((a, b))}")
    return errs


# ---------------------------------------------------------------------------
# degree_sweep


def _slope_sq(s) -> F:
    is_sqrt, p, q = s
    return F(p, q) if is_sqrt else F(p, q) ** 2


def _check_cone(where: str, rep) -> list[str]:
    errs = []
    mov2, nef2 = _slope_sq(rep["mov"]), _slope_sq(rep["nef"])
    if nef2 > mov2:
        errs.append(f"{where}: nef slope exceeds the movable slope")
    for p, q in rep["walls"]:
        if not (0 < F(p, q) and F(p, q) ** 2 < mov2):
            errs.append(f"{where}: wall {p}/{q} is not strictly inside (0, mov)")
    return errs


def check_degree_sweep(items, outputs) -> list[str]:
    errs = []
    for e, out in zip(items, outputs):
        s2 = out["s2"]
        errs += _check_cone(f"walls_s2({e})", s2)
        for m, rep in zip((3, 4), out["sm"]):
            errs += _check_cone(f"walls_sm({e},{m})", rep)
        for n, (_, rep) in zip((3, 7), out.get("ff", ())):
            errs += _check_cone(f"fourfold_cones({n},{e})", rep)
        # slopes and walls from sympy's units, by the paper's formulas
        root = isqrt(e)
        if root * root == e:
            mov = (False, root, 1)
        else:
            a1, b1 = sympy_unit(e)
            fr = F(e * b1, a1)
            mov = (False, fr.numerator, fr.denominator)
        if root * root == e:  # (a - 2rb)(a + 2rb) = 5 forces e = 1
            five = (3, 1) if e == 1 else None
        else:
            five = expected_min(4 * e, 5)
        if five is None:
            nef, n_walls = mov, 0
        else:
            fr = F(2 * e * five[1], five[0])
            nef = (False, fr.numerator, fr.denominator)
            b1 = 1 if e == 1 else sympy_unit(e)[1]
            n_walls = 1 + (b1 % 2 == 0 and e % 5 != 0)
        if (s2["mov"], s2["nef"]) != (mov, nef):
            errs.append(f"walls_s2({e}): slopes {s2['mov']}, {s2['nef']}; expected {mov}, {nef}")
        if len(s2["walls"]) != n_walls:
            errs.append(f"walls_s2({e}): {len(s2['walls'])} walls, the criterion gives {n_walls}")
        if e in HILBERT_SQUARE_TABLE:
            pmov, pnef = HILBERT_SQUARE_TABLE[e]
            pnef = pmov if pnef is None else pnef
            if (F(*s2["mov"][1:]), F(*s2["nef"][1:])) != (pmov, pnef):
                errs.append(f"walls_s2({e}): slopes differ from the paper's table")
        if e in HILBERT_SQUARE_WALLS and [F(*w) for w in s2["walls"]] != HILBERT_SQUARE_WALLS[e]:
            errs.append(f"walls_s2({e}): walls differ from the paper's table")
        # (Aut, Bir) of the Hilbert square from sympy's solvability
        neg = bool(sympy_classes(e, -1)) if root * root != e else False
        if e == 1 or (neg and five is None):
            tags = ["Z/2", "Z/2"]
        elif e == 5 or (e % 5 != 0 and neg and five is not None):
            tags = ["1", "Z/2"]
        else:
            tags = ["1", "1"]
        if out["bir_s2"] != tags:
            errs.append(f"bir_s2({e}): {out['bir_s2']}, expected {tags}")
        if e in FOURFOLD_N3 and list(out["ff"][0][0]) != list(FOURFOLD_N3[e]):
            errs.append(f"fourfold_groups(3,{e}): differs from the paper's table")
        for n, (groups, rep) in zip((3, 7), out.get("ff", ())):
            # finiteness of Aut and Bir follows the rationality of nef and mov
            aut_finite, bir_finite = (g in ("1", "Z/2") for g in groups)
            if (aut_finite, bir_finite) != (not rep["nef"][0], not rep["mov"][0]):
                errs.append(f"fourfold({n},{e}): groups {groups} disagree with the cone rationality")
    return errs


# ---------------------------------------------------------------------------
# pell_large


def check_pell_large(items, outputs) -> list[str]:
    errs = []
    for item, got in zip(items, outputs):
        kind = item[0]
        if kind == "unit":
            errs += check_unit(item[1], got)
        elif kind == "classes":
            errs += check_classes(item[1], item[2], got)
        elif kind == "min":
            d, t = item[1:]
            want = expected_min(d, t)
            if got is not None and got[0] ** 2 - d * got[1] ** 2 != t:
                errs.append(f"min of a^2 - {d} b^2 = {t}: {_fmt(got)} does not solve it")
            if got != want:
                errs.append(f"min of a^2 - {d} b^2 = {t}: {_fmt(got)}, expected {_fmt(want)}")
        else:
            e1, e2, t = item[1:]
            want = expected_gmin(e1, e2, t)
            if got is not None and e1 * got[0] ** 2 - e2 * got[1] ** 2 != t:
                errs.append(f"min of {e1}a^2 - {e2}b^2 = {t}: {_fmt(got)} does not solve it")
            if got != want:
                errs.append(f"min of {e1}a^2 - {e2}b^2 = {t}: {_fmt(got)}, expected {_fmt(want)}")
    return errs


# ---------------------------------------------------------------------------
# period_ladder


def wall_squares(m: int) -> set[int]:
    """kappa^2 = 2p(4pa - k^2) < 0 over the walls (k, a), 0 <= k <= p, a >= -1."""
    p = m - 1
    out = set()
    for k in range(p + 1):
        a = -1
        while 4 * p * a - k * k < 0:
            out.add(2 * p * (4 * p * a - k * k))
            a += 1
    return out


def _from_wall(m: int, k2: int) -> bool:
    return any(w % k2 == 0 and isqrt(w // k2) ** 2 == w // k2 for w in wall_squares(m))


def _check_key(where: str, m: int, n: int, gamma: int, key, allowed_k2=None) -> list[str]:
    d, k2, s, star = key
    errs = []
    if d * s * s * gamma * gamma != abs(k2) * 4 * n * (m - 1):
        errs.append(f"{where}: key {key} breaks d*s^2 = |kappa^2|*4n(m-1)/gamma^2")
    if allowed_k2 is not None and k2 not in allowed_k2:
        errs.append(f"{where}: kappa^2 = {k2} of {key} is not allowed")
    if allowed_k2 is None and not _from_wall(m, k2):
        errs.append(f"{where}: kappa^2 = {k2} of {key} comes from no wall (k, a)")
    if gamma == 1:
        # discriminant group Z/2n x Z/2(m-1), generator values -1/2n, -1/2(m-1)
        x, y = star
        o1, o2 = 2 * n, 2 * (m - 1)
        k1, k2o = o1 // gcd(x, o1), o2 // gcd(y, o2)
        order = k1 * k2o // gcd(k1, k2o)
        q = (F(-x * x, o1) + F(-y * y, o2)) % 2
        if order != s or q != F(k2, s * s) % 2:
            errs.append(f"{where}: star {star} has order {order} and value {q}, "
                        f"the key says {s} and {F(k2, s * s) % 2}")
        if tuple(star) > ((-x) % o1, (-y) % o2):
            errs.append(f"{where}: star {star} is not normalized up to sign")
    return errs


def oracle_errors(m: int, n: int, gamma: int, keys) -> list[str]:
    """Compare the analytic keys with the brute-force coordinate oracle (bound 12)."""
    from hkpell import periods
    p = m - 1
    squares = frozenset(w // (b * b) for w in wall_squares(m)
                        for b in range(1, isqrt(-w) + 1)
                        if w % (b * b) == 0 and (w // (b * b)) % 2 == 0)
    quads = periods.coordinate_oracle(m, n, gamma, 12, squares)
    analytic = {(k2, s, tuple(star)) for _, k2, s, star in keys}
    seen = {(k2, s, star) for k2, s, star, _ in quads}
    errs = [f"oracle({m},{n},{gamma}): key {k} not realized in the box"
            for k in sorted(analytic - seen)]
    for k2, s, star, amb in quads:
        qualifies = any(w % k2 == 0 and isqrt(w // k2) ** 2 == w // k2
                        and (isqrt(w // k2) * amb) % (2 * p) == 0 for w in wall_squares(m))
        if qualifies and (k2, s, star) not in analytic:
            errs.append(f"oracle({m},{n},{gamma}): realized class {(k2, s, star)} is missing")
    return errs


ORACLE_RUNG = 3  # the smallest ladder rung, m = 3, is cross-checked by the oracle


def check_period_ladder(items, outputs) -> list[str]:
    errs = []
    for item, out in zip(items, outputs):
        keys = [tuple(k) for k in out["keys"]]
        if item[0] == "ladder":
            m, n, gamma = item[1:]
            where = f"excluded_heegner{item[1:]}"
            for key in keys:
                errs += _check_key(where, m, n, gamma, key)
            if item[1:] in APPENDIX_EXCLUDED_D and \
                    sorted({k[0] for k in keys}) != APPENDIX_EXCLUDED_D[item[1:]]:
                errs.append(f"{where}: excluded d differ from the Appendix")
            if m == ORACLE_RUNG:
                errs += oracle_errors(m, n, gamma, keys)
        else:
            n, gamma = item[1:]
            where = f"excluded_heegner_m2_report{item[1:]}"
            for key in keys:
                errs += _check_key(where, 2, n, gamma, key, allowed_k2=(-2, -10))
            if not set(map(tuple, out["uncertain"])) <= set(keys):
                errs.append(f"{where}: an uncertain key is not among the keys")
            if (n, gamma) in APPENDIX_M2 and \
                    [(k[0], k[2]) for k in keys] != APPENDIX_M2[(n, gamma)]:
                errs.append(f"{where}: components differ from the Appendix")
    return errs


# ---------------------------------------------------------------------------
# cli_batch: each envelope's result against the library's answer


def _parse_slope(text: str):
    if text.startswith("sqrt("):
        return True, F(text[5:-1])
    return False, F(text)


def _slope_of(s):
    return s.is_sqrt, s.value


def _cone_payload_ok(res, rep) -> bool:
    return (_parse_slope(res["mov"]) == _slope_of(rep.mov_slope)
            and _parse_slope(res["nef"]) == _slope_of(rep.nef_slope)
            and [F(w) for w in res["walls"]] == list(rep.interior_walls)
            and res["nef_equals_mov"] == rep.nef_equals_mov)


def _keys_of(payload) -> list[tuple]:
    return [(c["d"], c["kappa2"], c["div"], tuple(c["star"])) for c in payload]


def _lib_keys(keys) -> list[tuple]:
    return [(k.d, k.kappa_prim_sq, k.s, tuple(k.star)) for k in keys]


def _tag(g) -> str:
    return GROUP_SYMBOLS[g.kind]


def _pairs(sols) -> list[dict]:
    return [{"a": s.a, "b": s.b} for s in sols]


def _opts(argv) -> dict:
    return {argv[i][2:].replace("-", "_"): argv[i + 1] for i in range(len(argv))
            if argv[i].startswith("--")}


def _result_ok(argv, res) -> bool:
    from hkpell import autgroups, cones, lattice, pell, periods, rrinv
    o = _opts(argv)
    i = {k: int(v) for k, v in o.items() if k != "series"}
    cmd = tuple(a for a in argv[:2] if not a.startswith("--"))
    if cmd == ("pell", "fundamental"):
        return res == _pairs([pell.fundamental_solution(i["d"])])[0]
    if cmd == ("pell", "min"):
        s = pell.min_positive_solution(pell.PellEquation.classical(i["d"], i["t"]))
        return res == (None if s is None else _pairs([s])[0])
    if cmd == ("pell", "classes"):
        cls = pell.solution_classes(i["d"], i["t"])
        return res == [{"a": c.representative.a, "b": c.representative.b,
                        "conjugate_of": c.conjugate_of} for c in cls]
    if cmd == ("pell", "stream"):
        return res == _pairs(pell.solutions_in_order(i["d"], i["t"], i["count"]))
    if cmd == ("cone", "s2"):
        rep = cones.walls_s2(i["e"])
        return len(res) == 1 and res[0]["e"] == i["e"] and _cone_payload_ok(res[0], rep)
    if cmd == ("cone", "sm"):
        rep = cones.walls_sm(i["e"], i["m"])
        ray, case = cones.mov_ray_sm(i["e"], i["m"])
        return _cone_payload_ok(res, rep) and res["mov_ray"] == {
            "c_l": ray.c_l, "c_delta": ray.c_delta, "case": case}
    if cmd == ("cone", "fourfold"):
        rep = cones.fourfold_cones(i["n"], i["e_prime"], prefix=8)
        return _cone_payload_ok(res, rep) and (res["walls_infinite"], res["symmetric"]) == (
            rep.walls_infinite, rep.symmetric)
    if cmd[0] == "chi":
        return res == {"chi": rrinv.chi(rrinv.RiemannRochInput(o["series"], i["m"], i["q"]))}
    if cmd[0] == "fujiki":
        return F(res["constant"]) == rrinv.fujiki_constant(o["series"], i["m"])
    if cmd == ("lattice", "disc"):
        dg = lattice.disc_group(i["m"], i["n"], i["gamma"])
        return (res["orders"], [F(q) for q in res["q"]], res["invariant_factors"],
                res["order"]) == (list(dg.orders), list(dg.gen_q),
                                  list(dg.invariant_factors), dg.order)
    if cmd == ("lattice", "dual"):
        return (res["m"], res["n"], res["gamma"]) == lattice.strange_dual_params(
            i["m"], i["n"], i["gamma"])
    if cmd == ("aut", "s2"):
        return [res["aut"], res["bir"]] == [_tag(g) for g in autgroups.bir_s2(i["e"])]
    if cmd == ("aut", "sm"):
        return res == {"bir": _tag(autgroups.bir_sm(i["e"], i["m"]))}
    if cmd == ("aut", "fourfold"):
        return [res["aut"], res["bir"]] == [_tag(g) for g in autgroups.fourfold_groups(
            i["n"], i["e_prime"])]
    if cmd == ("aut", "table"):
        return res == [{"e_prime": ep, "aut": _tag(a), "bir": _tag(b)}
                       for ep in range(2, i["emax"] + 1)
                       for a, b in [autgroups.fourfold_groups(i["n"], ep)]]
    if cmd == ("heegner", "components"):
        rep = periods.heegner_components_m2(i["n"], i["gamma"], i["e"])
        return (res["count"], res["certain"], _keys_of(res["components"])) == (
            rep.count, rep.certain, _lib_keys(rep.keys))
    if cmd[0] == "period-image":
        if i["m"] == 2:
            rep = periods.excluded_heegner_m2_report(i["n"], i["gamma"])
            keys, extra = rep.keys, _keys_of(res["uncertain"]) == _lib_keys(rep.uncertain)
        else:
            keys, extra = periods.excluded_heegner(i["m"], i["n"], i["gamma"]), True
        return extra and _keys_of(res["components"]) == _lib_keys(keys) and \
            res["excluded_d"] == sorted({k.d for k in keys})
    if cmd[0] == "oracle":
        quads = periods.coordinate_oracle(i["m"], i["n"], i["gamma"], i["bound"])
        return [(r["kappa2"], r["div"], tuple(r["star"]), r["ambient_div"]) for r in res] \
            == sorted(quads)
    if cmd[0] == "hilb-square":
        pts = periods.hilbert_square_points(i["n"], i["e"])
        chosen = periods.hilbert_square_point(i["n"], i["e"], 2)
        return [(p["a"], p["b"], p["gamma"]) for p in res["all"]] == list(pts) and (
            None if res["point"] is None else
            (res["point"]["a"], res["point"]["b"], res["point"]["gamma"])) == chosen
    raise ValueError(f"no check for {argv}")


def _reproduce_errors(table: str, text: str) -> list[str]:
    import csv
    from hkpell import periods
    where = f"reproduce {table}"
    if table.startswith("period-image-m"):
        payload = json.loads(text)
        m = int(table.rsplit("m", 1)[1])
        keys = periods.excluded_heegner(m, 1, 2)
        if payload["excluded_d"] != APPENDIX_EXCLUDED_D[(m, 1, 2)] or \
                _keys_of(payload["components"]) != _lib_keys(keys):
            return [f"{where}: differs from the Appendix or the library"]
        return []
    rows = list(csv.reader(text.splitlines()))[1:]
    if table == "s2-cones":
        got = {int(r[0]): (F(r[3]), None if r[4] == "=" else F(r[4])) for r in rows}
        return [] if got == HILBERT_SQUARE_TABLE else [f"{where}: differs from the paper's table"]
    if table == "s2-walls":
        got = {int(r[0]): [F(w) for w in r[3].split(";")] for r in rows}
        return [] if got == HILBERT_SQUARE_WALLS else [f"{where}: differs from the paper's table"]
    got = {int(r[0]): (r[1], r[2]) for r in rows}
    return [] if got == FOURFOLD_N3 else [f"{where}: differs from the paper's table"]


def check_cli_batch(items, outputs) -> list[str]:
    errs = []
    for argv, (code, out, err) in zip(items, outputs):
        where = "hkpell " + " ".join(argv)
        if code != 0 or err:
            errs.append(f"{where}: exit {code}, stderr {err.strip()[:200]!r}")
            continue
        if argv[0] == "reproduce":
            errs += _reproduce_errors(argv[1], out)
            continue
        envelope = json.loads(out)
        if not _result_ok(argv, envelope["result"]):
            errs.append(f"{where}: result differs from the library's answer")
    return errs


CHECKS = {"degree_sweep": check_degree_sweep, "pell_large": check_pell_large,
          "period_ladder": check_period_ladder, "cli_batch": check_cli_batch}
