"""The cone command and the s2-cones and s2-walls tables."""

from __future__ import annotations

from .. import cones, pell
from . import UsageError, _emit, _emit_csv, _frac


def _sol(s) -> str:
    return "-" if s is None else f"({s.a},{s.b})"


def _slope(s) -> str:
    return str(s)


def _s2_cone_rows(e_from: int, e_to: int) -> list[list[str]]:
    rows = [["e", "pell_1", "pell_5", "mov", "nef"]]
    for e in range(e_from, e_to + 1):
        p1 = pell.min_positive_solution(pell.PellEquation.classical(e, 1))
        p5 = pell.min_positive_solution(pell.PellEquation.classical(4 * e, 5))
        mov = cones.mov_slope_s2(e)
        nef = cones.nef_slope_s2(e)
        rows.append([str(e), _sol(p1), _sol(p5), _slope(mov),
                     "=" if nef == mov else _slope(nef)])
    return rows


def _table_s2_walls() -> list[list[str]]:
    rows = [["e", "pell_1", "mov", "walls"]]
    for e in (5, 11, 19, 29, 31, 41, 55, 71):
        p1 = pell.min_positive_solution(pell.PellEquation.classical(e, 1))
        rep = cones.walls_s2(e)
        rows.append([str(e), _sol(p1), _slope(rep.mov_slope),
                     ";".join(_frac(w) for w in rep.interior_walls)])
    return rows


def _cone_s2_row(e: int) -> dict:
    rep = cones.walls_s2(e)
    return {
        "e": e,
        "mov": _slope(rep.mov_slope),
        "nef": _slope(rep.nef_slope),
        "walls": [_frac(w) for w in rep.interior_walls],
        "nef_equals_mov": rep.nef_equals_mov,
    }


def _cmd_cone(args) -> int:
    if args.cone_cmd == "s2":
        e_from = args.e_from if args.e_from is not None else args.e
        e_to = args.e_to if args.e_to is not None else args.e
        if e_from is None or e_to is None:
            raise UsageError("cone s2 needs --e or both --e-from and --e-to")
        if e_from > e_to:
            raise UsageError("cone s2 needs --e-from <= --e-to")
        if args.format == "csv":
            return _emit_csv(_s2_cone_rows(e_from, e_to))
        res = [_cone_s2_row(e) for e in range(e_from, e_to + 1)]
        return _emit(args, "cone s2", {"e_from": e_from, "e_to": e_to}, res)
    if args.cone_cmd in ("sm", "walls"):
        rep = cones.walls_sm(args.e, args.m)
        ray, case = cones.mov_ray_sm(args.e, args.m)
        res = {
            "mov": _slope(rep.mov_slope),
            "nef": _slope(rep.nef_slope),
            "walls": [_frac(w) for w in rep.interior_walls],
            "mov_ray": {"c_l": ray.c_l, "c_delta": ray.c_delta, "case": case},
            "nef_equals_mov": rep.nef_equals_mov,
        }
        return _emit(args, f"cone {args.cone_cmd}", {"e": args.e, "m": args.m}, res)
    rep = cones.fourfold_cones(args.n, args.e_prime, prefix=args.prefix)
    res = {
        "mov": _slope(rep.mov_slope),
        "nef": _slope(rep.nef_slope),
        "walls": [_frac(w) for w in rep.interior_walls],
        "walls_infinite": rep.walls_infinite,
        "symmetric": rep.symmetric,
        "nef_equals_mov": rep.nef_equals_mov,
    }
    return _emit(args, "cone fourfold",
                 {"n": args.n, "e_prime": args.e_prime, "prefix": args.prefix}, res)
