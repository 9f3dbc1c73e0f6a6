"""The cone command and the s2-cones and s2-walls tables."""

from .. import cones, pell
from ..arith import ratio_text
from . import UsageError


def _sol(s) -> str:
    return "-" if s is None else f"({s.a},{s.b})"


def _cone(rep) -> dict:
    """The fields every cone report prints."""
    return {
        "mov": str(rep.mov_slope),
        "nef": str(rep.nef_slope),
        "walls": [ratio_text(w) for w in rep.interior_walls],
        "nef_equals_mov": rep.nef_equals_mov,
    }


def _s2_degrees(params: dict) -> range:
    """The degrees of cone s2; --e in params becomes the range it stands for."""
    e = params.pop("e", None)
    e_from, e_to = params["e_from"], params["e_to"]
    if e is not None:
        if (e_from, e_to) != (None, None):
            raise UsageError("cone s2 takes --e alone, without --e-from or --e-to")
        e_from = e_to = e
    if e_from is None or e_to is None:
        raise UsageError("cone s2 needs --e or both --e-from and --e-to")
    if e_from > e_to:
        raise UsageError("cone s2 needs --e-from <= --e-to")
    params.update(e_from=e_from, e_to=e_to)
    return range(e_from, e_to + 1)


def s2(params: dict) -> list[dict]:
    return [{"e": e, **_cone(cones.walls_s2(e))} for e in _s2_degrees(params)]


def s2_rows(params: dict) -> list[list[str]]:
    rows = [["e", "pell_1", "pell_5", "mov", "nef"]]
    for e in _s2_degrees(params):
        p1 = pell.min_positive_solution(pell.PellEquation.classical(e, 1))
        p5 = pell.min_positive_solution(pell.PellEquation.classical(4 * e, 5))
        rep = cones.walls_s2(e)
        mov, nef = rep.mov_slope, rep.nef_slope
        rows.append([str(e), _sol(p1), _sol(p5), str(mov), "=" if nef == mov else str(nef)])
    return rows


def s2_walls_rows(_params: dict) -> list[list[str]]:
    rows = [["e", "pell_1", "mov", "walls"]]
    for e in (5, 11, 19, 29, 31, 41, 55, 71):
        p1 = pell.min_positive_solution(pell.PellEquation.classical(e, 1))
        rep = cones.walls_s2(e)
        rows.append([str(e), _sol(p1), str(rep.mov_slope),
                     ";".join(ratio_text(w) for w in rep.interior_walls)])
    return rows


def sm(params: dict) -> dict:
    cone = _cone(cones.walls_sm(**params))
    ray, case = cones.mov_ray_sm(**params)
    return {**cone, "mov_ray": {"c_l": ray.c_l, "c_delta": ray.c_delta, "case": case}}


def fourfold(params: dict) -> dict:
    rep = cones.fourfold_cones(**params)
    return {**_cone(rep), "walls_infinite": rep.walls_infinite, "symmetric": rep.symmetric}
