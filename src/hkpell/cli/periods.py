"""The period-map commands (heegner, period-image, oracle, nl-family,
hilb-square) and the period-image tables."""

from __future__ import annotations

from .. import periods
from . import _emit


def _key_payload(k) -> dict:
    return {"d": k.d, "kappa2": k.kappa_prim_sq, "div": k.s, "star": list(k.star)}


def _period_image_result(m: int, n: int, gamma: int) -> dict:
    """The excluded components; for m = 2 also those of unsettled multiplicity."""
    if m == 2:
        rep = periods.excluded_heegner_m2_report(n, gamma)
        keys = rep.keys
    else:
        keys = periods.excluded_heegner(m, n, gamma)
    res = {"excluded_d": sorted({k.d for k in keys}),
           "components": [_key_payload(k) for k in keys]}
    if m == 2:
        res["uncertain"] = [_key_payload(k) for k in rep.uncertain]
    return res


def _period_image_payload(m: int, n: int, gamma: int) -> dict:
    return {"m": m, "n": n, "gamma": gamma, **_period_image_result(m, n, gamma)}


def _cmd_heegner(args) -> int:
    if args.heegner_cmd == "nonempty":
        res = periods.heegner_nonempty_m2(args.n, args.gamma, args.e)
        return _emit(args, "heegner nonempty",
                     {"n": args.n, "gamma": args.gamma, "e": args.e},
                     {"nonempty": res})
    if args.heegner_cmd == "components":
        rep = periods.heegner_components_m2(args.n, args.gamma, args.e)
        res = {
            "count": rep.count,
            "certain": rep.certain,
            "components": [_key_payload(k) for k in rep.keys],
        }
        return _emit(args, "heegner components",
                     {"n": args.n, "gamma": args.gamma, "e": args.e}, res)
    raise AssertionError


def _cmd_period_image(args) -> int:
    params = {"m": args.m, "n": args.n, "gamma": args.gamma}
    return _emit(args, "period-image", params, _period_image_result(**params))


def _cmd_oracle(args) -> int:
    quads = periods.coordinate_oracle(args.m, args.n, args.gamma, args.bound)
    res = [
        {"kappa2": k2, "div": s, "star": list(star), "ambient_div": amb}
        for (k2, s, star, amb) in sorted(quads)
    ]
    return _emit(args, "oracle",
                 {"m": args.m, "n": args.n, "gamma": args.gamma, "bound": args.bound},
                 res)


def _cmd_nl_family(args) -> int:
    es = periods.nl_family(args.n, args.gamma, args.a_max)
    return _emit(args, "nl-family",
                 {"n": args.n, "gamma": args.gamma, "a_max": args.a_max},
                 {"e": list(es)})


def _cmd_hilb_square(args) -> int:
    points = periods.hilbert_square_points(args.n, args.e)
    chosen = periods.hilbert_square_point(args.n, args.e, args.gamma)
    res = {
        "point": None if chosen is None else {"a": chosen[0], "b": chosen[1],
                                              "gamma": chosen[2]},
        "all": [{"a": a, "b": b, "gamma": g} for a, b, g in points],
    }
    return _emit(args, "hilb-square",
                 {"n": args.n, "e": args.e, "gamma": args.gamma}, res)
