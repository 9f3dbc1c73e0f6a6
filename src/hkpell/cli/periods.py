"""The period-map commands (heegner, period-image, oracle, nl-family,
hilb-square) and the period-image tables."""

from .. import periods


def _key_payload(k) -> dict:
    return {"d": k.d, "kappa2": k.kappa_prim_sq, "div": k.s, "star": list(k.star)}


def heegner_nonempty(params: dict) -> dict:
    return {"nonempty": periods.heegner_nonempty_m2(**params)}


def heegner_components(params: dict) -> dict:
    rep = periods.heegner_components_m2(**params)
    return {
        "count": rep.count,
        "certain": rep.certain,
        "components": [_key_payload(k) for k in rep.keys],
    }


def period_image(params: dict) -> dict:
    """The excluded components; for m = 2 also those of unsettled multiplicity."""
    if params["m"] == 2:
        rep = periods.excluded_heegner_m2_report(params["n"], params["gamma"])
        keys, uncertain = rep.keys, {"uncertain": [_key_payload(k) for k in rep.uncertain]}
    else:
        keys, uncertain = periods.excluded_heegner(**params), {}
    return {"excluded_d": sorted({k.d for k in keys}),
            "components": [_key_payload(k) for k in keys], **uncertain}


def oracle(params: dict) -> list[dict]:
    return [{"kappa2": k2, "div": s, "star": list(star), "ambient_div": amb}
            for (k2, s, star, amb) in sorted(periods.coordinate_oracle(**params))]


def nl_family(params: dict) -> dict:
    return {"e": list(periods.nl_family(**params))}


def hilb_square(params: dict) -> dict:
    chosen = periods.hilbert_square_point(**params)  # first: it checks gamma
    points = periods.hilbert_square_points(params["n"], params["e"])
    return {
        "point": None if chosen is None else {"a": chosen[0], "b": chosen[1],
                                              "gamma": chosen[2]},
        "all": [{"a": a, "b": b, "gamma": g} for a, b, g in points],
    }
