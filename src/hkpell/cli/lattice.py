"""The lattice command."""

from .. import lattice
from ..arith import ratio_text


def disc(params: dict) -> dict:
    dg = lattice.disc_group(**params)
    return {
        "orders": list(dg.orders),
        "q": [ratio_text(q) for q in dg.gen_q],
        "invariant_factors": list(dg.invariant_factors),
        "order": dg.order,
    }


def orbit(params: dict) -> dict:
    disc = lattice.disc_group(params["m"], params["n"], params["gamma"])
    key = lattice.OrbitKey(params["square"], params["div"])
    # h^perp holds U + U, so a class realizing the key is a primitive vector
    # (lattice.exists_primitive_vector)
    return {"exists": any(disc.realizing(key.square, key.star_order))}


def dual(params: dict) -> dict:
    m, n, gamma = lattice.strange_dual_params(**params)
    return {"m": m, "n": n, "gamma": gamma}
