"""The chi and fujiki commands."""

from .. import rrinv
from ..arith import ratio_text


def chi(params: dict) -> dict:
    return {"chi": rrinv.chi(rrinv.RiemannRochInput(params["series"], params["m"], params["q"]))}


def fujiki(params: dict) -> dict:
    return {"constant": ratio_text(rrinv.fujiki_constant(**params))}
