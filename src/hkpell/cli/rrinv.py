"""The chi and fujiki commands."""

from .. import rrinv
from . import _frac


def chi(params: dict) -> dict:
    return {"chi": rrinv.chi(rrinv.RiemannRochInput(params["series"], params["m"], params["q"]))}


def fujiki(params: dict) -> dict:
    return {"constant": _frac(rrinv.fujiki_constant(**params))}
