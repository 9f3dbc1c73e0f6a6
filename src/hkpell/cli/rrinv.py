"""The chi and fujiki commands."""

from __future__ import annotations

from .. import rrinv
from . import _emit, _frac


def _cmd_chi(args) -> int:
    value = rrinv.chi(rrinv.RiemannRochInput(args.series, args.m, args.q))
    return _emit(args, "chi", {"series": args.series, "m": args.m, "q": args.q},
                 {"chi": value})


def _cmd_fujiki(args) -> int:
    c = rrinv.fujiki_constant(args.series, args.m)
    return _emit(args, "fujiki", {"series": args.series, "m": args.m},
                 {"constant": _frac(c)})
