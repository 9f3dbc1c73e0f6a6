"""The pell command."""

from __future__ import annotations

from .. import pell
from . import _emit


def _cmd_pell(args) -> int:
    if args.pell_cmd == "fundamental":
        s = pell.fundamental_solution(args.d)
        return _emit(args, "pell fundamental", {"d": args.d}, {"a": s.a, "b": s.b})
    if args.pell_cmd == "min":
        eq = pell.PellEquation(args.e1, args.d, args.t)
        s = pell.min_positive_solution(eq)
        res = None if s is None else {"a": s.a, "b": s.b}
        return _emit(args, "pell min", {"e1": args.e1, "d": args.d, "t": args.t}, res)
    if args.pell_cmd == "classes":
        cls = pell.solution_classes(args.d, args.t)
        res = [{"a": c.representative.a, "b": c.representative.b,
                "conjugate_of": c.conjugate_of} for c in cls]
        return _emit(args, "pell classes", {"d": args.d, "t": args.t}, res)
    if args.pell_cmd == "stream":
        sols = pell.solutions_in_order(args.d, args.t, args.count)
        res = [{"a": s.a, "b": s.b} for s in sols]
        return _emit(args, "pell stream",
                     {"d": args.d, "t": args.t, "count": args.count}, res)
    raise AssertionError
