"""The aut command and the aut-n3 table."""

from __future__ import annotations

from .. import autgroups
from . import _emit, _emit_csv


def _aut_rows(n: int, emax: int) -> list[list[str]]:
    rows = [["e_prime", "aut", "bir"]]
    for ep in range(2, emax + 1):
        a, b = autgroups.fourfold_groups(n, ep)
        rows.append([str(ep), str(a), str(b)])
    return rows


def _cmd_aut(args) -> int:
    if args.aut_cmd in ("table", "search") and args.emax < 2:
        # degrees e' start at 2: a smaller bound leaves nothing to tabulate
        raise ValueError(f"aut {args.aut_cmd} needs emax >= 2, got emax={args.emax}")
    if args.aut_cmd == "s2":
        a, b = autgroups.bir_s2(args.e)
        return _emit(args, "aut s2", {"e": args.e}, {"aut": str(a), "bir": str(b)})
    if args.aut_cmd == "sm":
        g = autgroups.bir_sm(args.e, args.m)
        return _emit(args, "aut sm", {"e": args.e, "m": args.m}, {"bir": str(g)})
    if args.aut_cmd == "fourfold":
        a, b = autgroups.fourfold_groups(args.n, args.e_prime)
        return _emit(args, "aut fourfold", {"n": args.n, "e_prime": args.e_prime},
                     {"aut": str(a), "bir": str(b)})
    if args.aut_cmd == "table":
        rows = _aut_rows(args.n, args.emax)
        if args.format == "csv":
            return _emit_csv(rows)
        res = [{"e_prime": int(ep), "aut": a, "bir": b} for ep, a, b in rows[1:]]
        return _emit(args, "aut table", {"n": args.n, "emax": args.emax}, res)
    hits = [e for e in range(2, args.emax + 1)
            if e % 5 and autgroups.bir_s2(e) == (autgroups.TRIVIAL, autgroups.Z2)]
    return _emit(args, "aut search", {"emax": args.emax}, {"e": hits})
