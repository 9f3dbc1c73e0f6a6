"""Command-line front end.

Every command prints a deterministic envelope: command name, parameters,
result payload, and the identifiers of any built-in reference table the
invocation reproduces.  Rationals render as "p/q", irrational slopes as
"sqrt(p/q)", groups as one of 1, Z/2, (Z/2)^2, Z, Z x| Z/2, ?.

Exit codes: 0 on success, 1 on a domain error (the error type is printed),
2 on a usage error.

One invocation builds the parser of its command alone, and each handler
imports the layers it calls, so the invocation loads only those.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arith import DomainError

# rrinv.HILB_K3 and rrinv.KUMMER, spelled out so that building the parser
# loads no layer
_SERIES = ("HilbK3", "Kummer")


def _frac(q) -> str:
    """A Fraction or an int as "p/q"."""
    return f"{q.numerator}/{q.denominator}"


def _sol(s) -> str:
    return "-" if s is None else f"({s.a},{s.b})"


def _slope(s) -> str:
    return str(s)


def _key_payload(k) -> dict:
    return {"d": k.d, "kappa2": k.kappa_prim_sq, "div": k.s, "star": list(k.star)}


def _emit(args, command: str, params: dict, result) -> int:
    envelope = {
        "command": command,
        "params": params,
        "result": result,
        "provenance": _provenance(command, params),
    }
    if args.format == "json":
        print(json.dumps(envelope, sort_keys=True, indent=2))
    elif args.format == "text":
        print(json.dumps(result, sort_keys=True, indent=2))
    else:
        raise UsageError("csv output is only available for table commands")
    return 0


def _csv_text(rows: list[list[str]]) -> str:
    import csv
    import io

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _emit_csv(rows: list[list[str]]) -> int:
    sys.stdout.write(_csv_text(rows))
    return 0


# ---------------------------------------------------------------------------
# reference tables


def _s2_cone_rows(e_from: int, e_to: int) -> list[list[str]]:
    from . import cones, pell

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
    from . import cones, pell

    rows = [["e", "pell_1", "mov", "walls"]]
    for e in (5, 11, 19, 29, 31, 41, 55, 71):
        p1 = pell.min_positive_solution(pell.PellEquation.classical(e, 1))
        rep = cones.walls_s2(e)
        rows.append([str(e), _sol(p1), _slope(rep.mov_slope),
                     ";".join(_frac(w) for w in rep.interior_walls)])
    return rows


def _aut_rows(n: int, emax: int) -> list[list[str]]:
    from . import autgroups

    rows = [["e_prime", "aut", "bir"]]
    for ep in range(2, emax + 1):
        a, b = autgroups.fourfold_groups(n, ep)
        rows.append([str(ep), str(a), str(b)])
    return rows


def _period_image_result(m: int, n: int, gamma: int) -> dict:
    """The excluded components; for m = 2 also those of unsettled multiplicity."""
    from . import periods

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


# table id: (format, builder, command, params).  builder(**params) gives the
# table; the command run with the same params reproduces it, so its envelope
# names the table (command None: no single command does)
_TABLES = {
    "s2-cones": ("csv", _s2_cone_rows, "cone s2", {"e_from": 1, "e_to": 13}),
    "s2-walls": ("csv", _table_s2_walls, None, {}),
    "aut-n3": ("csv", _aut_rows, "aut table", {"n": 3, "emax": 11}),
    "period-image-m4": ("json", _period_image_payload, "period-image",
                        {"m": 4, "n": 1, "gamma": 2}),
    "period-image-m8": ("json", _period_image_payload, "period-image",
                        {"m": 8, "n": 1, "gamma": 2}),
    "period-image-m12": ("json", _period_image_payload, "period-image",
                         {"m": 12, "n": 1, "gamma": 2}),
}


def _provenance(command: str, params: dict) -> list[str]:
    """table:<id> for each reference table that command with params reproduces."""
    return sorted(f"table:{table_id}" for table_id, (_, _, table_command, table_params)
                  in _TABLES.items() if (table_command, table_params) == (command, params))


class UnknownTable(Exception):
    pass


class UsageError(Exception):
    """An argument combination the parser cannot reject by itself; exits 2."""


def reproduce_table(table_id: str) -> str:
    """The exact text of a built-in reference table."""
    if table_id not in _TABLES:
        raise UnknownTable(f"unknown table id {table_id!r}; known: {sorted(_TABLES)}")
    kind, build, _, params = _TABLES[table_id]
    payload = build(**params)
    if kind == "csv":
        return _csv_text(payload)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_pell(args) -> int:
    from . import pell

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


def _cone_s2_row(e: int) -> dict:
    from . import cones

    rep = cones.walls_s2(e)
    return {
        "e": e,
        "mov": _slope(rep.mov_slope),
        "nef": _slope(rep.nef_slope),
        "walls": [_frac(w) for w in rep.interior_walls],
        "nef_equals_mov": rep.nef_equals_mov,
    }


def _cmd_cone(args) -> int:
    from . import cones

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
    if args.cone_cmd == "fourfold":
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
    raise AssertionError


def _cmd_chi(args) -> int:
    from . import rrinv

    value = rrinv.chi(rrinv.RiemannRochInput(args.series, args.m, args.q))
    return _emit(args, "chi", {"series": args.series, "m": args.m, "q": args.q},
                 {"chi": value})


def _cmd_fujiki(args) -> int:
    from . import rrinv

    c = rrinv.fujiki_constant(args.series, args.m)
    return _emit(args, "fujiki", {"series": args.series, "m": args.m},
                 {"constant": _frac(c)})


def _cmd_lattice(args) -> int:
    from . import lattice

    if args.lattice_cmd == "disc":
        dg = lattice.disc_group(args.m, args.n, args.gamma)
        res = {
            "orders": list(dg.orders),
            "q": [_frac(q) for q in dg.gen_q],
            "invariant_factors": list(dg.invariant_factors),
            "order": dg.order,
        }
        return _emit(args, "lattice disc",
                     {"m": args.m, "n": args.n, "gamma": args.gamma}, res)
    if args.lattice_cmd == "orbit":
        spec = lattice.polarized_orthogonal(args.m, args.n, args.gamma)
        key = lattice.OrbitKey(args.square, args.div)
        res = {"exists": lattice.exists_primitive_vector(spec, key)}
        return _emit(args, "lattice orbit",
                     {"m": args.m, "n": args.n, "gamma": args.gamma,
                      "square": args.square, "div": args.div}, res)
    if args.lattice_cmd == "dual":
        m2, n2, g2 = lattice.strange_dual_params(args.m, args.n, args.gamma)
        return _emit(args, "lattice dual",
                     {"m": args.m, "n": args.n, "gamma": args.gamma},
                     {"m": m2, "n": n2, "gamma": g2})
    raise AssertionError


def _cmd_aut(args) -> int:
    from . import autgroups

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
    if args.aut_cmd == "search":
        hits = [e for e in range(2, args.emax + 1)
                if e % 5 and autgroups.bir_s2(e) == (autgroups.TRIVIAL, autgroups.Z2)]
        return _emit(args, "aut search", {"emax": args.emax}, {"e": hits})
    raise AssertionError


def _cmd_heegner(args) -> int:
    from . import periods

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
    from . import periods

    quads = periods.coordinate_oracle(args.m, args.n, args.gamma, args.bound)
    res = [
        {"kappa2": k2, "div": s, "star": list(star), "ambient_div": amb}
        for (k2, s, star, amb) in sorted(quads)
    ]
    return _emit(args, "oracle",
                 {"m": args.m, "n": args.n, "gamma": args.gamma, "bound": args.bound},
                 res)


def _cmd_nl_family(args) -> int:
    from . import periods

    es = periods.nl_family(args.n, args.gamma, args.a_max)
    return _emit(args, "nl-family",
                 {"n": args.n, "gamma": args.gamma, "a_max": args.a_max},
                 {"e": list(es)})


def _cmd_hilb_square(args) -> int:
    from . import periods

    points = periods.hilbert_square_points(args.n, args.e)
    chosen = periods.hilbert_square_point(args.n, args.e, args.gamma)
    res = {
        "point": None if chosen is None else {"a": chosen[0], "b": chosen[1],
                                              "gamma": chosen[2]},
        "all": [{"a": a, "b": b, "gamma": g} for a, b, g in points],
    }
    return _emit(args, "hilb-square",
                 {"n": args.n, "e": args.e, "gamma": args.gamma}, res)


def _cmd_reproduce(args) -> int:
    sys.stdout.write(reproduce_table(args.table_id))
    return 0


# ---------------------------------------------------------------------------
# parser

# command: (help, handler, arguments).  The arguments are one spec, or for a
# command with subcommands one spec per subcommand.  A spec lists arguments
# in order: "d" is a required integer option --d, "count=5" one with default
# 5 and "e?" one without default; "series" is --series, "table_id" is the
# positional table id.
_COMMANDS = {
    "pell": ("Pell-type equation solvers", _cmd_pell,
             {"fundamental": "d", "min": "d t e1=1", "classes": "d t",
              "stream": "d t count=5"}),
    "cone": ("nef/movable cone slopes and walls", _cmd_cone,
             {"s2": "e? e-from? e-to?", "sm": "e m", "walls": "e m",
              "fourfold": "n e-prime prefix=8"}),
    "chi": ("Euler characteristic of a line bundle", _cmd_chi, "series m q"),
    "fujiki": ("Fujiki constant of a series", _cmd_fujiki, "series m"),
    "lattice": ("discriminant groups and orbit data", _cmd_lattice,
                {"disc": "m n gamma", "dual": "m n gamma",
                 "orbit": "m n gamma square div"}),
    "aut": ("automorphism-group decision procedures", _cmd_aut,
            {"s2": "e", "sm": "e m", "fourfold": "n e-prime",
             "table": "n=3 emax=11", "search": "emax"}),
    "heegner": ("Heegner-divisor nonemptiness and components", _cmd_heegner,
                {"nonempty": "n gamma e", "components": "n gamma e"}),
    "period-image": ("excluded Heegner components", _cmd_period_image, "m n gamma"),
    "oracle": ("brute-force coordinate enumeration", _cmd_oracle,
               "m n gamma bound=12"),
    "nl-family": ("Hilbert-square Noether-Lefschetz degrees", _cmd_nl_family,
                  "n gamma a-max"),
    "hilb-square": ("Hilbert-square points of moduli loci", _cmd_hilb_square,
                    "n e gamma=2"),
    "reproduce": ("print a built-in reference table", _cmd_reproduce, "table_id"),
}


def _add_arguments(parser: argparse.ArgumentParser, spec: str) -> None:
    for arg in spec.split():
        if arg == "table_id":
            parser.add_argument(arg)
        elif arg == "series":
            parser.add_argument("--series", choices=_SERIES, default=_SERIES[0])
        else:
            name, has_default, default = arg.rstrip("?").partition("=")
            parser.add_argument(f"--{name}", type=int,
                                required=not (has_default or arg.endswith("?")),
                                default=int(default) if has_default else None)


def _named(argv) -> tuple[str | None, str | None]:
    """The command argv names, if only --format options precede it, and the
    subcommand that follows it; None for a name argv does not give."""
    i = 0
    while i < len(argv) and (argv[i] == "--format" or argv[i].startswith("--format=")):
        i += 1 if "=" in argv[i] else 2
    command = argv[i] if i < len(argv) and argv[i] in _COMMANDS else None
    subcommands = _COMMANDS[command][2] if command else None
    if isinstance(subcommands, dict) and i + 1 < len(argv) and argv[i + 1] in subcommands:
        return command, argv[i + 1]
    return command, None


def _add_subparsers(parser: argparse.ArgumentParser, dest: str, names, named):
    """The subparsers action for `names`, and the names to add to it: only
    `named` when argv names one."""
    # usage lines and errors call a subparsers action by its metavar or,
    # without one, by its dest or the names it holds; the metavar gives a
    # one-name action the usage and errors of the full one
    metavar = "{" + ",".join(names) + "}" if named else None
    action = parser.add_subparsers(dest=dest, required=True, metavar=metavar)
    return action, [named] if named else list(names)


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for argv.  It holds only the command and subcommand that
    argv names, and every one where argv names none (as for --help, a bad
    command or no command); either way it prints the usage, help and errors
    of the full parser."""
    parser = argparse.ArgumentParser(
        prog="hkpell",
        description="Exact Pell-equation invariants of polarized hyperkahler "
                    "manifolds of K3^[m]-type: cone slopes and walls, "
                    "automorphism groups, Heegner divisors, period-map images.")
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    command, subcommand = _named(argv)
    commands, names = _add_subparsers(parser, "cmd", _COMMANDS, command)
    for name in names:
        help_text, handler, spec = _COMMANDS[name]
        p = commands.add_parser(name, help=help_text)
        if isinstance(spec, str):
            _add_arguments(p, spec)
        else:
            subcommands, sub_names = _add_subparsers(p, f"{name}_cmd", spec, subcommand)
            for sub_name in sub_names:
                _add_arguments(subcommands.add_parser(sub_name), spec[sub_name])
        p.set_defaults(func=handler)
    return parser


_DOMAIN_ERRORS = (DomainError, UnknownTable, ValueError)


def main(argv=None) -> int:
    # units run to thousands of digits (d = 10**9 + 7 has one of about 6400),
    # past the default limit on int-to-str conversion; the caller's limit
    # comes back on return
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return _run(sys.argv[1:] if argv is None else argv)
    finally:
        if limited:
            sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except _DOMAIN_ERRORS as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
