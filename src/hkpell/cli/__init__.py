"""Command-line front end.

Every command prints a deterministic envelope: command name, parameters,
result payload, and the identifiers of any built-in reference table the
invocation reproduces.  Rationals render as "p/q", irrational slopes as
"sqrt(p/q)", groups as one of 1, Z/2, (Z/2)^2, Z, Z x| Z/2, ?.

Exit codes: 0 on success, 1 on a domain error (the error type is printed),
2 on a usage error.

One invocation builds the parser of its command alone and imports only the
module that holds its handler: hkpell.cli.<layer>, one per layer the
handlers call, which loads that layer.  This core holds what every
invocation needs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from ..arith import DomainError

# rrinv.HILB_K3 and rrinv.KUMMER, spelled out so that building the parser
# loads no layer
_SERIES = ("HilbK3", "Kummer")


def _frac(q) -> str:
    """A Fraction or an int as "p/q"."""
    return f"{q.numerator}/{q.denominator}"


def _emit(args, command: str, params: dict, result) -> int:
    envelope = {
        "command": command,
        "params": params,
        "result": result,
        "provenance": _provenance(command, params),
    }
    # --format csv never gets here: _run rejects it outside _CSV_COMMANDS, and
    # those print their tables themselves
    print(json.dumps(envelope if args.format == "json" else result, sort_keys=True, indent=2))
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


# table id: (format, builder, command, params).  The builder, named as for
# _load, gives the table from **params; the command run with the same params
# reproduces it, so its envelope names the table (command None: no single
# command does)
_TABLES = {
    "s2-cones": ("csv", "cones._s2_cone_rows", "cone s2", {"e_from": 1, "e_to": 13}),
    "s2-walls": ("csv", "cones._table_s2_walls", None, {}),
    "aut-n3": ("csv", "autgroups._aut_rows", "aut table", {"n": 3, "emax": 11}),
    "period-image-m4": ("json", "periods._period_image_payload", "period-image",
                        {"m": 4, "n": 1, "gamma": 2}),
    "period-image-m8": ("json", "periods._period_image_payload", "period-image",
                        {"m": 8, "n": 1, "gamma": 2}),
    "period-image-m12": ("json", "periods._period_image_payload", "period-image",
                         {"m": 12, "n": 1, "gamma": 2}),
}


# the commands that print a table under --format csv; _run rejects the
# option for any other before running it
_CSV_COMMANDS = ("cone s2", "aut table", "reproduce")


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
    payload = _load(build)(**params)
    if kind == "csv":
        return _csv_text(payload)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _load(name: str):
    """The function "<module>.<function>" names in hkpell.cli.<module>."""
    module, function = name.split(".")
    return getattr(importlib.import_module(f"{__name__}.{module}"), function)


def _cmd_reproduce(args) -> int:
    sys.stdout.write(reproduce_table(args.table_id))
    return 0


# ---------------------------------------------------------------------------
# parser

# command: (help, handler, arguments).  The handler is a function of this
# module or one named as for _load, which is loaded on dispatch.  The
# arguments are one spec, or for a command with subcommands one spec per
# subcommand.  A spec lists arguments in order: "d" is a required integer
# option --d, "count=5" one with default 5 and "e?" one without default;
# "series" is --series, "table_id" is the positional table id.
_COMMANDS = {
    "pell": ("Pell-type equation solvers", "pell._cmd_pell",
             {"fundamental": "d", "min": "d t e1=1", "classes": "d t",
              "stream": "d t count=5"}),
    "cone": ("nef/movable cone slopes and walls", "cones._cmd_cone",
             {"s2": "e? e-from? e-to?", "sm": "e m", "walls": "e m",
              "fourfold": "n e-prime prefix=8"}),
    "chi": ("Euler characteristic of a line bundle", "rrinv._cmd_chi", "series m q"),
    "fujiki": ("Fujiki constant of a series", "rrinv._cmd_fujiki", "series m"),
    "lattice": ("discriminant groups and orbit data", "lattice._cmd_lattice",
                {"disc": "m n gamma", "dual": "m n gamma",
                 "orbit": "m n gamma square div"}),
    "aut": ("automorphism-group decision procedures", "autgroups._cmd_aut",
            {"s2": "e", "sm": "e m", "fourfold": "n e-prime",
             "table": "n=3 emax=11", "search": "emax"}),
    "heegner": ("Heegner-divisor nonemptiness and components", "periods._cmd_heegner",
                {"nonempty": "n gamma e", "components": "n gamma e"}),
    "period-image": ("excluded Heegner components", "periods._cmd_period_image", "m n gamma"),
    "oracle": ("brute-force coordinate enumeration", "periods._cmd_oracle",
               "m n gamma bound=12"),
    "nl-family": ("Hilbert-square Noether-Lefschetz degrees", "periods._cmd_nl_family",
                  "n gamma a-max"),
    "hilb-square": ("Hilbert-square points of moduli loci", "periods._cmd_hilb_square",
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
    command = " ".join(filter(None, (args.cmd, getattr(args, f"{args.cmd}_cmd", None))))
    if args.format == "csv" and command not in _CSV_COMMANDS:
        parser.error("csv output is only available for table commands")
    handler = args.func if callable(args.func) else _load(args.func)
    try:
        return handler(args)
    except UsageError as exc:
        parser.error(str(exc))
    except _DOMAIN_ERRORS as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1
