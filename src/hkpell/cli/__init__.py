"""Command-line front end.

Every command prints a deterministic envelope: command name, parameters,
result payload, and the identifiers of any built-in reference table the
invocation reproduces.  Rationals render as "p/q", irrational slopes as
"sqrt(p/q)", groups as one of 1, Z/2, Z, Z x| Z/2, ?.

Exit codes: 0 on success, 1 on a domain error (the error type is printed)
or when stdout cannot take the output, 2 on a usage error.

A launch (`python -m hkpell.cli`, the hkpell script) ends in launch() alone,
which handles a failed stdout; in-process callers call main(argv), which
returns the code and, like print, raises a failed stdout write.

Each command or subcommand names the function that returns its result
from its options, the dict the envelope prints as params; a table command
names the builder of its csv rows too.  _run alone reads argv, builds
params, rejects csv where no builder is named, and prints.

A well-formed argv (--format F, the command and subcommand, each option once
as --name value with a plain integer or series value) is read straight from
the command specs.  A launch of one loads this core, arith (for the domain
errors), the one handler module hkpell.cli.<layer> of its command and the
layers that module calls, and nothing else of the package; its output is
written by _dumps, which loads json only for a string that needs an escape,
and argparse is not imported.  The parser of every command lives in
hkpell.cli._parser, loaded, and argparse imported, only for help, for a
usage error and for every other spelling argparse accepts (--d=5,
abbreviations, +5, repeated options).  This core holds what every
invocation needs.
"""

import importlib
import os
import sys

from ..arith import DomainError

# rrinv.HILB_K3 and rrinv.KUMMER, spelled out so that reading argv loads no
# layer
_SERIES = ("HilbK3", "Kummer")
_FORMATS = ("json", "csv", "text")


def _csv_text(rows: list[list[str]]) -> str:
    import csv
    import io

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# JSON

_CONSTANTS = {None: "null", True: "true", False: "false"}


def _string(s: str) -> str:
    """s as json.dumps writes a str; json is loaded only for a string that
    needs an escape."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    import json

    return json.dumps(s)


def _dumps(obj, indent: int | None = None) -> str:
    """json.dumps(obj, sort_keys=True, indent=indent), byte for byte, for
    what handlers return: dicts with str keys, lists, tuples, str, bool, int
    and None.  Any other type, float included, raises TypeError."""
    out: list[str] = []
    _write(obj, out, None if indent is None else "\n", " " * (indent or 0))
    return "".join(out)


def _write(obj, out: list[str], newline: str | None, step: str) -> None:
    """Append the JSON of obj to out.  newline is "\n" and the indent of
    obj's line, or None for one line; step is one level of indent."""
    if isinstance(obj, str):
        out.append(_string(obj))
    elif obj is None or obj is True or obj is False:
        out.append(_CONSTANTS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (dict, list, tuple)):
        opening, closing = "{}" if isinstance(obj, dict) else "[]"
        if not obj:
            out.append(opening + closing)
            return
        inner = None if newline is None else newline + step
        separator = ", " if inner is None else "," + inner
        out.append(opening + (inner or ""))
        if isinstance(obj, dict):
            for i, key in enumerate(sorted(obj)):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                out.append(f"{separator if i else ''}{_string(key)}: ")
                _write(obj[key], out, inner, step)
        else:
            for i, item in enumerate(obj):
                if i:
                    out.append(separator)
                _write(item, out, inner, step)
        out.append((newline or "") + closing)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# reference tables


# table id: (builder, command, params).  The builder, named as for _load, is
# the function the command calls; it gives the table from params, as csv
# rows or as a dict printed as JSON with params merged in.  The command run
# with params reproduces the table, so its envelope names it (command None:
# no single command does)
_TABLES = {
    "s2-cones": ("cones.s2_rows", "cone s2", {"e_from": 1, "e_to": 13}),
    "s2-walls": ("cones.s2_walls_rows", None, {}),
    "aut-n3": ("autgroups.table_rows", "aut table", {"n": 3, "emax": 11}),
    "period-image-m4": ("periods.period_image", "period-image", {"m": 4, "n": 1, "gamma": 2}),
    "period-image-m8": ("periods.period_image", "period-image", {"m": 8, "n": 1, "gamma": 2}),
    "period-image-m12": ("periods.period_image", "period-image",
                         {"m": 12, "n": 1, "gamma": 2}),
}


class UnknownTable(Exception):
    pass


class UsageError(Exception):
    """An argument combination the parser cannot reject by itself; exits 2."""


def reproduce_table(table_id: str) -> str:
    """The exact text of a built-in reference table."""
    if table_id not in _TABLES:
        raise UnknownTable(f"unknown table id {table_id!r}; known: {sorted(_TABLES)}")
    build, _, params = _TABLES[table_id]
    table = _load(build)(dict(params))
    if isinstance(table, dict):
        return _dumps({**params, **table}, 2) + "\n"
    return _csv_text(table)


def _reproduce(params: dict) -> str:
    return reproduce_table(params["table_id"])


def _load(name: str):
    """The function "<module>.<function>" names in hkpell.cli.<module>."""
    module, function = name.split(".")
    return getattr(importlib.import_module(f"{__name__}.{module}"), function)


# ---------------------------------------------------------------------------
# commands and the argv reader

# command: (help, leaf), or (help, {subcommand: leaf}).  A leaf is (handler,
# spec), or (handler, spec, csv rows builder) for a table command; functions
# are of this module or named as for _load, which loads them on dispatch.
# A spec lists arguments in order: "d" is a required integer option --d,
# "count=5" one with default 5 and "e?" one without default; "series" is
# --series, "table_id" is the positional table id.
_COMMANDS = {
    "pell": ("Pell-type equation solvers",
             {"fundamental": ("pell.fundamental", "d"),
              "min": ("pell.min_solution", "d t e1=1"),
              "classes": ("pell.classes", "d t"),
              "stream": ("pell.stream", "d t count=5")}),
    "cone": ("nef/movable cone slopes and walls",
             {"s2": ("cones.s2", "e? e-from? e-to?", "cones.s2_rows"),
              "sm": ("cones.sm", "e m"),
              "fourfold": ("cones.fourfold", "n e-prime prefix=8")}),
    "chi": ("Euler characteristic of a line bundle", ("rrinv.chi", "series m q")),
    "fujiki": ("Fujiki constant of a series", ("rrinv.fujiki", "series m")),
    "lattice": ("discriminant groups and orbit data",
                {"disc": ("lattice.disc", "m n gamma"), "dual": ("lattice.dual", "m n gamma"),
                 "orbit": ("lattice.orbit", "m n gamma square div")}),
    "aut": ("automorphism-group decision procedures",
            {"s2": ("autgroups.s2", "e"), "sm": ("autgroups.sm", "e m"),
             "fourfold": ("autgroups.fourfold", "n e-prime"),
             "table": ("autgroups.table", "n=3 emax=11", "autgroups.table_rows"),
             "search": ("autgroups.search", "emax")}),
    "heegner": ("Heegner-divisor nonemptiness and components",
                {"nonempty": ("periods.heegner_nonempty", "n gamma e"),
                 "components": ("periods.heegner_components", "n gamma e")}),
    "period-image": ("excluded Heegner components", ("periods.period_image", "m n gamma")),
    "oracle": ("brute-force coordinate enumeration", ("periods.oracle", "m n gamma bound=12")),
    "nl-family": ("Hilbert-square Noether-Lefschetz degrees",
                  ("periods.nl_family", "n gamma a-max")),
    "hilb-square": ("Hilbert-square points of moduli loci",
                    ("periods.hilb_square", "n e gamma=2")),
    "reproduce": ("print a built-in reference table", (_reproduce, "table_id", _reproduce)),
}


def _option(arg: str) -> tuple[str, bool, int | None]:
    """(name, required, default) of a spec argument: "count=5" -> ("count",
    False, 5), "e?" -> ("e", False, None), "d" -> ("d", True, None)."""
    name, has_default, default = arg.rstrip("?").partition("=")
    return name, not (has_default or arg.endswith("?")), int(default) if has_default else None


def _dest(arg: str) -> str:
    """The option name of a spec argument, as in params: "e-prime=8" -> "e_prime"."""
    return _option(arg)[0].replace("-", "_")


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


def launch() -> None:
    """Run main on the process's argv, flush stdout and stderr, and end the
    process with main's code by os._exit, which skips finalization.  Here
    alone a stdout that cannot take the output, in main's write or the
    flush, exits 1 without a traceback: quietly once the reader is gone,
    else with one JSON error line on stderr, as a domain error has."""
    try:
        try:
            code = main()
        except SystemExit as exc:  # a usage error or --help, from argparse
            code = exc.code
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the fd was closed at start
                stream.flush()
    except BrokenPipeError:  # the reader is gone and wants nothing more
        code = 1
    except (AttributeError, OSError) as exc:
        if sys.stdout is None:  # fd 1 closed at start: _run wrote to None
            exc = OSError("stdout is closed")
        elif isinstance(exc, AttributeError):
            raise  # a fault of the program, not of stdout
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(_dumps(payload), file=sys.stderr, flush=True)
        code = 1
    os._exit(code)


def _read(argv) -> tuple | None:
    """(format, command, leaf, params) of a well-formed argv, read from the
    command specs as the parser reads it: an optional --format F, the command
    and its subcommand, then each of the leaf's options at most once as the
    two words --name value, each value ASCII digits after an optional "-" or
    a series name, and every required option given; reproduce takes its
    table id alone, which starts with no "-".  None for any other argv, and
    for csv where no csv rows builder is named: the parser reads those."""
    fmt, i = (argv[1], 2) if len(argv) > 1 and argv[0] == "--format" else ("json", 0)
    if fmt not in _FORMATS or i >= len(argv) or argv[i] not in _COMMANDS:
        return None
    command, leaf = argv[i], _COMMANDS[argv[i]][1]
    if isinstance(leaf, dict):
        i += 1
        if i >= len(argv) or argv[i] not in leaf:
            return None
        command, leaf = f"{command} {argv[i]}", leaf[argv[i]]
    if fmt == "csv" and len(leaf) == 2:
        return None
    words = argv[i + 1:]
    if leaf[1] == "table_id":
        if len(words) != 1 or words[0].startswith("-"):
            return None
        return fmt, command, leaf, {"table_id": words[0]}
    options = dict(zip(words[::2], words[1::2]))
    if len(words) != 2 * len(options):  # a word left over, or a repeated option
        return None
    params = {}
    for arg in leaf[1].split():
        name, required, default = _option(arg)
        value = options.pop(f"--{name}", None)
        if arg == "series":
            value = _SERIES[0] if value is None else value
            if value not in _SERIES:
                return None
        elif value is None:
            if required:
                return None
            value = default
        else:
            digits = value[1:] if value.startswith("-") else value
            if not (digits.isascii() and digits.isdigit()):
                return None
            value = int(value)
        params[_dest(arg)] = value
    return None if options else (fmt, command, leaf, params)


def _run(argv) -> int:
    read = _read(argv)
    if read is None:
        from ._parser import _parse

        read = _parse(argv)
    fmt, command, leaf, params = read
    handler, _, *csv_rows = leaf
    if fmt == "csv":
        handler = csv_rows[0]
    try:
        result = (handler if callable(handler) else _load(handler))(params)
    except UsageError as exc:
        from ._parser import build_parser

        build_parser().error(str(exc))
    except (DomainError, UnknownTable, ValueError) as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(_dumps(payload), file=sys.stderr)
        return 1
    if isinstance(result, str):
        text = result
    elif fmt == "csv":
        text = _csv_text(result)
    else:
        # table:<id> for each reference table this command with params reproduces
        provenance = sorted(f"table:{table_id}" for table_id, (_, table_command, table_params)
                            in _TABLES.items()
                            if (table_command, table_params) == (command, params))
        envelope = {"command": command, "params": params, "result": result,
                    "provenance": provenance}
        text = _dumps(envelope if fmt == "json" else result, 2) + "\n"
    sys.stdout.write(text)
    return 0
