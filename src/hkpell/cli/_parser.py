"""The argparse parser of every command: the fallback of the launch core.

It is loaded, and argparse imported, only for help, for a usage error and
for every spelling argparse accepts that the core's argv reader leaves to it
(--d=5, abbreviations, +5, repeated options).
"""

import argparse

from . import _COMMANDS, _FORMATS, _SERIES, _dest, _option


def _add_leaf(parser: argparse.ArgumentParser, command: str, leaf: tuple) -> None:
    """The arguments of a leaf's spec; dispatch finds the leaf in the parse."""
    parser.set_defaults(command=command, leaf=leaf)
    for arg in leaf[1].split():
        if arg == "table_id":
            parser.add_argument(arg)
        elif arg == "series":
            parser.add_argument("--series", choices=_SERIES, default=_SERIES[0])
        else:
            name, required, default = _option(arg)
            parser.add_argument(f"--{name}", type=int, required=required, default=default)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command and subcommand."""
    parser = argparse.ArgumentParser(
        prog="hkpell",
        description="Exact Pell-equation invariants of polarized hyperkahler "
                    "manifolds of K3^[m]-type: cone slopes and walls, "
                    "automorphism groups, Heegner divisors, period-map images.")
    parser.add_argument("--format", choices=_FORMATS, default="json")
    commands = parser.add_subparsers(dest="cmd", required=True)
    for name, (help_text, leaves) in _COMMANDS.items():
        p = commands.add_parser(name, help=help_text)
        if isinstance(leaves, dict):
            subcommands = p.add_subparsers(dest=f"{name}_cmd", required=True)
            for sub_name, leaf in leaves.items():
                _add_leaf(subcommands.add_parser(sub_name), f"{name} {sub_name}", leaf)
        else:
            _add_leaf(p, name, leaves)
    # the usage that Python 3.10-3.12 print for the full parser at 80
    # columns, pinned so that it reads the same on 3.13, which wraps it
    # elsewhere, and at any width.
    # Set only now: add_subparsers derives each command's prog from it
    indent = "\n" + " " * len("usage: hkpell ")
    parser.usage = ("%(prog)s [-h] [--format {json,csv,text}]"
                    + indent + "{" + ",".join(_COMMANDS) + "}" + indent + "...")
    return parser


def _parse(argv) -> tuple:
    """What the core's _read gives, for any argv, read by the parser, which
    exits 0 after help and 2 on a usage error."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format == "csv" and len(args.leaf) == 2:
        parser.error("csv output is only available for table commands")
    params = {name: getattr(args, name) for name in map(_dest, args.leaf[1].split())}
    return args.format, args.command, args.leaf, params
