import argparse
import io
import json
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hkpell
from hkpell.cli import _SERIES, build_parser, main, reproduce_table

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = str(pathlib.Path(hkpell.__file__).parents[1])


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pell_min_envelope(capsys):
    code, out, _ = run_cli(["pell", "min", "--d", "13", "--t", "1"], capsys)
    assert code == 0
    env = json.loads(out)
    assert env["command"] == "pell min"
    assert env["result"] == {"a": 649, "b": 180}


def test_cone_csv_table(capsys):
    code, out, _ = run_cli(["--format", "csv", "cone", "s2",
                            "--e-from", "1", "--e-to", "13"], capsys)
    assert code == 0
    assert out == (GOLDEN / "s2-cones.csv").read_text()


def test_period_image_payload(capsys):
    code, out, _ = run_cli(["period-image", "--m", "4", "--n", "1", "--gamma", "2"],
                           capsys)
    assert code == 0
    env = json.loads(out)
    assert env["result"]["excluded_d"] == [2, 6, 8]
    assert env["provenance"] == ["table:period-image-m4"]


def test_determinism(capsys):
    code1, out1, _ = run_cli(["aut", "table", "--n", "3", "--emax", "11"], capsys)
    code2, out2, _ = run_cli(["aut", "table", "--n", "3", "--emax", "11"], capsys)
    assert code1 == code2 == 0 and out1 == out2


@pytest.mark.parametrize("table_id,ext", [
    ("s2-cones", "csv"),
    ("s2-walls", "csv"),
    ("aut-n3", "csv"),
    ("period-image-m4", "json"),
    ("period-image-m8", "json"),
    ("period-image-m12", "json"),
])
def test_reproduce_matches_golden(table_id, ext, capsys):
    code, out, _ = run_cli(["reproduce", table_id], capsys)
    assert code == 0
    assert out == (GOLDEN / f"{table_id}.{ext}").read_text()


def test_reproduce_function_matches_golden():
    for path in GOLDEN.iterdir():
        assert reproduce_table(path.stem) == path.read_text()


def test_unknown_table_is_domain_error(capsys):
    code, out, err = run_cli(["reproduce", "no-such-table"], capsys)
    assert code == 1
    assert "UnknownTable" in err


def test_domain_error_exit(capsys):
    code, _, err = run_cli(["pell", "fundamental", "--d", "4"], capsys)
    assert code == 1
    assert "PerfectSquareInput" in err
    code, _, err = run_cli(["cone", "fourfold", "--n", "2", "--e-prime", "5"], capsys)
    assert code == 1
    assert "BadCongruence" in err


def test_usage_error_exit():
    with pytest.raises(SystemExit) as exc:
        main(["pell", "min", "--d", "13"])  # missing --t
    assert exc.value.code == 2


@pytest.mark.parametrize("args,code", [
    (["cone", "s2", "--e-from", "1"], 2),
    (["lattice", "orbit", "--m", "2", "--n", "1", "--gamma", "1",
      "--square", "-2", "--div", "0"], 1),
    (["oracle", "--m", "2", "--n", "1", "--gamma", "1", "--bound", "-1"], 1),
    (["--format", "csv", "pell", "min", "--d", "13", "--t", "1"], 2),
    (["pell", "stream", "--d", "-5", "--t", "1", "--count", "3"], 1),
    (["pell", "classes", "--d", "13", "--t", "0"], 1),
    (["period-image", "--m", "1", "--n", "1", "--gamma", "2"], 1),
    (["lattice", "disc", "--m", "2", "--n", "0", "--gamma", "1"], 1),
    (["lattice", "disc", "--m", "1", "--n", "1", "--gamma", "1"], 1),
    (["lattice", "disc", "--m", "2", "--n", "-1", "--gamma", "1"], 1),
    (["nl-family", "--n", "-5", "--gamma", "1", "--a-max", "2"], 1),
    (["hilb-square", "--n", "3", "--e", "7", "--gamma", "3"], 1),
    (["cone", "s2", "--e-from", "5", "--e-to", "2"], 2),
    (["aut", "table", "--emax", "1"], 1),
    (["aut", "search", "--emax", "1"], 1),
])
def test_out_of_domain_exit_code(args, code):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-m", "hkpell.cli", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


def test_fundamental_prints_unit_past_str_digit_limit():
    # the unit of d = 10**9 + 7 has about 6400 digits, past the default 4300
    d = 1000000007
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-m", "hkpell.cli", "pell", "fundamental", "--d", str(d)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        res = json.loads(proc.stdout)["result"]
    finally:
        if limited:
            sys.set_int_max_str_digits(limit)
    a, b = res["a"], res["b"]
    assert a.bit_length() > 21000 and a * a - d * b * b == 1


def test_main_restores_int_str_digit_limit(capsys):
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit in this interpreter")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)  # whatever an earlier main call left
    try:
        assert run_cli(["chi", "--m", "2", "--q", "6"], capsys)[0] == 0
        assert sys.get_int_max_str_digits() == 5000
        with pytest.raises(SystemExit):
            main(["pell", "min", "--d", "13"])  # a usage error leaves it too
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)


def test_more_commands(capsys):
    code, out, _ = run_cli(["chi", "--m", "2", "--q", "6"], capsys)
    assert code == 0 and json.loads(out)["result"]["chi"] == 15

    code, out, _ = run_cli(["fujiki", "--series", "Kummer", "--m", "2"], capsys)
    assert code == 0 and json.loads(out)["result"]["constant"] == "9/1"

    code, out, _ = run_cli(["lattice", "disc", "--m", "2", "--n", "3",
                            "--gamma", "2"], capsys)
    assert code == 0 and json.loads(out)["result"]["orders"] == [3]

    code, out, _ = run_cli(["lattice", "dual", "--m", "2", "--n", "3",
                            "--gamma", "2"], capsys)
    assert code == 0 and json.loads(out)["result"] == {"m": 4, "n": 1, "gamma": 2}

    code, out, _ = run_cli(["lattice", "orbit", "--m", "2", "--n", "1",
                            "--gamma", "1", "--square", "-2", "--div", "2"], capsys)
    assert code == 0 and json.loads(out)["result"]["exists"] is True

    code, out, _ = run_cli(["heegner", "nonempty", "--n", "3", "--gamma", "2",
                            "--e", "1"], capsys)
    assert code == 0 and json.loads(out)["result"]["nonempty"] is True

    code, out, _ = run_cli(["heegner", "components", "--n", "1", "--gamma", "1",
                            "--e", "1"], capsys)
    assert code == 0 and json.loads(out)["result"]["count"] == 2

    code, out, _ = run_cli(["hilb-square", "--n", "3", "--e", "7"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["point"] == {"a": 5, "b": 2, "gamma": 2}

    code, out, _ = run_cli(["nl-family", "--n", "3", "--gamma", "2",
                            "--a-max", "3"], capsys)
    assert code == 0 and json.loads(out)["result"]["e"] == [1, 7, 13]

    code, out, _ = run_cli(["cone", "fourfold", "--n", "3", "--e-prime", "2",
                            "--prefix", "3"], capsys)
    env = json.loads(out)
    assert env["result"]["mov"] == "sqrt(3/2)"
    assert env["result"]["nef"] == "3/4"
    assert env["result"]["walls_infinite"] is True

    code, out, _ = run_cli(["aut", "search", "--emax", "30"], capsys)
    assert code == 0
    hits = json.loads(out)["result"]["e"]
    assert 29 in hits  # e = 29: both equations solvable, 5 does not divide e

    code, out, _ = run_cli(["oracle", "--m", "2", "--n", "3", "--gamma", "2",
                            "--bound", "3"], capsys)
    assert code == 0 and json.loads(out)["result"]


_FRESH = """
import io, sys
from contextlib import redirect_stdout
import hkpell.cli

def loaded(*names):
    return {m for m in names if m in sys.modules}

def run(*argv):
    with redirect_stdout(io.StringIO()):
        assert hkpell.cli.main(list(argv)) == 0, argv
"""


def _in_fresh_interpreter(code):
    # no other test has loaded a module there yet
    proc = subprocess.run([sys.executable, "-c", _FRESH + code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr


def test_layers_load_on_first_use():
    _in_fresh_interpreter("""
layers = ("hkpell.lattice", "hkpell.periods")
assert not loaded("fractions", "csv", *layers), loaded("fractions", "csv", *layers)
run("pell", "fundamental", "--d", "13")
run("aut", "s2", "--e", "7")
assert not loaded("fractions", *layers), loaded("fractions", *layers)
run("chi", "--m", "2", "--q", "6")
assert not loaded("fractions", *layers), loaded("fractions", *layers)
assert hkpell.periods is sys.modules["hkpell.periods"]
try:
    hkpell.nope
except AttributeError:
    pass
else:
    raise SystemExit("hkpell.nope did not raise AttributeError")
""")
    _in_fresh_interpreter("""
run("period-image", "--m", "4", "--n", "1", "--gamma", "2")
assert not loaded("hkpell.cones", "hkpell.pell"), loaded("hkpell.cones", "hkpell.pell")
run("hilb-square", "--n", "3", "--e", "7")
assert loaded("hkpell.cones", "hkpell.pell") == {"hkpell.cones", "hkpell.pell"}
""")


# one in-domain invocation of every command and subcommand
_EVERY_COMMAND = {
    ("pell", "fundamental"): "--d 13",
    ("pell", "min"): "--d 13 --t -4",
    ("pell", "classes"): "--d 13 --t 12",
    ("pell", "stream"): "--d 7 --t 1",
    ("cone", "s2"): "--e 5",
    ("cone", "sm"): "--e 5 --m 3",
    ("cone", "walls"): "--e 5 --m 4",
    ("cone", "fourfold"): "--n 3 --e-prime 2",
    ("chi",): "--m 2 --q 6",
    ("fujiki",): "--series Kummer --m 2",
    ("lattice", "disc"): "--m 4 --n 1 --gamma 2",
    ("lattice", "dual"): "--m 2 --n 3 --gamma 2",
    ("lattice", "orbit"): "--m 2 --n 1 --gamma 1 --square -2 --div 2",
    ("aut", "s2"): "--e 7",
    ("aut", "sm"): "--e 7 --m 3",
    ("aut", "fourfold"): "--n 3 --e-prime 5",
    ("aut", "table"): "--emax 6",
    ("aut", "search"): "--emax 30",
    ("heegner", "nonempty"): "--n 3 --gamma 2 --e 1",
    ("heegner", "components"): "--n 1 --gamma 1 --e 1",
    ("period-image",): "--m 4 --n 1 --gamma 2",
    ("oracle",): "--m 2 --n 3 --gamma 2 --bound 3",
    ("nl-family",): "--n 3 --gamma 2 --a-max 3",
    ("hilb-square",): "--n 3 --e 7",
    ("reproduce",): "aut-n3",
}


def test_no_command_imports_dataclasses():
    # frozen dataclasses cost every launch `import dataclasses` (which loads
    # inspect, ast and dis) and a generated __init__ per class
    paths = {path for path, p in _subparsers(build_parser())
             if not any(isinstance(a, argparse._SubParsersAction) for a in p._actions)}
    assert set(_EVERY_COMMAND) == paths
    runs = "\n".join(f"run(*{[*path, *args.split()]!r})" for path, args in _EVERY_COMMAND.items())
    _in_fresh_interpreter(runs + """
heavy = ("dataclasses", "inspect", "ast", "dis")
assert not loaded(*heavy), loaded(*heavy)
""")


def test_provenance_follows_the_table_registry(capsys):
    from hkpell.cli import _TABLES

    for table_id, (_, _, command, params) in _TABLES.items():
        if command is None:
            continue
        argv = command.split() + [f"--{k.replace('_', '-')}={v}" for k, v in params.items()]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and json.loads(out)["provenance"] == [f"table:{table_id}"], argv
        # a neighbouring parameter set reproduces no table
        name, value = list(params.items())[-1]
        argv[-1] = f"--{name.replace('_', '-')}={value - 1}"
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and json.loads(out)["provenance"] == [], argv


def test_package_names_resolve():
    from hkpell import pell

    assert hkpell.pell is pell
    namespace: dict = {}
    exec("from hkpell import *", namespace)
    assert {name for name in namespace if not name.startswith("__")} == set(hkpell.__all__)
    assert set(hkpell.__all__) <= set(dir(hkpell))


def test_series_choices_match_rrinv():
    from hkpell import rrinv

    assert _SERIES == (rrinv.HILB_K3, rrinv.KUMMER)


def test_layer_errors_share_one_base():
    from hkpell import arith, autgroups, cones, lattice, pell, periods

    for cls in (pell.PellError, lattice.LatticeError, cones.ConeError,
                autgroups.AutError, periods.PeriodsError):
        assert issubclass(cls, arith.DomainError), cls


@pytest.mark.parametrize("path", sorted(GOLDEN.iterdir()), ids=lambda p: p.stem)
def test_reproduce_matches_golden_under_optimize(path):
    # python -O strips asserts: no check that guards a table may be one
    proc = subprocess.run([sys.executable, "-O", "-m", "hkpell.cli", "reproduce", path.stem],
                          capture_output=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == path.read_bytes()


# ---------------------------------------------------------------------------
# the parser


def _subparsers(parser, path=()):
    """(path, parser) for every command and subcommand under parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield path + (name,), sub
                yield from _subparsers(sub, path + (name,))


def _captured(call, argv):
    """(return value or exit code, stdout, stderr) of call(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_one_command_parser_prints_what_the_full_parser_prints():
    full = build_parser()
    paths = [()] + [path for path, _ in _subparsers(full)]
    usage_errors = [
        ["pell", "min", "--d", "13"],  # missing --t
        ["nope"],
        [],
        ["--format", "xml", "pell", "min", "--d", "13", "--t", "1"],
        ["pell"],
        ["pell", "nope"],
        ["pell", "min", "--d", "x", "--t", "1"],
        ["chi", "--series", "K3", "--m", "2", "--q", "2"],
        ["aut", "s2", "--e", "5", "--bogus"],
    ]
    for argv in [[*path, "--help"] for path in paths] + usage_errors:
        assert (_captured(build_parser(argv).parse_args, argv)
                == _captured(full.parse_args, argv)), argv
    for path in paths:
        # a handler's UsageError prints the top-level usage
        assert build_parser(path).format_usage() == full.format_usage(), path
    one = build_parser(["--format", "text", "pell", "min", "--d", "13", "--t", "1"])
    assert [path for path, _ in _subparsers(one)] == [("pell",), ("pell", "min")]


def _invocation(leaf):
    """argv strategy for one command: each option omitted or drawn small."""
    path, parser = leaf
    parts = [st.sampled_from([[], *[["--format", f] for f in ("csv", "text")]]),
             st.just(list(path))]
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:  # reproduce's table id
            parts.append(st.sampled_from([[p.stem] for p in sorted(GOLDEN.iterdir())]
                                         + [["no-such-table"]]))
            continue
        flag = action.option_strings[0]
        if action.choices:
            value = st.sampled_from([*action.choices, "K3"])
        elif flag == "--bound":  # the oracle box grows as bound^4: keep it small
            parts.append(st.integers(-2, 4).map(lambda b: ["--bound", str(b)]))
            continue
        else:
            value = st.integers(-2, 9).map(str)
        parts.append(st.one_of(st.just([]), value.map(lambda v, f=flag: [f, v])))
    return st.tuples(*parts).map(lambda ps: [arg for p in ps for arg in p])


_LEAVES = [(path, p) for path, p in _subparsers(build_parser())
           if not any(isinstance(a, argparse._SubParsersAction) for a in p._actions)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_LEAVES).flatmap(_invocation))
def test_cli_grammar_fuzz(argv):
    # exit 0 with a result, 1 with a typed error, 2 on a usage error; any
    # other exception escapes main and fails the test
    code, out, err = _captured(main, argv)
    if code == 0:
        assert out
    elif code == 1:
        assert set(json.loads(err)) == {"error"}
    else:
        assert code == 2 and "usage: hkpell" in err, (argv, code)
