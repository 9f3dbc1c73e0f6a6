import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import hkpell
from hkpell.cli import _SERIES, main, reproduce_table

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


def test_layers_load_on_first_use():
    # a fresh interpreter, so that no other test has loaded a layer yet
    code = """
import io, sys
from contextlib import redirect_stdout
import hkpell.cli

def loaded():
    return {m for m in ("hkpell.lattice", "hkpell.periods") if m in sys.modules}

assert not loaded(), loaded()
with redirect_stdout(io.StringIO()):
    assert hkpell.cli.main(["chi", "--m", "2", "--q", "6"]) == 0
    assert hkpell.cli.main(["pell", "fundamental", "--d", "13"]) == 0
assert not loaded(), loaded()
assert hkpell.periods is sys.modules["hkpell.periods"]
try:
    hkpell.nope
except AttributeError:
    pass
else:
    raise SystemExit("hkpell.nope did not raise AttributeError")
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr


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
