import argparse
import functools
import io
import json
import os
import pathlib
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hkpell
from hkpell.cli import _SERIES, main, reproduce_table
from hkpell.cli._parser import build_parser

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
    from hkpell.cli import UnknownTable

    code, out, err = run_cli(["reproduce", "no-such-table"], capsys)
    assert code == 1
    assert "UnknownTable" in err
    # an id with a '"' or a non-ASCII character puts them in the message,
    # which json escapes
    for table_id in ('a"b', "\xe9"):
        with pytest.raises(UnknownTable) as exc:
            reproduce_table(table_id)
        code, out, err = run_cli(["reproduce", table_id], capsys)
        error = {"type": "UnknownTable", "message": str(exc.value)}
        assert (code, out, err) == (1, "", json.dumps({"error": error}, sort_keys=True) + "\n")


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


# p = m - 1 = 1000003 is prime, and wall_types(m) would take O(p^2) steps:
# refused by the polarization check before it (n + m != 1 (mod 4); n < 1)
_EARLY_PERIOD_IMAGE = [
    (["period-image", "--m", "1000004", "--n", "2", "--gamma", "2"], 1.0),
    (["period-image", "--m", "1000004", "--n", "0", "--gamma", "1"], 1.0),
]


_OUT_OF_DOMAIN = [
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
    (["cone", "fourfold", "--n", "3", "--e-prime", "4", "--prefix", "-1"], 1),
    (["cone", "fourfold", "--n", "3", "--e-prime", "2", "--prefix", "-1"], 1),
    (["cone", "s2", "--e", "5", "--e-from", "2"], 2),
    (["cone", "s2", "--e", "5", "--e-to", "7"], 2),
    (["cone", "s2", "--e", "0"], 1),
    (["cone", "sm", "--e", "0", "--m", "3"], 1),
    (["cone", "fourfold", "--n", "-5", "--e-prime", "5"], 1),
    (["aut", "fourfold", "--n", "-1", "--e-prime", "5"], 1),
    (["heegner", "nonempty", "--n", "0", "--gamma", "1", "--e", "1"], 1),
    (["heegner", "components", "--n", "0", "--gamma", "1", "--e", "1"], 1),
    (["lattice", "disc", "--m", "26", "--n", "25", "--gamma", "5"], 1),
    (["period-image", "--m", "4", "--n", "6", "--gamma", "3"], 1),
    (["pell", "fundamental", "--d", "0"], 1),
    *[(argv, 1) for argv, _ in _EARLY_PERIOD_IMAGE],
]


@pytest.mark.parametrize("args,code", _OUT_OF_DOMAIN)
def test_out_of_domain_exit_code(args, code):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-m", "hkpell.cli", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


# large inputs answered from a small part of the discriminant group, with
# their time budget in seconds
_LARGE_INPUT = [
    (["lattice", "orbit", "--m", "100000", "--n", "100000", "--gamma", "1",
      "--square", "-2", "--div", "2"], 1.0),
    # a class of order s realizes only squares divisible by s, so neither
    # reads the s-torsion (1.6 * 10^9 elements in the first)
    (["lattice", "orbit", "--m", "20001", "--n", "20000", "--gamma", "1",
      "--square", "-2", "--div", "40000"], 1.0),
    (["lattice", "orbit", "--m", "100000", "--n", "100000", "--gamma", "1",
      "--square", "-2", "--div", "200000"], 1.0),
    # gamma = 5^9 = m - 1, n = gamma(gamma - 1): the classes scan 5^9 residues
    (["lattice", "orbit", "--m", "1953126", "--n", "3814695312500", "--gamma", "1953125",
      "--square", "-2", "--div", "2"], 1.0),
    # a discriminant group of order 4 * 10^6: the oracle's cost is its box's
    (["oracle", "--m", "2", "--n", "1000000", "--gamma", "1", "--bound", "1"], 1.0),
    # the Mersenne prime n = 2^61 - 1
    (["heegner", "nonempty", "--n", "2305843009213693951", "--gamma", "1", "--e", "1"], 1.0),
    # the prime n = 10^11 + 3: neither e nor e - n has a root mod 4n below
    # 2 * sqrt(n), so the local rule at 4 and at n answers (11 - n is a square
    # mod 4n)
    (["heegner", "nonempty", "--n", "100000000003", "--gamma", "1", "--e", "6"], 1.0),
    (["heegner", "nonempty", "--n", "100000000003", "--gamma", "1", "--e", "11"], 1.0),
    # the prime e = 10^12 + 39 = 3 (mod 4): -1 is no square mod e, so no unit
    # of d = e is built
    (["aut", "s2", "--e", "1000000000039"], 1.0),
    # e = 10^16 + 1 = 353 * 449 * 641 * 1409 * 69857 factors at once, so the
    # local rule answers for -1 mod e and 5 mod 4e with no scan of the 10^8
    # residues z <= sqrt(e); (10^8, 1) solves a^2 - e*b^2 = -1
    (["aut", "s2", "--e", "10000000000000001"], 1.0),
    # e = 3 (mod 4), the first prime: -1 is no e1*x - e2*y over the squares
    # x, y mod 8, so e is not factored
    (["aut", "s2", "--e", "10000001000000027"], 1.0),
    (["aut", "s2", "--e", "100000000000031"], 1.0),
    # e = 2^60 is a perfect square, so is_square_mod answers before 4n is
    # factored
    (["heegner", "nonempty", "--n", "2305843009213693951", "--gamma", "2",
      "--e", "1152921504606846976"], 1.0),
    # the prime e = 10^16 + 6 * 10^8 + 13 = 5 (mod 8) passes the test mod 8:
    # Miller-Rabin proves it prime, where trial division would run to
    # sqrt(e) = 10^8; 5 is no square mod 4e, and a^2 - e*b^2 = -1 is solved
    # from a unit of 159 bits
    (["aut", "s2", "--e", "10000000600000013"], 1.0),
    # d = (10^9 + 10)^2 + 1 is prime, with a unit of one step: the squares
    # test mod d must not trial-divide it
    (["pell", "min", "--d", "1000000020000000101", "--t", "17"], 1.0),
    # d = (2 * 10^12 + 20)^2 + 1 is a prime past PSI_13, where Miller-Rabin
    # proves nothing: the squares test mod d is skipped, and the search of
    # the 17 residues answers
    (["pell", "min", "--d", "4000000000080000000000401", "--t", "17"], 1.0),
    # d = x^2 + 1, x = 906811450844, is 1000000000789 * 822307006733, with a
    # unit of one step: the squares test mod d gives up on d within
    # 1000 + |t| rho steps, where a full split takes about 0.25 s
    (["pell", "min", "--d", "822307007381800228312337", "--t", "17"], 0.1),
]


@pytest.mark.parametrize("args,budget", _LARGE_INPUT)
def test_large_input_within_budget(args, budget, capsys):
    start = time.perf_counter()
    code, _, err = run_cli(args, capsys)
    assert time.perf_counter() - start < budget
    assert code == 0, err


# invalid parameters refused before any stream is read, with their time
# budget in seconds: the hilb-square stream of e = 10^15 + 37 does not end
# within minutes
_EARLY_REFUSAL = [
    (["hilb-square", "--n", "1", "--e", "1000000000000037", "--gamma", "3"], 1.0),
    # m - 1 = 2 * 4000000000080000000000401, the second a prime past PSI_13:
    # is_prime stops at the factor 2, before any Miller-Rabin or trial
    # division of the large prime
    (["period-image", "--m", "8000000000160000000000803", "--n", "1", "--gamma", "1"], 1.0),
    *_EARLY_PERIOD_IMAGE,
]


@pytest.mark.parametrize("args,budget", _EARLY_REFUSAL)
def test_early_refusal_within_budget(args, budget, capsys):
    start = time.perf_counter()
    code, _, err = run_cli(args, capsys)
    assert time.perf_counter() - start < budget
    assert code == 1 and "Traceback" not in err, err


def test_closed_stdout_exits_1_without_traceback():
    # as `hkpell ... | true`, but with the reader gone before the launch
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "hkpell.cli", "pell", "min", "--d", "13",
                               "--t", "1"], stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env={**os.environ, "PYTHONPATH": SRC})
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr, proc.stderr


def _launch(argv, redirect="", **streams):
    """`python -m hkpell.cli <argv> <redirect>` run by the shell, with stdout
    block-buffered as a launch from a shell has it (PYTHONUNBUFFERED would
    hide a missing flush)."""
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(["sh", "-c", f'exec "$0" -m hkpell.cli {argv} {redirect}',
                           sys.executable], env=env, **streams)


def test_gone_reader_exits_1_quietly():
    # --help leaves its text in stdout's buffer, so the launcher's flush
    # meets the gone reader; the oracle's ~110 KB overflow the buffer, so
    # the write inside main does
    for argv in ("--help", "oracle --m 2 --n 3 --gamma 1 --bound 5"):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _launch(argv, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b""), argv


_NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@pytest.mark.parametrize("argv, redirect", [
    ("pell fundamental --d 13", ">&-"),  # closed at start: sys.stdout is None
    pytest.param("pell fundamental --d 13", "> /dev/full", marks=_NO_DEV_FULL),  # ENOSPC
    pytest.param("--help", "> /dev/full", marks=_NO_DEV_FULL),  # ENOSPC at the flush
])
def test_stdout_that_takes_nothing_exits_1_with_one_error_line(argv, redirect):
    proc = _launch(argv, redirect, capture_output=True)
    lines = proc.stderr.decode().splitlines()
    assert proc.returncode == 1 and len(lines) == 1, proc.stderr
    assert json.loads(lines[0])["error"]["type"] == "OSError", lines


def test_closed_stdout_keeps_usage_errors_and_help():
    # argparse writes --help to stderr when sys.stdout is None
    usage, help_ = (_launch(argv, ">&-", capture_output=True)
                    for argv in ("cone s2 --e-from 1", "--help"))
    assert usage.returncode == 2 and b"usage: hkpell" in usage.stderr, usage.stderr
    assert help_.returncode == 0 and help_.stderr.startswith(b"usage: hkpell"), help_.stderr
    assert b"positional arguments" in help_.stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_main_raises_a_failed_stdout_write_and_leaves_fds_alone(monkeypatch):
    # as print does: no fd of the caller's is replaced, and none is left open
    class Gone(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return 1

    saved = os.dup(1)  # fd 1 comes back even if main replaces it
    try:
        fds, stat = set(os.listdir("/proc/self/fd")), os.fstat(1)
        monkeypatch.setattr(sys, "stdout", Gone())
        with pytest.raises(BrokenPipeError):
            main(["pell", "fundamental", "--d", "13"])
        after = os.fstat(1)
        assert (after.st_dev, after.st_ino) == (stat.st_dev, stat.st_ino)
        assert set(os.listdir("/proc/self/fd")) == fds
    finally:
        os.dup2(saved, 1)
        os.close(saved)


# argvs whose launches must print what main prints in-process: outputs past
# a 64 KiB pipe buffer (the oracle's is about 100 KB), a domain error, a
# usage error and --help
_LAUNCHED = [
    ["oracle", "--m", "2", "--n", "3", "--gamma", "1", "--bound", "5"],
    ["pell", "fundamental", "--d", "1000000007"],
    ["--format", "csv", "cone", "s2", "--e-from", "1", "--e-to", "13"],
    ["--format", "text", "aut", "s2", "--e", "7"],
    ["reproduce", "period-image-m4"],
    ["pell", "fundamental", "--d", "4"],
    ["pell", "min", "--d", "13"],
    ["--help"],
]


def test_launch_prints_what_main_prints(tmp_path, monkeypatch):
    # the launcher flushes, then ends the process with os._exit: every byte
    # must reach a pipe and a regular file alike, with main's exit code.
    # Without PYTHONUNBUFFERED, which would hide a missing flush, stdout is
    # block-buffered as a launch from a shell has it
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("PYTHONUNBUFFERED", None)
    codes, sizes = set(), []
    for argv in _LAUNCHED:
        code, out, err = _captured(main, argv)
        codes.add(code)
        sizes.append(len(out))
        expected = (code, out.encode(), err.encode())
        cmd = [sys.executable, "-m", "hkpell.cli", *argv]
        proc = subprocess.run(cmd, capture_output=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected, argv
        with open(tmp_path / "stdout", "w+b") as file:
            proc = subprocess.run(cmd, stdout=file, stderr=subprocess.PIPE, env=env)
            file.seek(0)
            assert (proc.returncode, file.read(), proc.stderr) == expected, argv
    assert codes == {0, 1, 2} and max(sizes) > 1 << 16


def test_launch_with_stderr_closed_exits_0():
    # with fd 2 closed at start sys.stderr is None, which the launcher's
    # flush skips, as the interpreter's own exit does
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m hkpell.cli pell min --d 13 --t 1 2>&-',
                           sys.executable], capture_output=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0 and json.loads(proc.stdout)["result"] == {"a": 649, "b": 180}


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


# each command of a polarization (m, n, gamma), with its other arguments;
# heegner takes no --m, its m is 2
_POLARIZED = {
    ("lattice", "disc"): "--m 2", ("lattice", "dual"): "--m 2",
    ("lattice", "orbit"): "--m 2 --square -2 --div 1",
    ("period-image",): "--m 2", ("oracle",): "--m 2 --bound 2",
    ("heegner", "nonempty"): "--e 1", ("heegner", "components"): "--e 1",
}


# the commands of m = 4, with their other arguments
_POLARIZED_M4 = {
    ("lattice", "disc"): "", ("lattice", "dual"): "", ("lattice", "orbit"): "--square -2 --div 1",
    ("oracle",): "--bound 2", ("period-image",): "",
}


@pytest.mark.parametrize("argv,error", [
    # 3 does not divide 2m - 2 = 2
    *[([*path, *extra.split(), "--n", "3", "--gamma", "3"], "ValueError")
      for path, extra in _POLARIZED.items()],
    *[([*path, *extra.split(), "--n", "2", "--gamma", "2"], "BadCongruence")
      for path, extra in _POLARIZED.items()],
    # one component (k = +-1): the lattice has a model, the period image no
    # cited statement
    *[([*path, "--m", "4", *extra.split(), "--n", "6", "--gamma", "3"],
       "UnsupportedParameters" if path == ("period-image",) else None)
      for path, extra in _POLARIZED_M4.items()],
    # two components (k = +-1 and +-2): no one model; the dual is a formula
    *[([*path, "--m", "26", *extra.split(), "--n", "25", "--gamma", "5"],
       None if path == ("lattice", "dual") else "UnsupportedParameters")
      for path, extra in _POLARIZED_M4.items()],
    (["aut", "fourfold", "--n", "2", "--e-prime", "5"], "BadCongruence"),
    (["cone", "fourfold", "--n", "5", "--e-prime", "5"], "BadCongruence"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_polarization_domain_errors(argv, error, capsys):
    code, out, err = run_cli(argv, capsys)
    if error is None:
        assert code == 0 and json.loads(out)["result"], err
    else:
        assert code == 1
        assert json.loads(err)["error"]["type"] == error


def test_csv_is_rejected_before_the_command_runs():
    _in_fresh_interpreter("""
from contextlib import redirect_stderr
try:
    with redirect_stderr(io.StringIO()) as err:
        hkpell.cli.main(["--format", "csv", "period-image", "--m", "4", "--n", "1",
                         "--gamma", "2"])
except SystemExit as exc:
    assert exc.code == 2, exc.code
    assert "csv output is only available for table commands" in err.getvalue()
else:
    raise SystemExit("--format csv period-image was not rejected")
layers = ("hkpell.periods", "hkpell.cli.periods")
assert not loaded(*layers), loaded(*layers)
""")


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
run("fujiki", "--series", "Kummer", "--m", "2")
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
    from hkpell.cli import _COMMANDS, _TABLES

    for path, args in _EVERY_COMMAND.items():
        leaf = _COMMANDS[path[0]][1]
        handler = (leaf[path[1]] if len(path) > 1 else leaf)[0]
        if callable(handler):  # reproduce, in the core: its table's builder
            handler = _TABLES[args][0]
        modules = _modules_loaded_as_main([*path, *args.split()])
        # only the module that holds the handler, of all the handler modules
        assert [m for m in modules if m.startswith("hkpell.cli.")] == [
            "hkpell.cli." + handler.split(".")[0]], path
        if path in {("period-image",), ("heegner", "components"), ("oracle",)}:
            # discriminant groups come from discform, without block lattices
            assert "hkpell.discform" in modules and "hkpell.lattice" not in modules, path
        if path[0] == "cone":
            # wall types come from arith's wall constraints
            assert not {"hkpell.discform", "hkpell.periods", "hkpell.rrinv"} & set(modules), path
        # the core writes the output, and the parser is left out
        assert not {"json", "argparse", "hkpell.cli._parser"} & set(modules), (path, modules)
    # another spelling and a usage error load the parser, and json still not
    modules = _modules_loaded_as_main(["pell", "fundamental", "--d=13"])
    assert {"argparse", "hkpell.cli._parser"} <= set(modules) and "json" not in modules, modules
    # a string that needs an escape loads json, to write its error line
    modules = _modules_loaded_as_main(["reproduce", 'a"b'], code=1)
    assert "json" in modules and "argparse" not in modules, modules
    _in_fresh_interpreter("""
from contextlib import redirect_stderr
try:
    with redirect_stderr(io.StringIO()):
        hkpell.cli.main(["pell", "min", "--d", "13"])
except SystemExit as exc:
    assert exc.code == 2, exc.code
assert loaded("json", "argparse", "hkpell.cli._parser") == {"argparse", "hkpell.cli._parser"}
""")


_AS_MAIN = """
import io, os, runpy, sys
from contextlib import redirect_stdout

import hkpell.cli as core

def _exit(code):  # os._exit would end the process before the module list prints
    raise SystemExit(code)

def main(argv=None):
    returned.append(core_main(argv))
    return returned[-1]

returned, core_main, core.main, os._exit = [], core.main, main, _exit
expected, sys.argv = int(sys.argv[1]), ["hkpell", *sys.argv[2:]]
with redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("hkpell.cli", run_name="__main__", alter_sys=True)  # as -m does
    except SystemExit as exc:
        assert exc.code == expected, exc.code
        code, tb = exc.code, exc.__traceback__
frames = []
while tb:
    frames.append(tb.tb_frame)
    tb = tb.tb_next
# the exit came from the shim, which ran the launcher of the one loaded core,
# and the launcher exited with the code that main returned
shim_frame, launcher, exit_ = frames[-3:]
assert exit_.f_code is _exit.__code__ and launcher.f_code is core.launch.__code__
shim = shim_frame.f_globals
assert shim["__name__"] == "__main__" and shim["launch"] is core.launch
assert shim["__file__"].endswith(os.path.join("cli", "__main__.py")), shim["__file__"]
assert returned == [code], (returned, code)
assert [m for m in list(sys.modules.values())
        if getattr(m, "__file__", None) == core.__file__] == [core]
reported = sorted(name for name in sys.modules
                  if name.startswith("hkpell") or name in ("json", "argparse"))
import json
print(json.dumps(reported))
"""


def test_console_script_runs_the_launcher_the_shim_runs():
    # `hkpell ...` and `python -m hkpell.cli ...` exit the same way
    import ast
    import re

    pyproject = (pathlib.Path(SRC).parent / "pyproject.toml").read_text()
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    target = re.fullmatch(r'hkpell = "hkpell\.cli:(\w+)"', scripts.strip())
    shim = ast.parse((pathlib.Path(hkpell.__file__).parent / "cli" / "__main__.py").read_text())
    calls = [node.func.id for node in ast.walk(shim) if isinstance(node, ast.Call)]
    imports = [(node.module, node.level, [a.name for a in node.names])
               for node in ast.walk(shim) if isinstance(node, ast.ImportFrom)]
    assert target and calls == [target[1]] and imports == [(None, 1, calls)], (scripts, calls)


def _modules_loaded_as_main(argv, code=0):
    """The hkpell modules, and json and argparse if loaded, that a fresh
    `python -m hkpell.cli <argv>` loads; the launch must exit with code."""
    proc = subprocess.run([sys.executable, "-c", _AS_MAIN, str(code), *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# one in-domain invocation of every command and subcommand
_EVERY_COMMAND = {
    ("pell", "fundamental"): "--d 13",
    ("pell", "min"): "--d 13 --t -4",
    ("pell", "classes"): "--d 13 --t 12",
    ("pell", "stream"): "--d 7 --t 1",
    ("cone", "s2"): "--e 5",
    ("cone", "sm"): "--e 5 --m 3",
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
    # nor argparse (which loads gettext and locale): a well-formed argv is
    # read from the command specs, and the parser built only for help, a
    # usage error or another spelling
    runs = "\n".join(f"run(*{[*path, *args.split()]!r})" for path, args in _EVERY_COMMAND.items())
    _in_fresh_interpreter(runs + """
heavy = ("dataclasses", "inspect", "ast", "dis", "argparse", "gettext", "locale")
assert not loaded(*heavy), loaded(*heavy)
run("pell", "fundamental", "--d=13")
assert loaded("argparse") == {"argparse"}
""")


def test_help_and_usage_errors_launch_with_the_full_parsers_bytes(monkeypatch):
    # a launch builds the parser only where it prints: for help, a usage
    # error the parser finds, the csv rejection and a handler's UsageError
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": SRC}
    full = build_parser()
    root_error = full.format_usage() + "hkpell: error: "
    expected = {
        "--help": _captured(full.parse_args, ["--help"]),
        "pell min --d 13": _captured(full.parse_args, ["pell", "min", "--d", "13"]),
        "--format csv pell min --d 13 --t 1":
            (2, "", root_error + "csv output is only available for table commands\n"),
        "cone s2 --e-from 1":
            (2, "", root_error + "cone s2 needs --e or both --e-from and --e-to\n"),
        "pell min --help": _captured(full.parse_args, ["pell", "min", "--help"]),
    }
    for argv, (code, out, err) in expected.items():
        proc = subprocess.run([sys.executable, "-m", "hkpell.cli", *argv.split()],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err), argv
    assert expected["--help"][1].splitlines()[0] == "usage: hkpell [-h] [--format {json,csv,text}]"
    assert expected["pell min --help"][1].splitlines()[0] == \
        "usage: hkpell pell min [-h] --d D --t T [--e1 E1]"


ENVELOPES = pathlib.Path(__file__).parent / "envelopes.json"

# the m = 1 member of the Kummer series is a K3 surface: chi = q/2 + 2, c = 1
_SURFACES = [
    ["chi", "--series", "Kummer", "--m", "1", "--q", "2"],
    ["fujiki", "--series", "Kummer", "--m", "1"],
]

# argvs pinned by their envelope alone: the orbit query of a divisibility-2
# polarization, which reads its polarized model; --d=13, which the parser
# reads and must print the bytes of --d 13, read from the specs; and a table
# id whose '"' the error message escapes through json
_PINNED = [
    ["lattice", "orbit", "--m", "2", "--n", "3", "--gamma", "2", "--square", "-2", "--div", "2"],
    ["pell", "fundamental", "--d=13"],
    ["reproduce", 'a"b'],
]


def _envelope_argvs():
    """Every command of _EVERY_COMMAND under each --format, every argv of
    test_out_of_domain_exit_code, test_large_input_within_budget and
    test_early_refusal_within_budget, the _SURFACES and _PINNED, each once."""
    leaves = [[*path, *args.split()] for path, args in _EVERY_COMMAND.items()]
    argvs = ([["--format", f, *argv] for argv in leaves for f in ("json", "text", "csv")]
             + [argv for argv, _ in _OUT_OF_DOMAIN + _LARGE_INPUT + _EARLY_REFUSAL]
             + _SURFACES + _PINNED)
    return [list(argv) for argv in dict.fromkeys(map(tuple, argvs))]


def _envelope(argv):
    code, out, err = _captured(main, argv)
    return {"argv": argv, "code": code, "stdout": out, "stderr": err}


def test_every_invocation_prints_its_golden_bytes(monkeypatch):
    # usage lines wrap at the terminal width; the golden was taken at 80
    # columns (regenerate it with `COLUMNS=80 PYTHONPATH=src python
    # tests/test_cli.py`, from code whose output is trusted)
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads(ENVELOPES.read_text())
    assert [g["argv"] for g in golden] == _envelope_argvs()
    for expected in golden:
        assert _envelope(expected["argv"]) == expected, expected["argv"]


def test_provenance_follows_the_table_registry(capsys):
    from hkpell.cli import _TABLES

    for table_id, (_, command, params) in _TABLES.items():
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


# ---------------------------------------------------------------------------
# the JSON writer, against json


@pytest.fixture
def no_int_str_limit():
    """No limit on int-to-str digits, as main lifts it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _json_text(text, indent):
    """A line of JSON text, read and written again by the writer."""
    from hkpell.cli import _dumps

    return _dumps(json.loads(text), indent) + "\n"


def test_writer_rewrites_every_recorded_output(no_int_str_limit):
    # every JSON stdout of the recorded envelopes and of the JSON goldens,
    # and every error line, at indent None
    outputs, errors = 0, 0
    for entry in json.loads(ENVELOPES.read_text()):
        if entry["stdout"] and entry["stdout"][0] not in "[{":
            assert "csv" in entry["argv"] or "reproduce" in entry["argv"], entry["argv"]
        elif entry["stdout"]:
            assert _json_text(entry["stdout"], 2) == entry["stdout"], entry["argv"]
            outputs += 1
        if entry["code"] == 1:
            assert _json_text(entry["stderr"], None) == entry["stderr"], entry["argv"]
            errors += 1
    for path in GOLDEN.glob("*.json"):
        assert _json_text(path.read_text(), 2) == path.read_text(), path.name
        outputs += 1
    assert outputs > 50 and errors > 20, (outputs, errors)


_CORPUS = [
    *map(chr, range(0x80)), "".join(map(chr, range(0x80))), '"', "\\", "\x7f", "\x80", "\xe9",
    "\u2028", "\ud7ff", "\ud800", "\udfff", "\ue000", "\uffff", "\U00010000", "\U0001f600",
    "\U0010ffff", "a\U0001d11e\"b\\c\u00e9\n", "", "plain text, printable ~ and space",
    0, 1, -1, 10 ** 4300, -10 ** 5000 - 7, True, False, None, [True, 1, False, 0, None],
    [], {}, (), [[]], [{}], [()], {"a": []}, {"a": {}}, [[[], {}], {"": [[]]}],
    (1, (2, "x")), {"b": (1,), "a": [()], "": None},
    {"z": 1, "a": {"\xe9": None, "\U0001f600": [1, "\x00"], "B": True}, "\x7f": False},
]


@pytest.mark.parametrize("indent", [None, 2])
def test_writer_matches_json_on_the_corpus(indent, no_int_str_limit):
    from hkpell.cli import _dumps

    for obj in [*_CORPUS, _CORPUS, {str(i): obj for i, obj in enumerate(_CORPUS)}]:
        assert _dumps(obj, indent) == json.dumps(obj, sort_keys=True, indent=indent), obj


def test_writer_rejects_other_types():
    from fractions import Fraction

    from hkpell.cli import _dumps

    # json writes a float, but no handler returns one
    for obj in (Fraction(1, 2), 0.5, {1}, [1, {"a": 0.5}], {"a": (Fraction(3),)}):
        for indent in (None, 2):
            with pytest.raises(TypeError):
                _dumps(obj, indent)


def test_package_names_resolve():
    from hkpell import pell

    assert hkpell.pell is pell
    namespace: dict = {}
    exec("from hkpell import *", namespace)
    assert {name for name in namespace if not name.startswith("__")} == set(hkpell.__all__)
    assert set(hkpell.__all__) <= set(dir(hkpell))


def _library_only() -> list[str]:
    """The public functions of the layers with a handler module
    hkpell.cli.<layer> that no handler reaches: a static scan that starts
    from every function of the handler modules and follows, transitively,
    each name they use to every module-level function, class or assignment
    of that name in the package (a class reached reaches all its methods)."""
    import ast

    package = pathlib.Path(hkpell.__file__).parent

    def definitions(path):
        out = {}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out.update((n.id, node) for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name))
        return out

    modules = {path.stem: definitions(path) for path in package.glob("*.py")}
    layers = sorted(path.stem for path in (package / "cli").glob("[!_]*.py"))
    todo = [node for layer in layers
            for node in definitions(package / "cli" / f"{layer}.py").values()
            if isinstance(node, ast.FunctionDef)]
    reached, seen = set(), set()
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for n in ast.walk(node):
            name = n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
            for module, defs in modules.items():
                if name in defs:
                    reached.add((module, name))
                    todo.append(defs[name])
    return sorted(f"{layer}.{name}" for layer in layers
                  for name, node in modules[layer].items()
                  if isinstance(node, ast.FunctionDef) and not name.startswith("_")
                  and (layer, name) not in reached)


def test_readme_library_only_list_is_the_static_scan():
    import re

    readme = (pathlib.Path(SRC).parent / "README.md").read_text()
    section = readme.split("Library only:", 1)[1].split("\n## ", 1)[0]
    assert sorted(re.findall(r"`(\w+\.\w+)`", section)) == _library_only()


def test_package_imports_only_the_stdlib():
    # every import in the package, cli included, is hkpell itself or a
    # standard-library module
    import ast

    seen = set()
    for path in sorted(pathlib.Path(hkpell.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "hkpell" or top in sys.stdlib_module_names, (path.name, name)
                seen.add(top)
    assert {"fractions", "math", "argparse", "importlib"} <= seen


def test_package_has_no_assert_statement():
    # python -O strips assert statements, and every check that decides
    # correctness must still run there
    import ast

    found = [f"{path.name}:{node.lineno}"
             for path in sorted(pathlib.Path(hkpell.__file__).parent.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []


def test_series_choices_match_rrinv():
    from hkpell import rrinv

    assert _SERIES == (rrinv.HILB_K3, rrinv.KUMMER)


def test_layer_errors_share_one_base():
    from hkpell import arith, cones, lattice, pell, periods

    for cls in (pell.PellError, lattice.LatticeError, cones.ConeError, periods.PeriodsError):
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


# the parser, built once for the tests that read many argvs with it and
# left unchanged by them
_PARSER = build_parser()


def _captured(call, argv):
    """(return value or exit code, stdout, stderr) of call(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _metavar_parser(command, subcommand, description, usage):
    """The parser for an argv that names command and subcommand, as it was
    built before its root usage was pinned: a one-name subparsers action got
    the full {...} list as its metavar, so that its usage and errors read as
    the full parser's.  usage, if not None, replaces the root usage."""
    from hkpell.cli import _COMMANDS
    from hkpell.cli._parser import _add_leaf

    def add_subparsers(parser, dest, names, named):
        metavar = "{" + ",".join(names) + "}" if named else None
        action = parser.add_subparsers(dest=dest, required=True, metavar=metavar)
        return action, [named] if named else list(names)

    parser = argparse.ArgumentParser(prog="hkpell", description=description)
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    commands, names = add_subparsers(parser, "cmd", _COMMANDS, command)
    for name in names:
        help_text, leaves = _COMMANDS[name]
        p = commands.add_parser(name, help=help_text)
        if isinstance(leaves, dict):
            subcommands, sub_names = add_subparsers(p, f"{name}_cmd", leaves, subcommand)
            for sub_name in sub_names:
                _add_leaf(subcommands.add_parser(sub_name), f"{name} {sub_name}",
                          leaves[sub_name])
        else:
            _add_leaf(p, name, leaves)
    parser.usage = usage
    return parser


def _grammar_grid():
    """Every command and subcommand, each under every --format prefix and
    --help, followed by nothing, its arguments, --help, a bad value, an
    unknown option, an extra word or an unknown subcommand."""
    paths = [()] + sorted({path[:1] for path in _EVERY_COMMAND}) + list(_EVERY_COMMAND)
    prefixes = ([], ["--format", "csv"], ["--format", "text"], ["--format"], ["--help"])
    for path in dict.fromkeys(paths):
        args = _EVERY_COMMAND.get(path, "").split()
        bad = args[:1] + ["x"] + args[2:] if len(args) > 1 else ["x"]
        suffixes = ([], args, ["--help"], [*args, "--help"], bad, [*args, "--bogus"],
                    [*args, "extra"], ["nope"], ["-h", "nope"])
        for prefix in prefixes:
            for suffix in suffixes:
                yield [*prefix, *path, *suffix]


def _check_reader(argv):
    """1 where the reader answers argv, after checking that the parser reads
    it the same way; 0 where it leaves argv to the parser."""
    from hkpell.cli import _read

    read = _read(argv)
    if read is None:
        return 0
    try:
        args = vars(_PARSER.parse_args(argv))
    except SystemExit as exc:
        raise AssertionError(f"the reader answers {argv!r}, which the parser rejects") from exc
    fmt, command, leaf = args.pop("format"), args.pop("command"), args.pop("leaf")
    params = {k: v for k, v in args.items() if k != "cmd" and not k.endswith("_cmd")}
    assert read == (fmt, command, leaf, params), argv
    assert fmt != "csv" or len(leaf) == 3, argv  # a csv rows builder
    return 1


def _answered(argvs):
    """Those of argvs that the reader answers, each checked by _check_reader,
    which runs in main's place of _run: under main's limit on int-to-str
    digits."""
    import hkpell.cli as cli

    run, cli._run = cli._run, _check_reader
    try:
        return [argv for argv in argvs if main(argv)]
    finally:
        cli._run = run


def test_reader_reads_the_grammar_grid_as_the_parser():
    answered = {tuple(argv) for argv in _answered(_grammar_grid())}
    # each rare spelling as a value, as the first of a repeated option and as
    # a table id: the reader answers plain ASCII integers alone, past 4300
    # digits too
    rare = _answered([argv for value in _RARE_VALUES for argv in (
        ["pell", "min", "--d", value, "--t", "1"], ["pell", "min", "--d", value, "--d", "13",
                                                    "--t", "1"], ["reproduce", value])])
    assert [argv[3] for argv in rare if argv[0] == "pell"] == ["-0", "007", "9" * 4400,
                                                               "-" + "9" * 4400]
    # every well-formed argv of the grid: each command's arguments under
    # every --format a command takes
    for path, args in _EVERY_COMMAND.items():
        table = len(dict(_LEAVES)[path].get_default("leaf")) == 3
        for prefix in [(), ("--format", "text")] + [("--format", "csv")] * table:
            assert (*prefix, *path, *args.split()) in answered, (prefix, path)


# values the reader answers (-0, 007, past 4300 digits) and others it leaves
# to the parser, which accepts some (+5, 1_0, non-ASCII digits), and words
# that make an argv other than well-formed
_RARE_VALUES = ("+5", " 5", "5 ", "1_0", "\u0663", "\uff15", "\u00b2", "-0", "007", "9" * 4400,
                "-" + "9" * 4400, "x", "", "-", "--", "--5", "5.0", "K3", "HilbK3", "-aut-n3")
_EXTRA_WORDS = ("extra", "--", "-h", "--help", "--bogus", "--format", "json", "-5", "aut-n3")
_PREFIXES = ([], ["--format", "json"], ["--format", "text"], ["--format", "csv"],
             ["--format=text"], ["--format", "text", "--format", "json"], ["--format", "xml"],
             ["--form", "text"], ["-h"], ["--help"])


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_reader_reads_other_spellings_as_the_parser(data):
    # a well-formed invocation of one leaf, then up to three changes: an
    # option left out, repeated, written --name=value or abbreviated, a rare
    # value, an extra word anywhere, or another --format prefix
    path, parser = data.draw(st.sampled_from(_LEAVES))
    pairs = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:  # reproduce's table id
            pairs.append([data.draw(st.sampled_from([p.stem for p in sorted(GOLDEN.iterdir())]))])
        elif action.choices:
            pairs.append([action.option_strings[0], data.draw(st.sampled_from(action.choices))])
        else:
            pairs.append([action.option_strings[0], str(data.draw(st.integers(-9, 99)))])
    pairs = list(data.draw(st.permutations(pairs)))
    prefix, extras = data.draw(st.sampled_from(_PREFIXES[:4])), []
    for change in data.draw(st.lists(st.integers(0, 6), max_size=3)):
        i = data.draw(st.integers(0, len(pairs) - 1))
        if change == 0:
            pairs.pop(i)
        elif change == 1:
            pairs.append(list(pairs[i][:1]) + [str(data.draw(st.integers(-9, 99)))])
        elif change == 2 and len(pairs[i]) == 2:
            pairs[i] = ["=".join(pairs[i])]
        elif change == 3 and pairs[i][0].startswith("--"):
            pairs[i][0] = pairs[i][0][:data.draw(st.integers(3, len(pairs[i][0])))]
        elif change == 4:
            pairs[i][-1] = data.draw(st.sampled_from(_RARE_VALUES))
        elif change == 5:
            extras.append(data.draw(st.sampled_from(_EXTRA_WORDS)))
        elif change == 6:
            prefix = data.draw(st.sampled_from(_PREFIXES))
        if not pairs:
            break
    argv = [*prefix, *path, *(word for pair in pairs for word in pair)]
    for word in extras:
        argv.insert(data.draw(st.integers(0, len(argv))), word)
    _answered([argv])


def test_pinned_usage_prints_what_the_metavar_parser_printed(monkeypatch):
    # usage lines wrap at the terminal width; 3.13 wraps the root usage
    # elsewhere, so there the reference gets the pinned usage and checks the
    # rest of each message
    monkeypatch.setenv("COLUMNS", "80")
    from hkpell.cli import _COMMANDS

    def named(argv):
        """The command argv names, if only --format options precede it, and
        the subcommand that follows it; None for a name argv does not give."""
        i = 0
        while i < len(argv) and (argv[i] == "--format" or argv[i].startswith("--format=")):
            i += 1 if "=" in argv[i] else 2
        command = argv[i] if i < len(argv) and argv[i] in _COMMANDS else None
        subcommands = _COMMANDS[command][1] if command else None
        if isinstance(subcommands, dict) and i + 1 < len(argv) and argv[i + 1] in subcommands:
            return command, argv[i + 1]
        return command, None

    usage = _PARSER.usage if sys.version_info >= (3, 13) else None
    # the reference reads argv only through the names it gives
    reference = functools.lru_cache(maxsize=None)(
        lambda names: _metavar_parser(*names, _PARSER.description, usage))
    for argv in _grammar_grid():
        old = reference(named(argv))
        # a handler's UsageError and the csv check print the root usage
        assert _PARSER.format_usage() == old.format_usage(), argv
        assert _captured(_PARSER.parse_args, argv) == _captured(old.parse_args, argv), argv


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse 3.13 wraps the usage elsewhere")
def test_pinned_usage_is_argparse_rendering(monkeypatch):
    # a command added to _COMMANDS shows up in both, so they cannot drift
    monkeypatch.setenv("COLUMNS", "80")
    full = build_parser()
    pinned = full.format_usage()
    full.usage = None
    assert full.format_usage() == pinned


def _mostly(usual, rare, one_in):
    """A draw from usual, or from rare one time in one_in.  Hypothesis leans
    to the ends of a range, so the rare branch sits inside it."""
    return st.tuples(st.integers(0, one_in - 1), usual, rare).map(
        lambda t: t[2] if t[0] == 1 else t[1])


# the values an option mostly takes where 2..9 would mostly miss the domain:
# m - 1 prime or 1 and m <= 4 (walls), n = 3 (mod 4) (fourfolds), gamma 1 or
# 2, d not a square, t solvable for every d, an even square q, and a small
# oracle box (it grows as bound^4)
_USUAL = {"--m": (2, 3, 4), "--n": (3, 7, 1, 2), "--gamma": (1, 2),
          "--d": (2, 3, 5, 6, 7, 8), "--t": (1, 4, -1, 2, -2, 7),
          "--q": (2, 4, 0, -2, 6), "--square": (-2, -4, -6, 2), "--bound": (1, 2, 3, 0, 4)}


def _invocation(leaf):
    """(path, argv) strategy for one command.  Most draws reach a result: a
    table command mostly draws --format csv and any other command seldom
    does, an option mostly takes a value from _USUAL or 2..9, and a required
    option is left out one time in 32.  The rest take the usage-error
    and domain-error paths."""
    path, parser = leaf
    fmt = (["--format", "csv"],) * 4 + ([], ["--format", "text"])
    if len(parser.get_default("leaf")) == 2:  # no csv rows builder
        fmt = ([],) * 4 + (["--format", "text"],) * 3 + (["--format", "csv"],)
    parts = [st.sampled_from(fmt), st.just(list(path))]
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:  # reproduce's table id
            parts.append(_mostly(st.sampled_from([[p.stem] for p in sorted(GOLDEN.iterdir())]),
                                 st.just(["no-such-table"]), 8))
            continue
        flag = action.option_strings[0]
        if action.choices:
            value = _mostly(st.sampled_from(action.choices), st.just("K3"), 8)
        else:
            usual = st.sampled_from(_USUAL[flag]) if flag in _USUAL else st.integers(2, 9)
            rare = st.integers(-2, -1) if flag == "--bound" else st.integers(-2, 9)
            value = _mostly(usual, rare, 8).map(str)
        omitted = _mostly(st.just(False), st.just(True), 32 if action.required else 2)
        parts.append(st.tuples(omitted, value).map(
            lambda t, f=flag: [] if t[0] else [f, t[1]]))
    return st.tuples(*parts).map(lambda ps: (path, [arg for p in ps for arg in p]))


_LEAVES = [(path, p) for path, p in _subparsers(_PARSER)
           if not any(isinstance(a, argparse._SubParsersAction) for a in p._actions)]


def _option_names(path):
    """The params keys of a leaf's envelope: its option names, where cone s2's
    --e stands for the range --e-from = --e-to."""
    names = {a.dest for a in dict(_LEAVES)[path]._actions
             if not isinstance(a, argparse._HelpAction)}
    return names - {"e"} if path == ("cone", "s2") else names


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.tuples(*map(_invocation, _LEAVES)))
def test_cli_grammar_fuzz(invocations):
    # one draw per leaf in each example, so that every leaf is reached.
    # Exit 0 with a result, 1 with a typed error, 2 on a usage error; any
    # other exception escapes main and fails the test
    for path, argv in invocations:
        code, out, err = _captured(main, argv)
        if code == 0:
            fmt, json_argv = (argv[1], argv[2:]) if argv[0] == "--format" else ("json", argv)
            if path == ("reproduce",):  # the table's text, under every format
                assert out == reproduce_table(argv[-1])
            elif fmt == "csv":
                assert out
            else:
                env = json.loads(out if fmt == "json" else _captured(main, json_argv)[1])
                assert set(env) == {"command", "params", "result", "provenance"}
                assert env["command"] == " ".join(path)
                assert set(env["params"]) == _option_names(path)
                if fmt == "text":  # the envelope's result alone
                    assert json.loads(out) == env["result"]
        elif code == 1:
            assert set(json.loads(err)) == {"error"}
        else:
            assert code == 2 and "usage: hkpell" in err, (argv, code)


if __name__ == "__main__":
    ENVELOPES.write_text(json.dumps([_envelope(argv) for argv in _envelope_argvs()],
                                    indent=1) + "\n")
