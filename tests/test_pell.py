import functools
import importlib
import importlib.util
import inspect
import math
import os
import pkgutil
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import islice, takewhile
from math import gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hkpell
from hkpell.arith import is_square, square_divisors
from hkpell.pell import (ExcludedDegenerateCase, PellEquation, PellError, PellSolution,
                         PerfectSquareInput, Solvability, Unsolvable,
                         WrongEquation, compose_to_unit, fundamental_solution,
                         generalized_min,
                         min_positive_solution, positive_solutions, same_class,
                         solution_classes, solutions_in_order, solvability)
from hkpell.pell import _canonical_rep, _class_reps, _mul_unit, _negative_unit, _pqa_hits

C = PellEquation.classical
SRC = str(Path(__file__).resolve().parents[1] / "src")


def brute_min(d, t, bmax):
    for b in range(1, bmax + 1):
        a2 = d * b * b + t
        if a2 > 0:
            r = isqrt(a2)
            if r * r == a2:
                return PellSolution(r, b)
    return None


# ---------------------------------------------------------------------------
# fundamental units


def test_fundamental_golden():
    assert fundamental_solution(2) == PellSolution(3, 2)
    assert fundamental_solution(13) == PellSolution(649, 180)
    assert fundamental_solution(20) == PellSolution(9, 2)
    assert fundamental_solution(61) == PellSolution(1766319049, 226153980)


def test_caches_are_bounded():
    # a long-running caller must not grow them without limit
    for cache in (fundamental_solution, _class_reps):
        assert cache.cache_info().maxsize is not None, cache


def test_the_benchmarks_empty_cache_guard_counts_every_cache():
    # the benchmark refuses a pass unless bench/tracing.py's cached_entries()
    # reads 0 at its start, which proves the caches empty only if it counts
    # every one of them: each lru_cache of the package, found by a scan of
    # every module, filled once, must raise the count by one
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    fills = {"hkpell.pell.fundamental_solution": (13,), "hkpell.pell._class_reps": (13, -4)}
    found = {}
    for info in pkgutil.walk_packages(hkpell.__path__, "hkpell."):
        if info.name.endswith("__main__"):  # it would run a launch
            continue
        for obj in vars(importlib.import_module(info.name)).values():
            if isinstance(obj, functools._lru_cache_wrapper):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    assert set(found) == set(fills)
    for cache in found.values():
        cache.cache_clear()
    held = tracing.cached_entries()
    for name, args in fills.items():
        found[name](*args)
        assert tracing.cached_entries() == held + 1, name
        held += 1


def _two_convergent_unit(d):
    """pell.fundamental_solution as it was: the half-period expansion carries
    both convergents p_i and q_i.  Returns the unit and whether the period is
    odd, i.e. which closing formula gave it."""
    r = isqrt(d)
    m, den, a = 0, 1, r
    p_prev, p = 1, r
    q_prev, q = 0, 1
    while True:
        m_next = den * a - m
        if m_next == m:
            unit = (p_prev * p_prev + d * q_prev * q_prev) // den, 2 * p_prev * q_prev // den
            return PellSolution(*unit), False
        den_next = (d - m_next * m_next) // den
        if den_next == den:
            x, y = (p_prev * p + d * q_prev * q) // den, (p_prev * q + p * q_prev) // den
            return PellSolution(x * x + d * y * y, 2 * x * y), True
        m, den = m_next, den_next
        a = (r + m) // den
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q


def test_units_match_the_two_convergent_expansion():
    # the expansion carries the numerators alone and reads q at the midpoint;
    # the uncached solver must give the reference's unit on both closing
    # branches, for small d and for units of up to 24000 bits
    rng = random.Random(30)
    pool = set()
    while len(pool) < 200:
        d = int(math.exp(rng.uniform(math.log(10**6), math.log(10**9))))
        if not is_square(d):
            pool.add(d)
    odd = set()
    for d in [d for d in range(2, 20000) if not is_square(d)] + sorted(pool):
        unit, is_odd = _two_convergent_unit(d)
        assert fundamental_solution.__wrapped__(d) == unit, d
        if d in pool:
            odd.add(is_odd)
    assert odd == {False, True}


def test_fundamental_square_input():
    with pytest.raises(PerfectSquareInput):
        fundamental_solution(4)


@pytest.fixture
def default_int_str_limit():
    """The interpreter's default int-to-str digit limit (4300), which the CLI
    lifts for the whole process when a test runs it in process."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit before Python 3.11")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_repr_of_unit_past_str_digit_limit(default_int_str_limit):
    assert repr(PellSolution(649, 180)) == "PellSolution(a=649, b=180)"
    u = fundamental_solution(10**9 + 7)  # about 6400 digits
    assert repr(u) == str(u) == (f"PellSolution(a=<{u.a.bit_length()}-bit int>, "
                                 f"b=<{u.b.bit_length()}-bit int>)")
    with pytest.raises(WrongEquation, match="16610-bit"):
        same_class(7, 2, PellSolution(10**5000, 1), PellSolution(3, 1))


def test_repr_of_every_record_past_str_digit_limit(default_int_str_limit):
    # Record's rule, not PellSolution's: the Mov ray of e = 999999937, m = 2
    # is built from the unit of d = 999999937, of 88557 bits
    from hkpell import arith, cones, periods

    assert repr(cones.mov_ray_sm(999999937, 2)[0]) == \
        "DivisorClass(c_l=<88557-bit int>, c_delta=<88572-bit int>)"
    assert repr(arith.WallConstraint(10**5000, -1, 2)) == \
        "WallConstraint(k=<16610-bit int>, a=-1, kappa_sq=2)"
    assert repr(periods.HeegnerKey(10**5000, -12, 2, (0, 1))) == \
        "HeegnerKey(d=<16610-bit int>, kappa_prim_sq=-12, s=2, star=(0, 1))"
    # each part of a rational, and each item of a tuple, follows the same rule
    slope = cones.ExtremalSlope(False, Fraction(10**5000, 3))
    assert repr(slope) == "ExtremalSlope(is_sqrt=False, value=Fraction(<16610-bit int>, 3))"
    report = cones.ConeReport(slope, slope, (Fraction(10**5000, 3),), False, True)
    assert repr(report) == (
        f"ConeReport(mov_slope={slope!r}, nef_slope={slope!r}, "
        "interior_walls=(Fraction(<16610-bit int>, 3),), walls_infinite=False, symmetric=True)")
    assert repr(periods.HeegnerKey(6, -12, 2, (0, 10**5000))) == \
        "HeegnerKey(d=6, kappa_prim_sq=-12, s=2, star=(0, <16610-bit int>))"


def test_str_of_slope_past_str_digit_limit(default_int_str_limit):
    # ratio_text writes each part as a record's repr does
    from hkpell import cones

    assert str(cones.walls_s2(999999937).mov_slope) == "<88572-bit int>/<88557-bit int>"
    assert str(cones.ExtremalSlope(True, Fraction(10**5000, 3))) == "sqrt(<16610-bit int>/3)"
    assert str(cones.ExtremalSlope(False, Fraction(7, 3))) == "7/3"


class _SkewedD(int):
    """d whose products are off by one, so the PQa norm check must fail."""

    def __mul__(self, other):
        return int(self) * other + 1


def test_pqa_error_on_big_convergents_is_a_pell_error(default_int_str_limit):
    # the first hit of sqrt(10**9 + 7) is a convergent of about 6400 digits
    with pytest.raises(PellError, match="21198 and 21183 bits"):
        _pqa_hits(_SkewedD(10**9 + 7), 1, 0)


def test_fundamental_norm_check_is_a_pell_error():
    # a skewed d spoils the closing products, so the norm check must fail
    ds = (2, 3, 13, 61, 10**9 + 9)
    for d in ds:
        with pytest.raises(PellError, match="did not yield a unit"):
            fundamental_solution.__wrapped__(_SkewedD(d))
    # python -O strips asserts: the check must not be one
    code = inspect.getsource(_SkewedD) + textwrap.dedent(f"""
        from hkpell.pell import PellError, fundamental_solution
        for d in {ds}:
            try:
                fundamental_solution.__wrapped__(_SkewedD(d))
            except PellError:
                continue
            raise SystemExit(f"no PellError for d = {{d}}")
        """)
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr


def test_units_match_sympy():
    diop_DN = pytest.importorskip("sympy.solvers.diophantine.diophantine").diop_DN
    # k^2 +- 1 and k^2 +- 2 meet the midpoint of their period at the first or
    # second step; 100000037 = 1 mod 4 is a prime with an odd period
    near_squares = [k * k + j for k in (10, 99, 1000, 31623) for j in (-2, -1, 1, 2)]
    for d in ([d for d in range(2, 2000) if not is_square(d)] + near_squares
              + [10**8 + 7, 100000037]):
        unit, neg = fundamental_solution(d), _negative_unit(d)
        negs = [] if neg is None else [neg]
        assert [tuple(unit)] == diop_DN(d, 1), d
        assert [tuple(s) for s in negs] == diop_DN(d, -1), d
        assert [c.representative for c in solution_classes(d, 1)] == [unit], d
        assert [c.representative for c in solution_classes(d, -1)] == negs, d


def test_domain_errors():
    with pytest.raises(ValueError, match="nonzero"):
        solution_classes(13, 0)
    with pytest.raises(ValueError, match="positive"):
        solution_classes(-5, 1)
    with pytest.raises(ValueError, match="positive"):
        solutions_in_order(-5, 1, 3)
    with pytest.raises(ValueError, match="nonzero"):
        solutions_in_order(13, 0, 3)
    with pytest.raises(ValueError, match="nonzero"):
        same_class(5, 0, PellSolution(0, 0), PellSolution(0, 0))
    with pytest.raises(ValueError, match="positive"):
        same_class(-5, 1, PellSolution(1, 0), PellSolution(1, 0))
    with pytest.raises(ValueError, match="positive"):
        same_class(0, 1, PellSolution(1, 0), PellSolution(-1, 0))


@given(st.integers(min_value=2, max_value=4000))
def test_fundamental_is_unit(d):
    if is_square(d):
        return
    a, b = fundamental_solution(d)
    assert a > 0 and b > 0 and a * a - d * b * b == 1


# ---------------------------------------------------------------------------
# minimal solutions


def test_min_positive_golden():
    assert min_positive_solution(C(20, 5)) == PellSolution(5, 1)
    assert min_positive_solution(PellEquation(3, 2, -1)) is None
    assert min_positive_solution(C(13, -1)) == PellSolution(18, 5)
    # square d goes through divisor pairs
    assert min_positive_solution(C(4, 5)) == PellSolution(3, 1)
    assert min_positive_solution(C(16, 5)) is None
    assert min_positive_solution(C(1, 1)) is None


def test_min_positive_long_period():
    # sqrt(d) has period 51714; d = 3 mod 4, so -1 is not a norm
    assert min_positive_solution(C(1000000411, -1)) is None


def test_min_positive_brute_sweep():
    for d in range(2, 80):
        if is_square(d):
            continue
        for t in (-11, -7, -4, -1, 1, 2, 5, 9, 12):
            got = min_positive_solution(C(d, t))
            want = brute_min(d, t, 300)
            if got is None:
                assert want is None, (d, t, want)
            else:
                assert got.a ** 2 - d * got.b ** 2 == t
                if want is not None:
                    assert got == want, (d, t, got, want)
                else:
                    assert got.b > 300


def test_solvability_flags():
    assert solvability(C(12, 5)).any_solution is False
    assert solvability(C(44, 5)).any_solution is True
    rep = solvability(PellEquation(1, 1, 1))
    assert rep.any_solution and not rep.with_positive_b
    rep = solvability(C(20, 5))
    assert rep.any_solution and rep.with_positive_b


def test_solvability_and_stream_match_brute_force():
    for e1 in range(1, 9):
        for e2 in range(1, 9):
            for t in [*range(-15, 0), *range(1, 16)]:
                eq = PellEquation(e1, e2, t)
                sols = []  # every solution with a, b >= 0 and a <= 400
                for a in range(401):
                    b2, r = divmod(e1 * a * a - t, e2)
                    if r == 0 and b2 >= 0 and is_square(b2):
                        sols.append((a, isqrt(b2)))
                box = [(a, b) for a, b in sols if a <= 60 and b <= 60]
                rep = solvability(eq)
                if is_square(e1 * e2):
                    # |t| <= 15 and e1 <= 8 keep every solution inside the box
                    assert rep == Solvability(bool(box), any(a and b for a, b in box)), eq
                else:
                    # the unit turns any solution into a positive one
                    assert rep.any_solution == rep.with_positive_b, eq
                    assert rep.with_positive_b or not box, eq
                if rep.with_positive_b:
                    assert eq.holds(*min_positive_solution(eq))
                got = takewhile(lambda s: s.a <= 400, positive_solutions(e1, e2, t))
                assert [tuple(s) for s in got] == [(a, b) for a, b in sols if a and b], eq


# ---------------------------------------------------------------------------
# classes


def test_classes_golden():
    two = solution_classes(164, 5)
    assert [c.representative for c in two] == [PellSolution(13, 1), PellSolution(397, 31)]
    assert two[0].conjugate_of == 1 and two[1].conjugate_of == 0

    one = solution_classes(20, 5)
    assert [c.representative for c in one] == [PellSolution(5, 1)]
    assert one[0].conjugate_of is None

    unit = solution_classes(2, 1)
    assert [c.representative for c in unit] == [PellSolution(3, 2)]
    assert unit[0].conjugate_of is None


def test_classes_match_sympy():
    diop_DN = pytest.importorskip("sympy.solvers.diophantine.diophantine").diop_DN
    # every d < 120 with |t| <= 8, and d < 20 up to |t| = 40: the full square
    # (d < 120, |t| <= 40) takes sympy about 20 s
    for d, t in [(d, t) for d in range(2, 120) for t in range(-40, 41)
                 if t and not is_square(d) and (abs(t) <= 8 or d < 20)]:
        u = fundamental_solution(d)
        cls = solution_classes(d, t)
        reps = [c.representative for c in cls]

        def homes(s):
            return [i for i, r in enumerate(reps) if same_class(d, t, r, s)]

        # one class per sympy class: each sympy solution lies in its own class
        theirs = diop_DN(d, t)
        assert len(reps) == len(theirs), (d, t)
        found = sorted(i for s in theirs for i in homes(PellSolution(*s)))
        assert found == list(range(len(reps))), (d, t)
        for i, (c, r) in enumerate(zip(cls, reps)):
            # least positive member: the class member below it is not positive
            below = (r.a * u.a - d * r.b * u.b, r.b * u.a - r.a * u.b)
            assert r.a > 0 and r.b > 0 and not (below[0] > 0 and below[1] > 0), (d, t, r)
            conj = i if c.conjugate_of is None else c.conjugate_of
            assert homes(PellSolution(r.a, -r.b)) == [conj], (d, t, r)


def _pqa_hits_of_both_norms(d, q0, z):
    """pell._pqa_hits as it was: every hit of norm +-q0, whichever the sign."""
    s = isqrt(d)
    p_cur, q_cur = z, q0
    g_prev2, g_prev = -z, q0
    b_prev2, b_prev = 1, 0
    hits, seen = [], {}
    while True:
        state = (p_cur, q_cur)
        seen[state] = seen.get(state, 0) + 1
        if seen[state] >= 3:
            return hits
        a_i = (p_cur + s) // q_cur if q_cur > 0 else (p_cur + s + 1) // q_cur
        g_i = a_i * g_prev + g_prev2
        b_i = a_i * b_prev + b_prev2
        p_next = a_i * q_cur - p_cur
        q_next = (d - p_next * p_next) // q_cur
        if abs(q_next) == 1:
            hits.append((g_i, b_i))
        g_prev2, g_prev = g_prev, g_i
        b_prev2, b_prev = b_prev, b_i
        p_cur, q_cur = p_next, q_next


def _class_reps_with_negative_norm_branch(d, t):
    """pell._class_reps as it was: a PQa hit of norm -m is carried to norm m
    by the unit of norm -1, when there is one."""
    reps = set()
    for f in square_divisors(t):
        m = t // (f * f)
        if abs(m) == 1:
            unit = fundamental_solution(d) if m == 1 else _negative_unit(d)
            if unit is not None:
                reps.add(_canonical_rep(d, t, f * unit.a, f * unit.b))
            continue
        for z in range(abs(m)):
            if (z * z - d) % abs(m):
                continue
            for g, b in _pqa_hits_of_both_norms(d, abs(m), z):
                if g * g - d * b * b != m:
                    neg = _negative_unit(d)
                    if neg is None:
                        continue
                    g, b = _mul_unit(g, b, d, neg)
                reps.add(_canonical_rep(d, t, f * g, f * b))
    return tuple(PellSolution(a, b) for a, b in sorted(reps))


def test_class_reps_need_no_third_norm_branch():
    # the hits of norm m alone give every class that the hits of norm -m,
    # carried by eta, gave before (the argument is in _class_reps)
    for d in range(2, 200):
        if is_square(d):
            continue
        for t in [*range(-30, 31), 49, -49, 100, -100, 144, 360]:
            if t:
                assert _class_reps(d, t) == _class_reps_with_negative_norm_branch(d, t), (d, t)
    # runs that meet both signs keep the asked one
    for d, m, z in [(13, 12, 1), (13, -12, 1), (5, 4, 1), (5, -4, 1), (2, 7, 3), (2, -7, 3)]:
        hits = _pqa_hits(d, m, z)
        assert hits and all(g * g - d * b * b == m for g, b in hits), (d, m, z)


def test_class_count_law():
    # equations with prime (or unit) |t| have one class when |t| divides 2d,
    # at most two conjugate classes otherwise
    for d in range(2, 120):
        if is_square(d):
            continue
        for u in (1, 2, 3, 5, 7, 11, 13):
            for t in (u, -u):
                cls = solution_classes(d, t)
                if not cls:
                    continue
                if (2 * d) % u == 0:
                    assert len(cls) == 1, (d, t, cls)
                else:
                    assert len(cls) <= 2, (d, t, cls)
                    if len(cls) == 2:
                        assert cls[0].conjugate_of == 1
                        assert cls[1].conjugate_of == 0


def test_same_class_golden():
    assert not same_class(164, 5, PellSolution(13, 1), PellSolution(397, 31))
    assert same_class(20, 5, PellSolution(5, 1), PellSolution(85, 19))
    assert same_class(2, 1, PellSolution(3, 2), PellSolution(3, -2))
    with pytest.raises(WrongEquation):
        same_class(2, 1, PellSolution(3, 2), PellSolution(4, 2))


def test_slope_chain():
    # class-minimal solutions have slope below the unit slope, and exactly one
    # further positive solution per conjugate pair does too
    for d, t in [(7, 2), (10, 9), (13, 3), (15, 10), (23, 2), (164, 5), (41, 5)]:
        if is_square(d) or is_square(t):
            continue
        cls = solution_classes(d, t)
        if not cls:
            continue
        a1, b1 = fundamental_solution(d)
        unit_slope = Fraction(b1, a1)
        qualifying = set()
        for c in cls:
            rep = c.representative
            assert Fraction(rep.b, rep.a) < unit_slope, (d, t, rep)
            qualifying.add((rep.a, rep.b))
            # the successor of the conjugate representative also qualifies
            x, y = rep.a, -rep.b
            nx, ny = x * a1 + d * y * b1, x * b1 + y * a1
            if nx < 0:
                nx, ny = -nx, -ny
            assert nx * nx - d * ny * ny == t
            if ny > 0:
                assert Fraction(ny, nx) < unit_slope
                qualifying.add((nx, ny))
        stream = solutions_in_order(d, t, 6 * len(cls) + 4)
        got = {(s.a, s.b) for s in stream if Fraction(s.b, s.a) < unit_slope}
        assert got == qualifying, (d, t, got, qualifying)


# ---------------------------------------------------------------------------
# ordered streams


def test_stream_golden():
    assert solutions_in_order(20, 5, 3) == [
        PellSolution(5, 1), PellSolution(85, 19), PellSolution(1525, 341)]
    assert solutions_in_order(164, 5, 2) == [PellSolution(13, 1), PellSolution(397, 31)]
    assert solutions_in_order(2, 1, 2) == [PellSolution(3, 2), PellSolution(17, 12)]
    # square d: the stream is finite, so fewer than count come back
    assert solutions_in_order(4, 5, 2) == [PellSolution(3, 1)]
    with pytest.raises(Unsolvable):
        solutions_in_order(12, 5, 1)
    # the message names the equation with no unit coefficient
    with pytest.raises(Unsolvable, match=r"^a\^2-2b\^2=3 has no positive solutions$"):
        solutions_in_order(2, 3, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=60), st.integers(min_value=-15, max_value=15))
def test_stream_matches_brute(d, t):
    if t == 0 or is_square(d):
        return
    brute = []
    for b in range(1, 4000):
        a2 = d * b * b + t
        if a2 > 0:
            r = isqrt(a2)
            if r * r == a2:
                brute.append(PellSolution(r, b))
        if len(brute) == 4:
            break
    try:
        got = solutions_in_order(d, t, 4)
    except Unsolvable:
        assert brute == []
        return
    assert got[:len(brute)] == brute or brute == got[:len(brute)]
    for s in got:
        assert s.a * s.a - d * s.b * s.b == t


# ---------------------------------------------------------------------------
# composition to the unit


def test_compose_golden():
    assert compose_to_unit(1, 13, -1, PellSolution(18, 5)) == PellSolution(649, 180)
    assert compose_to_unit(3, 2, 1, PellSolution(1, 1)) == PellSolution(5, 2)
    assert compose_to_unit(1, 2, -1, PellSolution(1, 1)) == PellSolution(3, 2)


def test_compose_excluded_cases():
    with pytest.raises(ExcludedDegenerateCase):
        compose_to_unit(1, 2, 1, PellSolution(3, 2))
    with pytest.raises(ExcludedDegenerateCase):
        compose_to_unit(2, 1, -1, PellSolution(1, 1))


def test_compose_matches_fundamental_random():
    rng = random.Random(7)
    checked = 0
    while checked < 120:
        e1 = rng.randint(1, 12)
        e2 = rng.randint(1, 12)
        eps = rng.choice((1, -1))
        if (e1 == 1 and eps == 1) or (e2 == 1 and eps == -1):
            continue
        if is_square(e1 * e2):
            continue
        s = generalized_min(e1, e2, eps)
        if s is None:
            continue
        assert compose_to_unit(e1, e2, eps, s) == fundamental_solution(e1 * e2)
        checked += 1


# ---------------------------------------------------------------------------
# generalized equations


def test_generalized_golden():
    assert generalized_min(3, 8, -5) == PellSolution(1, 1)
    assert generalized_min(3, 6, 1) is None
    assert list(islice(positive_solutions(3, 8, -5), 3)) == [
        PellSolution(1, 1), PellSolution(3, 2), PellSolution(13, 8)]


def test_generalized_agrees_with_classical():
    for e in range(1, 51):
        for t in range(-20, 21):
            if t == 0:
                continue
            assert generalized_min(1, e, t) == min_positive_solution(C(e, t)), (e, t)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=10),
       st.integers(min_value=-12, max_value=12))
def test_generalized_exactness(e1, e2, t):
    if t == 0:
        return
    s = generalized_min(e1, e2, t)
    if s is not None:
        assert e1 * s.a ** 2 - e2 * s.b ** 2 == t
        assert s.a > 0 and s.b > 0
        # nothing smaller, by brute force
        for b in range(1, min(s.b, 200)):
            num = e2 * b * b + t
            if num > 0 and num % e1 == 0 and is_square(num // e1):
                a = isqrt(num // e1)
                assert a >= s.a, (e1, e2, t, s, (a, b))
    else:
        for a in range(1, 120):
            for b in range(1, 120):
                assert e1 * a * a - e2 * b * b != t, (e1, e2, t, a, b)


def test_positive_solutions_with_e2_one_match_a_scan():
    # e1*a^2 - b^2 = t runs as the classical b^2 - e1*a^2 = -t; a scan of
    # a <= A finds every solution below A, by increasing a
    A = 1500
    scanned = {}
    for e1 in range(2, 61):
        for a in range(1, A + 1):
            v = e1 * a * a
            for b in range(isqrt(max(v - 41, 0)), isqrt(v + 40) + 2):
                t = v - b * b
                if b > 0 and 1 <= abs(t) <= 40:
                    scanned.setdefault((e1, t), []).append((a, b))
    for e1 in range(2, 61):
        for t in [*range(-40, 0), *range(1, 41)]:
            stream = takewhile(lambda s: s.a <= A, islice(positive_solutions(e1, 1, t), 4))
            expect = scanned.get((e1, t), [])[:4]
            assert [tuple(s) for s in stream] == expect, (e1, t)
