"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from fractions import Fraction
from math import gcd, isqrt

from hkpell import arith, autgroups, cones, pell, periods, rrinv
from hkpell.arith import is_square

F = Fraction


def _report(number: int, description: str, t0: float, budget: float):
    elapsed = time.time() - t0
    print(f"[PASS] criterion {number} ({elapsed:.2f}s <= {budget:.0f}s): {description}")
    assert elapsed <= budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_s2_cone_table():
    t0 = time.time()
    expected = {
        1: (None, (3, 1), F(1), F(2, 3)),
        2: ((3, 2), None, F(4, 3), None),
        3: ((2, 1), None, F(3, 2), None),
        4: (None, None, F(2), None),
        5: ((9, 4), (5, 1), F(20, 9), F(2)),
        6: ((5, 2), None, F(12, 5), None),
        7: ((8, 3), None, F(21, 8), None),
        8: ((3, 1), None, F(8, 3), None),
        9: (None, None, F(3), None),
        10: ((19, 6), None, F(60, 19), None),
        11: ((10, 3), (7, 1), F(33, 10), F(22, 7)),
        12: ((7, 2), None, F(24, 7), None),
        13: ((649, 180), None, F(2340, 649), None),
    }
    for e, (p1, p5, mov, nef) in expected.items():
        got1 = pell.min_positive_solution(pell.PellEquation.classical(e, 1))
        got5 = pell.min_positive_solution(pell.PellEquation.classical(4 * e, 5))
        assert (None if got1 is None else (got1.a, got1.b)) == p1, e
        assert (None if got5 is None else (got5.a, got5.b)) == p5, e
        rep = cones.walls_s2(e)
        mv, nf = rep.mov_slope, rep.nef_slope
        assert mv.is_rational and mv.value == mov, e
        if nef is None:
            assert nf == mv, e
        else:
            assert nf.is_rational and nf.value == nef, e
    _report(1, "Hilbert-square cone table for e = 1..13", t0, 1)


def test_criterion_2_s2_walls_table():
    t0 = time.time()
    expected = {
        5: [F(2)],
        11: [F(22, 7)],
        19: [F(38, 9)],
        29: [F(58, 11), F(12122, 2251)],
        31: [F(3658, 657)],
        41: [F(82, 13), F(2542, 397)],
        55: [F(22, 3)],
        71: [F(142, 17)],
    }
    for e, walls in expected.items():
        assert list(cones.walls_s2(e).interior_walls) == walls, e
    _report(2, "Hilbert-square wall table for the eight split degrees", t0, 1)


def test_criterion_3_automorphism_table():
    t0 = time.time()
    expected = {
        2: ("1", "Z x| Z/2"), 3: ("1", "1"), 4: ("1", "1"), 5: ("1", "Z"),
        6: ("Z", "Z"), 7: ("1", "1"), 8: ("1", "Z"), 9: ("Z", "Z"),
        10: ("Z", "Z"), 11: ("Z x| Z/2", "Z x| Z/2"),
    }
    for ep, (aut, bir) in expected.items():
        a, b = autgroups.fourfold_groups(3, ep)
        assert (str(a), str(b)) == (aut, bir), ep
    _report(3, "rank-2 fourfold automorphism table at n = 3, e' = 2..11", t0, 1)


def test_criterion_4_period_image_lists():
    t0 = time.time()
    def discriminants(m):
        return sorted({k.d for k in periods.excluded_heegner(m, 1, 2)})

    assert discriminants(4) == [2, 6, 8]
    assert discriminants(8) == [2, 4, 8, 14, 16, 18, 22, 32]
    assert discriminants(12) == [2, 6, 8, 10, 18, 22, 24, 28, 30, 32, 40, 50, 54, 72]

    keys11 = periods.excluded_heegner(2, 1, 1)
    assert sorted((k.d, k.kappa_prim_sq, k.s) for k in keys11) == [
        (2, -2, 2), (2, -2, 2), (8, -2, 1), (10, -10, 2)]
    assert len([k for k in keys11 if k.d == 2]) == 2  # both components

    assert [(k.d, k.s) for k in periods.excluded_heegner(2, 3, 2)] == [(6, 1)]
    assert [(k.d, k.s) for k in periods.excluded_heegner(2, 11, 2)] == [(22, 1)]
    _report(4, "period-image exclusion lists (m = 4, 8, 12 and m = 2 families)", t0, 5)


def test_criterion_5_oracle_equivalence():
    t0 = time.time()
    for (m, n, gamma) in [(2, 1, 1), (2, 3, 2), (2, 11, 2), (4, 1, 2)]:
        p = m - 1
        squares = set()
        for wc in arith.wall_constraints(m):
            b = 1
            while b * b <= abs(wc.kappa_sq):
                if wc.kappa_sq % (b * b) == 0 and (wc.kappa_sq // (b * b)) % 2 == 0:
                    squares.add(wc.kappa_sq // (b * b))
                b += 1
        oracle = periods.coordinate_oracle(m, n, gamma, 12, frozenset(squares))
        analytic = periods.excluded_heegner(m, n, gamma)
        model = periods._model(m, n, gamma)
        for key in analytic:
            amb = periods._ambient_div(model, key.star, key.s)
            assert (key.kappa_prim_sq, key.s, key.star, amb) in oracle, key
        for (k2, s, star, amb) in oracle:
            qualifies = any(
                wc.kappa_sq % k2 == 0
                and is_square(wc.kappa_sq // k2)
                and (isqrt(wc.kappa_sq // k2) * amb) % (2 * p) == 0
                for wc in arith.wall_constraints(m)
            )
            if qualifies:
                assert periods._key(m, n, gamma, k2, s, star) in analytic, \
                    (m, n, gamma, k2, s, star)
    _report(5, "coordinate oracle (bound 12) confirms the exclusion keys", t0, 60)


def test_criterion_6_riemann_roch():
    t0 = time.time()
    def chi(m, q):
        return rrinv.chi(rrinv.RiemannRochInput(rrinv.HILB_K3, m, q))

    assert chi(2, 6) == 15
    assert chi(2, 22) == 91
    assert chi(4, 2) == 15
    assert chi(3, 4) == 20
    for m in range(2, 41):
        for n in range(1, 41):
            assert rrinv.h0_polarized(m, n) == rrinv.h0_polarized(n + 1, m - 1)
    _report(6, "section counts and the strange-duality symmetry", t0, 1)


def test_criterion_7_property_suites():
    t0 = time.time()

    # (i) exactness and brute-force minimality, d <= 200, |t| <= 50
    sols = {}
    for d in range(2, 201):
        if is_square(d):
            continue
        for t in [x for x in range(-50, 51) if x]:
            s = pell.min_positive_solution(pell.PellEquation.classical(d, t))
            if s is not None:
                assert s.a * s.a - d * s.b * s.b == t, (d, t, s)
                assert s.a > 0 and s.b > 0
            sols[(d, t)] = s
    for (d, t), got in sols.items():
        found = None
        for b in range(1, 401):
            a2 = d * b * b + t
            if a2 > 0:
                r = isqrt(a2)
                if r * r == a2:
                    found = (r, b)
                    break
        if got is None:
            assert found is None, (d, t, found)
        elif found is not None:
            assert (got.a, got.b) == found, (d, t, got, found)
        else:
            assert got.b > 400
    rng = random.Random(2024)
    for (d, t) in rng.sample(sorted(sols), 30):
        got = sols[(d, t)]
        bmax = isqrt((10 ** 12 - t) // d)
        found = None
        for b in range(1, bmax + 1):
            a2 = d * b * b + t
            if a2 > 0:
                r = isqrt(a2)
                if r * r == a2:
                    found = (r, b)
                    break
        if got is None or got.a > 10 ** 6:
            assert found is None, (d, t, found)
        else:
            assert (got.a, got.b) == found, (d, t, got, found)

    # (ii) class-count law for prime (or unit) right-hand sides
    for d in range(2, 201):
        if is_square(d):
            continue
        for u in (1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            for t in (u, -u):
                cls = pell.solution_classes(d, t)
                if not cls:
                    continue
                if (2 * d) % u == 0:
                    assert len(cls) == 1, (d, t)
                else:
                    assert len(cls) <= 2, (d, t)
                    if len(cls) == 2:
                        assert cls[0].conjugate_of == 1
                        assert cls[1].conjugate_of == 0

    # (iii) nef-slope floor bound for e <= 2000 (e = 1 has slope 2/3 < 1, and
    # e = 5 touches the floor; the sqrt-equality holds exactly at squares)
    for e in range(2, 2001):
        nu = cones.walls_s2(e).nef_slope
        fl = isqrt(e)
        assert nu.squared() >= fl * fl, e
        assert (nu.squared() == e) == is_square(e), e

    # (iv) nef <= mov everywhere sampled
    for e in range(1, 501):
        rep = cones.walls_s2(e)
        assert rep.nef_slope <= rep.mov_slope, e
    for n in range(3, 52, 4):
        for ep in range(2, 51):
            rep = cones.fourfold_cones(n, ep, prefix=1)
            assert rep.nef_slope <= rep.mov_slope, (n, ep)

    # (v) the generic wall machinery reduces to the closed form at m = 2
    for e in range(1, 201):
        assert cones.walls_sm(e, 2).interior_walls == \
            cones.walls_s2(e).interior_walls, e

    # (vi) class identities of Hilbert-square parametrizations
    for n in (1, 2, 3, 5, 7, 11, 13):
        for e in range(1, 60):
            for a, b, g in periods.hilbert_square_points(n, e):
                assert a * a - e * b * b == -n
                assert gcd(a, b) == 1
                assert 2 * e * b * b - 2 * a * a == 2 * n
                assert gcd(b, 2 * a) == g

    _report(7, "property suites (i)-(vi)", t0, 120)


def test_criterion_8_hilbert_square_examples():
    t0 = time.time()
    assert periods.hilbert_square_point(3, 7) == (5, 2, 2)
    assert periods.hilbert_square_points(3, 13) == ((7, 2, 2), (137, 38, 2))
    assert periods.hilbert_square_point(11, 4) is None
    _report(8, "Hilbert-square parametrization examples", t0, 1)
