from fractions import Fraction
from itertools import islice, takewhile
from math import comb, gcd, isqrt

import pytest

from hkpell import cones, pell
from hkpell.arith import ConeError, check_polarization, is_square
from hkpell.autgroups import fourfold_groups
from hkpell.cones import (BadCongruence, ConeReport, DivisorClass,
                          ExtremalSlope, UnsupportedM, fourfold_cones,
                          hilb_embedding_status, k_very_ample,
                          moduli_embedding_status, mov_ray_sm,
                          nef_ray_sm_special, walls_s2, walls_sm)
from hkpell.pell import fundamental_solution, generalized_min

F = Fraction


def test_slope_type():
    assert ExtremalSlope.sqrt_of(4) == ExtremalSlope.rational(2)
    assert ExtremalSlope.sqrt_of(F(9, 4)) == ExtremalSlope.rational(F(3, 2))
    s = ExtremalSlope.sqrt_of(F(3, 2))
    assert not s.is_rational and str(s) == "sqrt(3/2)"
    assert ExtremalSlope.rational(F(6, 5)) < s < ExtremalSlope.rational(F(5, 4))
    assert str(ExtremalSlope.rational(F(22, 7))) == "22/7"


# the printed degree table, e = 1..13
MOV_TABLE = ["1", "4/3", "3/2", "2", "20/9", "12/5", "21/8", "8/3", "3",
             "60/19", "33/10", "24/7", "2340/649"]
NEF_TABLE = ["2/3", "=", "=", "=", "2", "=", "=", "=", "=", "=", "22/7", "=", "="]


def test_s2_slope_table():
    for e in range(1, 14):
        rep = walls_s2(e)
        mov, nef = rep.mov_slope, rep.nef_slope
        assert mov.is_rational
        assert mov.value == F(MOV_TABLE[e - 1])
        if NEF_TABLE[e - 1] == "=":
            assert nef == mov
        else:
            assert nef.value == F(NEF_TABLE[e - 1])


WALLS_TABLE = {
    5: [F(2)],
    11: [F(22, 7)],
    19: [F(38, 9)],
    29: [F(58, 11), F(12122, 2251)],
    31: [F(3658, 657)],
    41: [F(82, 13), F(2542, 397)],
    55: [F(22, 3)],
    71: [F(142, 17)],
}


def test_s2_walls_table():
    for e, walls in WALLS_TABLE.items():
        rep = walls_s2(e)
        assert list(rep.interior_walls) == walls, e
        assert not rep.nef_equals_mov


def test_s2_walls_structure():
    for e in range(1, 200):
        rep = walls_s2(e)
        assert rep.nef_slope <= rep.mov_slope
        assert len(rep.interior_walls) <= 2
        mu2 = rep.mov_slope.squared()
        for w in rep.interior_walls:
            assert 0 < w * w < mu2
        if rep.interior_walls:
            assert rep.nef_slope.value == rep.interior_walls[0]
        else:
            assert rep.nef_equals_mov


def test_wall_count_criterion():
    # two interior walls exactly when the unit has even b and e is prime to 5
    from hkpell.pell import PellEquation, fundamental_solution, min_positive_solution
    for e in range(2, 150):
        rep = walls_s2(e)
        solvable = min_positive_solution(PellEquation.classical(4 * e, 5)) is not None
        if not solvable:
            assert rep.interior_walls == ()
            continue
        b1 = 1 if e == 1 else fundamental_solution(e).b
        expect = 2 if (b1 % 2 == 0 and e % 5) else 1
        assert len(rep.interior_walls) == expect, e


def test_mov_ray_sm_cases():
    ray, case = mov_ray_sm(5, 3)
    assert (ray.c_l, ray.c_delta, case) == (19, 30, "congruence")
    ray, case = mov_ray_sm(2, 3)
    assert (ray.c_l, ray.c_delta, case) == (2, 2, "isotropic")
    ray, case = mov_ray_sm(2, 2)
    assert (ray.c_l, ray.c_delta, case) == (3, 4, "two-term")
    # m = 2 always reduces to the degree-table slope
    for e in range(1, 120):
        ray, _ = mov_ray_sm(e, 2)
        assert ExtremalSlope.sqrt_of(F(ray.c_delta ** 2, ray.c_l ** 2)) == walls_s2(e).mov_slope, e
    # each bound names the one value that breaks it
    with pytest.raises(ValueError, match="^e must be positive, got e=0$"):
        mov_ray_sm(0, 3)
    with pytest.raises(ValueError, match="^m must be at least 2, got m=1$"):
        mov_ray_sm(5, 1)


def test_mov_ray_square():
    for e, m in [(5, 3), (2, 3), (7, 4), (3, 5), (10, 3), (6, 7)]:
        ray, case = mov_ray_sm(e, m)
        sq = ray.square(e, m)
        if case == "isotropic":
            assert sq == 0
        elif case == "two-term":
            assert sq == 2 * e * (m - 1)
        else:
            assert sq == 2 * e


def test_nef_ray_sm_special():
    assert nef_ray_sm_special(2, 5) == (DivisorClass(7, 4), False)
    assert nef_ray_sm_special(4, 2) == (DivisorClass(1, 2), True)
    assert nef_ray_sm_special(3, 5) == (DivisorClass(8, 6), True)  # m = e + 2
    assert nef_ray_sm_special(11, 3) is None


def test_nef_ray_sm_special_matches_the_walls():
    # the closed forms against the first wall of the enumerator
    cases = 0
    for m in (2, 3, 4):
        for e in range(1, 400):
            special = nef_ray_sm_special(e, m)
            if special is None:
                continue
            ray, equal = special
            rep = walls_sm(e, m)
            assert rep.nef_slope == ExtremalSlope.rational(ray.slope()), (e, m)
            assert rep.nef_equals_mov == equal, (e, m)
            cases += 1
    assert cases == 50


def _mov_ray_sm_squaring_twice(e, m):
    """mov_ray_sm's congruence case as it was: the unit is tried, squared and
    tried again, with a ConeError if neither has a = +-1 mod m-1."""
    p = m - 1
    a, b = fundamental_solution(e * p)
    for _ in range(2):
        if a % p in (1 % p, (-1) % p):
            return DivisorClass(a, e * b), "congruence"
        a, b = a * a + e * p * b * b, 2 * a * b
    raise ConeError(f"no unit of a^2 - {e * p}b^2 = 1 has a = +-1 mod {p}")


def test_mov_ray_sm_squares_the_unit_at_most_once():
    squared = 0
    for e in range(1, 121):
        for m in range(2, 41):
            ray, case = mov_ray_sm(e, m)
            if case != "congruence":
                continue
            assert (ray, case) == _mov_ray_sm_squaring_twice(e, m), (e, m)
            squared += ray.c_l != fundamental_solution(e * (m - 1)).a
    assert squared == 947  # the squaring branch stays live


def test_walls_sm_examples():
    assert walls_sm(5, 3).interior_walls == (F(10, 7), F(20, 13))
    # degree-6 Hilbert cube: the residual involution makes exactly one wall
    assert walls_sm(3, 3).interior_walls == (F(1),)
    assert walls_sm(8, 3).interior_walls == ()  # e = (m-1) * 2^2: cones agree
    with pytest.raises(UnsupportedM):
        walls_sm(2, 5)


def _pairs(types):
    return tuple((t.kappa_prim_sq, t.div) for t in types)


def test_wall_types_come_from_the_wall_constraints():
    from hkpell.arith import wall_types

    # the (square, divisibility) table that walls_sm read before the types
    # were derived from arith.wall_constraints
    literal = {
        2: ((-2, 1), (-10, 2)),
        3: ((-2, 1), (-4, 2), (-4, 4), (-12, 2), (-36, 4)),
        4: ((-2, 1), (-6, 2), (-6, 3), (-6, 6), (-14, 2), (-24, 3), (-78, 6)),
    }
    assert _pairs(wall_types(3)) == literal[3]
    assert _pairs(wall_types(4)) == literal[4]
    # m = 2 adds the divisibility-2 (-2)-classes, which lie on the movable
    # boundary and cut no interior wall
    assert _pairs(wall_types(2)) == ((-2, 1), (-2, 2), (-10, 2))
    assert set(_pairs(wall_types(2))) - set(literal[2]) == {(-2, 2)}


def test_no_flopping_constraint_has_a_mov_boundary_type():
    # the argument in arith.wall_types' docstring, for every m - 1 prime or 1
    # up to 23: a type that both kinds of constraint had would be listed
    # twice, once flagged
    from hkpell.arith import wall_types

    for p in (1, 2, 3, 5, 7, 11, 13, 17, 19, 23):
        types = wall_types(p + 1)
        boundary = set(_pairs(t for t in types if t.bounds_mov))
        flops = set(_pairs(t for t in types if not t.bounds_mov))
        assert boundary == {(-2, 1), (-2 * p, 2 * p), (-2 * p, p)}, p
        assert not boundary & flops, p


def test_walls_sm_matches_s2():
    # the paper's S^[2] rule: the nef slope is 2e*b/a for the minimal solution of
    # a^2 - 4e*b^2 = 5, or mov when there is none; mov is sqrt(e) for square e,
    # and e*b1/a1 for the unit (a1, b1) of a^2 - e*b^2 = 1 otherwise
    for e in range(1, 1500):
        if is_square(e):
            mov = ExtremalSlope.rational(isqrt(e))
        else:
            a1, b1 = fundamental_solution(e)
            mov = ExtremalSlope.rational(F(e * b1, a1))
        five = generalized_min(1, 4 * e, 5)
        nef = mov if five is None else ExtremalSlope.rational(F(2 * e * five.b, five.a))
        rep = walls_sm(e, 2)
        assert (rep.mov_slope, rep.nef_slope) == (mov, nef), e


def test_walls_sm_match_a_box_of_classes():
    # an oracle without the Pell solver: the wall classes X*L - Y*delta of
    # Bayer-Macri (Invent. Math. 2014, sec. 13), of square kappa^2 and
    # divisibility s, scanned over X <= 2000 for each unflagged type.  A
    # class cuts the wall e*X/((m-1)*Y) when that slope lies below Mov, and
    # X is the numerator of (m-1)*w/e for the wall w it cuts
    from hkpell.arith import wall_types

    box, inside, total = 2000, 0, 0
    for m in (2, 3, 4):
        p = m - 1
        types = [t for t in wall_types(m) if not t.bounds_mov]
        for e in range(1, 121):
            rep = walls_sm(e, m)
            mov = rep.mov_slope.value
            found = set()
            for t in types:
                s = t.div
                for x in range(1, box + 1):
                    y2, r = divmod(2 * e * x * x - t.kappa_prim_sq, 2 * p)
                    y = isqrt(y2)
                    if r or y * y != y2 or gcd(x, y) != 1 or gcd(x, 2 * p * y) != s:
                        continue
                    if (slope := F(e * x, p * y)) < mov:
                        found.add(slope)
            walls = {w for w in rep.interior_walls if (p * w / e).numerator <= box}
            assert found == walls, (m, e)
            inside, total = inside + len(walls), total + len(rep.interior_walls)
    assert (inside, total) == (154, 173)


def test_walls_sm_inside_cone():
    for m in (3, 4):
        for e in range(1, 40):
            rep = walls_sm(e, m)
            mu2 = rep.mov_slope.squared()
            for w in rep.interior_walls:
                assert 0 < w * w < mu2, (e, m, w)
            assert rep.nef_slope <= rep.mov_slope


def test_fourfold_cones():
    rep = fourfold_cones(3, 2, prefix=3)
    assert str(rep.mov_slope) == "sqrt(3/2)"
    assert rep.nef_slope.value == F(3, 4)
    assert rep.walls_infinite and rep.symmetric
    assert rep.interior_walls == (F(3, 4), F(9, 8), F(39, 32))

    rep = fourfold_cones(3, 3)
    assert rep.nef_equals_mov and rep.mov_slope == ExtremalSlope.rational(1)

    rep = fourfold_cones(3, 12)  # n * e' = 36 is a perfect square
    assert rep.nef_equals_mov and rep.mov_slope.is_rational

    rep = fourfold_cones(3, 5)
    assert not rep.mov_slope.is_rational and rep.nef_slope.is_rational

    with pytest.raises(BadCongruence):
        fourfold_cones(2, 5)
    with pytest.raises(ValueError, match="n=-5"):  # -5 = 3 mod 4
        fourfold_cones(-5, 5)


def test_fourfold_domain_is_the_polarization_rule():
    # H is a square-2n class of divisibility 2 on a fourfold of K3^[2] type
    for n in range(-9, 41):
        if n < 1:
            expected = None
        else:
            try:
                check_polarization(2, n, 2)
                expected = ()
            except BadCongruence as exc:
                expected = str(exc)
        for ep in (2, 3, 5):
            for call in (fourfold_cones, fourfold_groups):
                try:
                    call(n, ep)
                    got = ()
                except BadCongruence as exc:
                    got = str(exc)
                except ValueError as exc:
                    assert str(exc) == f"n must be positive, got n={n}", (call, n, ep)
                    got = None
                assert got == expected, (call, n, ep)


def test_fourfold_rational_mov_has_at_most_one_wall_pair():
    # a rational movable slope leaves three chambers at most: the nef
    # boundary is the one wall pair
    pairs = 0
    for n in range(3, 64, 4):
        for ep in range(2, 301):
            rep = fourfold_cones(n, ep, prefix=8)
            if not rep.mov_slope.is_rational:
                continue
            assert not rep.walls_infinite, (n, ep)
            if not rep.nef_equals_mov:
                assert rep.interior_walls == (rep.nef_slope.value,), (n, ep)
                pairs += 1
    assert pairs == 41


def _walls_bounded_by_x(a, b, sx, sy, t, mov, prefix=None, keep=None):
    """cones._walls as it was: a rational mov bounds x by the root of
    slope^2 = mov^2 (plus 2), and the slopes past mov are filtered out."""
    sols = pell.positive_solutions(a * sx * sx, b * sy * sy, t)
    mu2 = mov.squared()
    if mov.is_rational and not is_square(a * b):
        if a <= mu2 * b:
            raise ConeError(f"movable slope^2 {mu2} is not below {a}/{b}")
        bound = mu2 * b * -t / (a * sx * sx * (a - mu2 * b))
        x_max = isqrt(bound.numerator // bound.denominator) + 2
        sols = takewhile(lambda sol: sol.a <= x_max, sols)
    slopes = (F(a * sx * x, b * sy * y) for x, y in sols if keep is None or keep(x, y))
    inside = (w for w in slopes if w * w < mu2)
    return tuple(islice(inside, prefix) if mov.is_sqrt else inside)


def _wall_reports():
    reports = [walls_sm(e, m) for m in (2, 3, 4) for e in range(1, 120)]
    reports += [fourfold_cones(n, ep, prefix) for n in range(3, 32, 4)
                for ep in range(2, 61) for prefix in (0, 1, 8)]
    return reports


def test_walls_stop_at_the_first_slope_past_mov(monkeypatch):
    reports = _wall_reports()
    monkeypatch.setattr(cones, "_walls", _walls_bounded_by_x)
    assert reports == _wall_reports()


def test_fourfold_prefix_zero_keeps_nef():
    rep = fourfold_cones(3, 2, prefix=0)
    assert rep.interior_walls == () and rep.walls_infinite
    assert rep.nef_slope.value == F(3, 4)


def test_fourfold_order_sweep():
    for n in (3, 7, 11, 15, 19):
        for ep in range(2, 30):
            rep = fourfold_cones(n, ep, prefix=2)
            assert rep.nef_slope <= rep.mov_slope, (n, ep)
            mu2 = rep.mov_slope.squared()
            for w in rep.interior_walls:
                assert 0 < w * w <= mu2, (n, ep, w)


def test_nef_floor_bound():
    # nef slope >= floor(sqrt(e)) for e >= 2, and it coincides with the
    # isotropic slope sqrt(e) exactly at perfect squares (e = 5 touches the
    # floor without being a square: nu_5 = 2)
    for e in range(2, 300):
        nu = walls_s2(e).nef_slope
        fl = isqrt(e)
        assert nu.squared() >= fl * fl, e
        assert (nu.squared() == e) == is_square(e), e
    assert walls_s2(5).nef_slope == ExtremalSlope.rational(2)


def test_k_very_ample():
    assert k_very_ample(1, 10, 5)
    assert k_very_ample(2, 3, 4)
    assert not k_very_ample(1, 10, 6)
    assert not k_very_ample(2, 3, 5)


def test_hilb_embedding_status():
    # smooth quartic surface: the pair map is finite 6:1, not an embedding
    assert hilb_embedding_status(1, 2, 2) == (True, False)
    # degree-6 surface, triples: not even a morphism
    assert hilb_embedding_status(1, 3, 3) == (False, False)
    # twice a degree-2 generator minus delta has base points
    assert hilb_embedding_status(2, 1, 2) == (False, False)
    assert hilb_embedding_status(1, 4, 2) == (True, True)
    assert hilb_embedding_status(2, 1, 3) == (False, False)
    assert hilb_embedding_status(2, 2, 3) == (True, False)
    assert hilb_embedding_status(2, 3, 3) == (True, True)


def test_hilb_embedding_status_is_k_very_ampleness():
    # Catanese-Goettsche (Manuscripta Math. 1990): a*L_m - delta is
    # base-point-free on S^[m] exactly when aL is (m-1)-very ample, and very
    # ample exactly when aL is m-very ample
    cells = [(a, e, m) for a in range(1, 7) for e in range(1, 31) for m in range(2, 13)]
    assert len(cells) == 1980
    for a, e, m in cells:
        assert hilb_embedding_status(a, e, m) == (k_very_ample(a, e, m - 1),
                                                  k_very_ample(a, e, m)), (a, e, m)


def test_moduli_embedding_status():
    assert moduli_embedding_status(2, 3, 1) == (True, True, 14)
    assert moduli_embedding_status(2, 11, 2) == (True, True, 90)
    assert moduli_embedding_status(2, 1, 1) == (True, False, 5)
    for m in range(2, 12):
        for n in range(1, 12):
            bpf, va, dim = moduli_embedding_status(m, n, 1)
            assert dim + 1 == comb(n + m + 1, m)


def test_moduli_embedding_status_checks_its_domain():
    # the polarization must exist: divisibility 2 needs n + m = 1 (mod 4)
    with pytest.raises(BadCongruence):
        moduli_embedding_status(2, 2, 2)
    with pytest.raises(ValueError):
        moduli_embedding_status(1, 3, 1)
    with pytest.raises(ValueError):  # 3 does not divide 2m - 2 = 2
        moduli_embedding_status(2, 3, 3)
    # a polarization that exists, but no cited bound covers divisibility 3
    from hkpell.arith import UnsupportedParameters
    with pytest.raises(UnsupportedParameters):
        moduli_embedding_status(4, 6, 3)
