from fractions import Fraction
from math import isqrt

import pytest

from hkpell.arith import is_square
from hkpell.cones import (BadCongruence, ConeReport, DivisorClass,
                          ExtremalSlope, UnsupportedM, fourfold_cones,
                          hilb_embedding_status, k_very_ample,
                          moduli_embedding_status, mov_ray_sm, mov_slope_s2,
                          nef_ray_sm_special, nef_slope_s2, walls_s2, walls_sm)
from hkpell.rrinv import h0_polarized

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
        mov = mov_slope_s2(e)
        nef = nef_slope_s2(e)
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
        assert ExtremalSlope.sqrt_of(F(ray.c_delta ** 2, ray.c_l ** 2)) == mov_slope_s2(e), e


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
    for e in range(1, 120):
        assert walls_sm(e, 2).interior_walls == walls_s2(e).interior_walls, e


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
        nu = nef_slope_s2(e)
        fl = isqrt(e)
        assert nu.squared() >= fl * fl, e
        assert (nu.squared() == e) == is_square(e), e
    assert nef_slope_s2(5) == ExtremalSlope.rational(2)


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


def test_moduli_embedding_status():
    assert moduli_embedding_status(2, 3, 1) == (True, True, 14)
    assert moduli_embedding_status(2, 11, 2) == (True, True, 90)
    assert moduli_embedding_status(2, 1, 1) == (True, False, 5)
    for m in range(2, 12):
        for n in range(1, 12):
            bpf, va, dim = moduli_embedding_status(m, n, 1)
            assert dim + 1 == h0_polarized(m, n)


def test_moduli_embedding_status_checks_its_domain():
    # the polarization must exist: divisibility 2 needs n + m = 1 (mod 4)
    with pytest.raises(BadCongruence):
        moduli_embedding_status(2, 2, 2)
    with pytest.raises(ValueError):
        moduli_embedding_status(1, 3, 1)
    from hkpell.discform import UnsupportedParameters
    with pytest.raises(UnsupportedParameters):
        moduli_embedding_status(2, 3, 3)
