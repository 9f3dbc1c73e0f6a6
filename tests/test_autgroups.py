from math import gcd

import pytest

from hkpell import pell
from hkpell.arith import BadCongruence, is_square
from hkpell.cones import fourfold_cones, mov_ray_sm
from hkpell.autgroups import (INFINITE_CYCLIC, INFINITE_DIHEDRAL, TRIVIAL, Z2,
                              GroupTag, aut_k3_rank1, bir_s2, bir_sm,
                              fourfold_groups, unknown, very_general_bir)


def test_aut_k3_rank1():
    assert aut_k3_rank1(2) == Z2
    assert aut_k3_rank1(4) == TRIVIAL
    assert aut_k3_rank1(40) == TRIVIAL


def test_aut_s2():
    assert bir_s2(2)[0] == Z2   # the residual involution is biregular here
    assert bir_s2(5)[0] == TRIVIAL
    assert bir_s2(3)[0] == TRIVIAL
    assert bir_s2(1)[0] == Z2


def test_bir_s2():
    assert bir_s2(5) == (TRIVIAL, Z2)
    assert bir_s2(13) == (Z2, Z2)
    assert bir_s2(7) == (TRIVIAL, TRIVIAL)
    assert bir_s2(1) == (Z2, Z2)
    assert bir_s2(2) == (Z2, Z2)


def _bir_s2_asking_twice(e):
    """Aut and Bir of the Hilbert square as they once were computed: Aut asks
    both equations, and Bir asks them again unless Aut is Z/2."""
    neg, five = _solvable(1, e, -1), _solvable(1, 4 * e, 5)
    aut = Z2 if e == 1 or (neg and not five) else TRIVIAL
    if aut == Z2:
        return Z2, Z2
    if e == 5 or (e > 1 and e % 5 != 0 and neg and five):
        return TRIVIAL, Z2
    return TRIVIAL, TRIVIAL


def test_bir_s2_asks_each_equation_once(monkeypatch):
    asked = []

    def generalized_min(e1, e2, t, solve=pell.generalized_min):
        asked.append((e1, e2, t))
        return solve(e1, e2, t)

    for e in range(1, 3000):
        expected = _bir_s2_asking_twice(e)
        monkeypatch.setattr(pell, "generalized_min", generalized_min)
        assert bir_s2(e) == expected, e
        monkeypatch.undo()
        assert len(asked) == len(set(asked)), e  # each once
        asked.clear()


def test_local_refusal_matches_the_solver():
    # generalized_min refuses mod 8 and off the squares mod e1*e2 before any
    # class search; each answer is the head of the unrefused stream
    for e1 in range(1, 25):
        for e2 in range(1, 25):
            for t in range(-25, 26):
                if t:
                    assert pell.generalized_min(e1, e2, t) == \
                        next(pell.positive_solutions(e1, e2, t), None), (e1, e2, t)


def test_bir_s2_coherence():
    for e in range(1, 300):
        aut, bir = bir_s2(e)
        if aut == Z2:
            assert bir == Z2, e
        if bir == TRIVIAL:
            assert aut == TRIVIAL, e


def test_bir_sm():
    assert bir_sm(5, 5) == Z2            # residual involution
    assert bir_sm(4, 5) == TRIVIAL       # m = e + 1
    assert bir_sm(5, 3) == Z2            # the Hilbert-cube involution
    assert bir_sm(3, 4) == TRIVIAL       # m = e + 1
    assert bir_sm(2, 4) == TRIVIAL       # m = e + 2
    assert bir_sm(2, 5) == TRIVIAL       # m = e + 3
    assert bir_sm(6, 5) == TRIVIAL       # m = e - 1
    assert bir_sm(4, 3) == TRIVIAL       # e(m-1) = 8, gcd = 2: condition (b)


FOURFOLD_TABLE = {
    2: ("1", "Z x| Z/2"),
    3: ("1", "1"),
    4: ("1", "1"),
    5: ("1", "Z"),
    6: ("Z", "Z"),
    7: ("1", "1"),
    8: ("1", "Z"),
    9: ("Z", "Z"),
    10: ("Z", "Z"),
    11: ("Z x| Z/2", "Z x| Z/2"),
}


def test_fourfold_table_n3():
    for ep, (aut, bir) in FOURFOLD_TABLE.items():
        a, b = fourfold_groups(3, ep)
        assert (str(a), str(b)) == (aut, bir), ep


def test_fourfold_examples():
    assert fourfold_groups(3, 2) == (TRIVIAL, INFINITE_DIHEDRAL)
    assert fourfold_groups(3, 6) == (INFINITE_CYCLIC, INFINITE_CYCLIC)
    assert fourfold_groups(3, 11) == (INFINITE_DIHEDRAL, INFINITE_DIHEDRAL)


def _solvable(e1, e2, t):
    return pell.generalized_min(e1, e2, t) is not None


def _fourfold_groups_by_pell(n, ep):
    """(Aut, Bir) read off the Pell equations themselves: both trivial when
    n*a^2 - e'*b^2 = -1 is solvable or n*e' is a square, else Aut trivial
    when n*a^2 - 4e'*b^2 = -5 is solvable, and an infinite group dihedral
    when n*a^2 - e'*b^2 = 1 is solvable."""
    if _solvable(n, ep, -1) or is_square(n * ep):
        return TRIVIAL, TRIVIAL
    infinite = INFINITE_DIHEDRAL if _solvable(n, ep, 1) else INFINITE_CYCLIC
    if _solvable(n, 4 * ep, -5):
        return TRIVIAL, infinite
    return infinite, infinite


def test_fourfold_groups_match_the_pell_equations():
    # finiteness is the rationality of the report's (nef, movable) rays, and
    # an irrational nef ray never comes with a rational movable one
    seen = set()
    for n in range(3, 100, 4):
        for ep in range(2, 151):
            aut, bir = fourfold_groups(n, ep)
            assert (aut, bir) == _fourfold_groups_by_pell(n, ep), (n, ep)
            rep = fourfold_cones(n, ep, prefix=1)
            rays = (rep.nef_slope.is_rational, rep.mov_slope.is_rational)
            assert (aut.is_finite, bir.is_finite) == rays, (n, ep)
            seen.add(rays)
    assert seen == {(True, True), (True, False), (False, False)}


def _bir_sm_conditions_hold(e, m):
    """The four necessary conditions of bir_sm, each from its own equation:
    (a) e(m-1) is no square, (b) gcd(e, m-1) = 1, (c) (m-1)a^2 - e*b^2 = 1
    is unsolvable, and (d) the least unit a1 + b1*sqrt(e(m-1)) with
    a1 = +-1 mod m-1 has a1 = +-1 mod 2e and b1 even."""
    p = m - 1
    if is_square(e * p) or gcd(e, p) != 1 or _solvable(p, e, 1):
        return False
    a1, b1 = pell.fundamental_solution(e * p)
    if a1 % p not in (1 % p, (-1) % p):
        a1, b1 = a1 * a1 + e * p * b1 * b1, 2 * a1 * b1
    return a1 % (2 * e) in (1, 2 * e - 1) and b1 % 2 == 0


def test_bir_sm_matches_its_four_conditions():
    for e in range(2, 61):
        for m in range(3, 31):
            if m == e or (e, m) == (5, 3):
                continue
            expected = unknown("necessary conditions hold") if _bir_sm_conditions_hold(e, m) \
                else TRIVIAL
            assert bir_sm(e, m) == expected, (e, m)


def _bir_sm_with_shortcuts(e, m):
    """bir_sm as it was: m in {e-1, e+1, e+2, e+3} answered before the
    conditions, and (d) testing b1 for parity."""
    p = m - 1
    if m == e or (e, m) == (5, 3):
        return Z2
    if m in (e - 1, e + 1, e + 2, e + 3) or gcd(e, p) != 1:
        return TRIVIAL
    ray, case = mov_ray_sm(e, m)
    if case != "congruence":
        return TRIVIAL
    a1, b1 = ray.c_l, ray.c_delta // e
    if a1 % (2 * e) not in (1, 2 * e - 1) or b1 % 2:
        return TRIVIAL
    return unknown("necessary conditions hold")


def test_bir_sm_needs_no_shortcut_cells():
    for e in range(2, 151):
        for m in range(3, 41):
            assert bir_sm(e, m) == _bir_sm_with_shortcuts(e, m), (e, m)


def test_case_b_reciprocity_exclusion():
    # when the movable cone is irrational, the nef cone rational, and the
    # plus-unit equation solvable, neither n nor e' is divisible by 5
    for n in range(3, 52, 4):
        for ep in range(2, 41):
            neg = pell.generalized_min(n, ep, -1)
            five = pell.generalized_min(n, 4 * ep, -5)
            if neg is None and five is not None:
                if pell.generalized_min(n, ep, 1) is not None:
                    assert n % 5 and ep % 5, (n, ep)


def test_very_general_bir():
    assert very_general_bir(2, 1, 1) == Z2
    assert very_general_bir(3, 2, 2) == Z2
    assert very_general_bir(2, 5, 1) == TRIVIAL
    assert very_general_bir(6, 5, 5) == Z2   # -1 = 4 is a square mod 5
    assert very_general_bir(11, 10, 10) == Z2  # -1 = 9 is a square mod 10
    with pytest.raises(BadCongruence):  # -1 is not a square mod 3: no polarization
        very_general_bir(4, 3, 3)


def test_finite_groups_are_small():
    for n in range(3, 20, 4):
        for ep in range(2, 20):
            for g in fourfold_groups(n, ep):
                if g.is_finite:
                    assert g.kind in ("trivial", "z2")
