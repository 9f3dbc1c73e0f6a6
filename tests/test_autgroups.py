from math import gcd

import pytest

from hkpell import pell
from hkpell.arith import is_square
from hkpell.autgroups import (EQUAL_INFINITE, FINITE_AUT_INFINITE_BIR,
                              FINITE_BOTH, INFINITE_CYCLIC,
                              INFINITE_DIHEDRAL, TRIVIAL, Z2, GroupTag,
                              InconsistentFlags, aut_k3_rank1, aut_s2, bir_s2,
                              bir_sm, fourfold_groups, rank2_trichotomy, unknown,
                              very_general_bir)


def test_aut_k3_rank1():
    assert aut_k3_rank1(2) == Z2
    assert aut_k3_rank1(4) == TRIVIAL
    assert aut_k3_rank1(40) == TRIVIAL


def test_aut_s2():
    assert aut_s2(2) == Z2   # the residual involution is biregular here
    assert aut_s2(5) == TRIVIAL
    assert aut_s2(3) == TRIVIAL
    assert aut_s2(1) == Z2


def test_bir_s2():
    assert bir_s2(5) == (TRIVIAL, Z2)
    assert bir_s2(13) == (Z2, Z2)
    assert bir_s2(7) == (TRIVIAL, TRIVIAL)
    assert bir_s2(1) == (Z2, Z2)
    assert bir_s2(2) == (Z2, Z2)


def test_bir_s2_coherence():
    for e in range(1, 300):
        aut, bir = bir_s2(e)
        if aut == Z2:
            assert bir == Z2, e
        if bir == TRIVIAL:
            assert aut == TRIVIAL, e
        assert aut_s2(e) == aut


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
    for n in range(3, 100, 4):
        for ep in range(2, 151):
            assert fourfold_groups(n, ep) == _fourfold_groups_by_pell(n, ep), (n, ep)


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
            if m == e or (e, m) == (5, 3) or m in (e - 1, e + 1, e + 2, e + 3):
                continue
            expected = unknown("necessary conditions hold") if _bir_sm_conditions_hold(e, m) \
                else TRIVIAL
            assert bir_sm(e, m) == expected, (e, m)


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
    assert very_general_bir(4, 3, 3) == TRIVIAL  # -1 is not a square mod 3


def test_trichotomy():
    assert rank2_trichotomy(True, True) == FINITE_BOTH
    assert rank2_trichotomy(True, False) == FINITE_AUT_INFINITE_BIR
    assert rank2_trichotomy(False, False) == EQUAL_INFINITE
    with pytest.raises(InconsistentFlags):
        rank2_trichotomy(False, True)


def test_finite_groups_are_small():
    for n in range(3, 20, 4):
        for ep in range(2, 20):
            for g in fourfold_groups(n, ep):
                if g.is_finite:
                    assert g.kind in ("trivial", "z2", "z2xz2")
