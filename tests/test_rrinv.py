from fractions import Fraction
from math import comb, factorial

import pytest

from hkpell.rrinv import (HILB_K3, KUMMER, OddSquare, RiemannRochInput, betti2,
                          chi, fujiki_constant, h0_polarized, moduli_dimension,
                          top_self_intersection)


def chi_hilb(m, q):
    return chi(RiemannRochInput(HILB_K3, m, q))


def chi_kummer(m, q):
    return chi(RiemannRochInput(KUMMER, m, q))


def test_chi_golden():
    assert chi_hilb(2, 6) == 15
    assert chi_hilb(4, 2) == 15
    assert chi_hilb(2, 22) == 91
    assert chi_hilb(3, 4) == 20
    assert chi_hilb(2, 2) == 6
    for q in range(-6, 9, 2):  # m = 1 is a K3 surface in either series
        assert chi_kummer(1, q) == chi_hilb(1, q) == q // 2 + 2
    with pytest.raises(OddSquare):
        chi(RiemannRochInput(HILB_K3, 2, 3))


def test_h0_polarized():
    assert h0_polarized(2, 1) == 6
    assert h0_polarized(3, 2) == 20
    assert h0_polarized(2, 3) == 15
    for m in range(2, 41):
        for n in range(1, 41):
            assert h0_polarized(m, n) == h0_polarized(n + 1, m - 1)
            assert h0_polarized(m, n) == comb(n + m + 1, m)


def test_fujiki():
    assert fujiki_constant(HILB_K3, 2) == 3
    assert fujiki_constant(KUMMER, 2) == 9
    assert fujiki_constant(HILB_K3, 1) == 1
    assert fujiki_constant(HILB_K3, 3) == 15
    assert fujiki_constant(KUMMER, 3) == 60


def test_fujiki_relation():
    # x^(2m) = c * q^m and chi(q) = sum of the even-degree Todd terms give
    # c = (2m)! times the q^m coefficient of chi: (2m)!/(2^m m!) times the
    # m-th forward difference of h -> chi(2h), and m = 1 is a K3 surface
    # (chi = q/2 + 2, c = 1) in either series
    for series in (HILB_K3, KUMMER):
        for m in range(1, 13):
            diff = sum((-1) ** (m - j) * comb(m, j) * chi(RiemannRochInput(series, m, 2 * j))
                       for j in range(m + 1))
            c = fujiki_constant(series, m)
            assert type(c) is int, (series, m)
            assert c == factorial(2 * m) // (2 ** m * factorial(m)) * diff, (series, m)
            for q in range(-6, 9, 2):
                assert top_self_intersection(series, m, q) == c * q ** m, (series, m, q)


def test_top_self_intersection():
    assert top_self_intersection(HILB_K3, 2, 6) == 108
    assert top_self_intersection(HILB_K3, 12, 2) == factorial(24) // factorial(12)
    assert top_self_intersection(KUMMER, 5, 0) == 0


def test_betti():
    assert betti2(HILB_K3) == 23
    assert betti2(KUMMER) == 7
    assert moduli_dimension(HILB_K3) == 20


def _lagrange_fit(points, x):
    """Exact Lagrange interpolation through integer points."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        term = Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if i != j:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


@pytest.mark.parametrize("series,builder", [(HILB_K3, chi_hilb), (KUMMER, chi_kummer)])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_polynomiality(series, builder, m):
    # chi is a degree-m polynomial in q/2: fit on m+1 points, predict others
    points = [(h, builder(m, 2 * h)) for h in range(m + 1)]
    for h in range(-6, 12):
        assert _lagrange_fit(points, h) == builder(m, 2 * h), (series, m, h)
