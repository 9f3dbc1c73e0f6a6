"""Closed-form numerical invariants of the two Beauville deformation series.

Everything is a polynomial identity in the Beauville-Fujiki square of the
line bundle, so the binomial coefficients are evaluated through their
polynomial extension and the formulas stay valid for negative squares.
"""

from math import factorial

from .arith import Record, binomial_poly

HILB_K3 = "HilbK3"
KUMMER = "Kummer"

_SERIES = (HILB_K3, KUMMER)


class OddSquare(ValueError):
    """Beauville-Fujiki squares of line bundles are even."""


class RiemannRochInput(Record):
    __slots__ = ("series", "m", "q")

    def __init__(self, series: str, m: int, q: int):
        if series not in _SERIES:
            raise ValueError(f"unknown series {series!r}")
        if m < 1:
            raise ValueError("m must be at least 1")
        if q % 2:
            raise OddSquare("the square q must be even")
        super().__init__(series, m, q)


def chi(data: RiemannRochInput) -> int:
    """Euler characteristic of a line bundle with Beauville-Fujiki square q."""
    half = data.q // 2
    if data.series == HILB_K3:
        return binomial_poly(half + data.m + 1, data.m)
    return (data.m + 1) * binomial_poly(half + data.m, data.m)


def h0_polarized(m: int, n: int) -> int:
    """Section count of a square-2n polarization on a 2m-fold of Hilbert type."""
    if m < 2 or n < 1:
        raise ValueError("need m >= 2 and n >= 1")
    return chi(RiemannRochInput(HILB_K3, m, 2 * n))


def fujiki_constant(series: str, m: int) -> "Fraction":
    """The constant c with x^(2m) = c * q(x)^m on the series' 2m-folds."""
    # imported here so that chi, which needs no Fraction, loads no fractions
    from fractions import Fraction

    if series not in _SERIES:
        raise ValueError(f"unknown series {series!r}")
    if m < 1:
        raise ValueError("m must be at least 1")
    if m == 1:
        return Fraction(1)  # surfaces: the form is the cup product itself
    c = Fraction(factorial(2 * m), factorial(m) * 2 ** m)
    if series == KUMMER:
        c *= m + 1
    return c


def top_self_intersection(series: str, m: int, q: int) -> int:
    """x^(2m) for a class of even square q."""
    if q % 2:
        raise OddSquare("the square q must be even")
    value = fujiki_constant(series, m) * q ** m
    if value.denominator != 1:
        raise ArithmeticError(f"x^(2m) = {value} is not an integer for m={m}, q={q}")
    return int(value)


def betti2(series: str) -> int:
    """Second Betti number of the series (in dimension >= 4)."""
    if series == HILB_K3:
        return 23
    if series == KUMMER:
        return 7
    raise ValueError(f"unknown series {series!r}")


def moduli_dimension(series: str) -> int:
    """Dimension of the polarized moduli spaces: b2 - 3."""
    return betti2(series) - 3
