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


def _is_hilb(series: str, m: int) -> bool:
    """Whether the Hilbert-scheme formulas hold: m = 1 is a K3 surface in either series."""
    return series == HILB_K3 or m == 1


def chi(data: RiemannRochInput) -> int:
    """Euler characteristic of a line bundle with Beauville-Fujiki square q."""
    half = data.q // 2
    if _is_hilb(data.series, data.m):
        return binomial_poly(half + data.m + 1, data.m)
    return (data.m + 1) * binomial_poly(half + data.m, data.m)


def h0_polarized(m: int, n: int) -> int:
    """Section count of a square-2n polarization on a 2m-fold of Hilbert type."""
    if m < 2 or n < 1:
        raise ValueError("need m >= 2 and n >= 1")
    return chi(RiemannRochInput(HILB_K3, m, 2 * n))


def fujiki_constant(series: str, m: int) -> int:
    """The constant c with x^(2m) = c * q(x)^m on the series' 2m-folds.

    c is (2m)! times the q^m coefficient of chi: (2m)!/(m! 2^m) = (2m-1)!!,
    times m + 1 for the Kummer series at m >= 2.
    """
    RiemannRochInput(series, m, 0)  # the series and m checks
    c = factorial(2 * m) // (factorial(m) * 2 ** m)
    return c if _is_hilb(series, m) else (m + 1) * c


def top_self_intersection(series: str, m: int, q: int) -> int:
    """x^(2m) for a class of even square q."""
    RiemannRochInput(series, m, q)
    return fujiki_constant(series, m) * q ** m


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
