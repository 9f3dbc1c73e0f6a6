"""Exact nef/movable cone slopes and wall-and-chamber data.

Slopes are exact: either rational or the square root of a positive rational,
compared by squaring.  For punctual Hilbert schemes the slope of a divisor
class x*L - y*delta is y/x; for the rank-2 fourfolds with Picard basis (H, L)
the slope of H + s*L is s.

Wall lists contain the chamber walls lying strictly inside the open movable
cone; the ray bounding the nef cone is one of them whenever the nef and
movable cones differ.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import takewhile
from math import gcd, isqrt
from typing import Optional

from . import pell
from .arith import BadCongruence, ConeError, Record, binomial_poly, is_square


class UnsupportedM(ConeError):
    pass


class ExtremalSlope(Record):
    """A nonnegative real slope: rational, or the square root of a rational.

    value is the slope itself, or the radicand when is_sqrt.
    """

    __slots__ = ("is_sqrt", "value")

    def __init__(self, is_sqrt: bool, value: Fraction):
        if value < 0:
            raise ValueError("slopes are nonnegative")
        super().__init__(is_sqrt, value)

    @classmethod
    def rational(cls, q) -> "ExtremalSlope":
        return cls(False, Fraction(q))

    @classmethod
    def sqrt_of(cls, q) -> "ExtremalSlope":
        q = Fraction(q)
        if is_square(q.numerator) and is_square(q.denominator):
            return cls(False, Fraction(isqrt(q.numerator), isqrt(q.denominator)))
        return cls(True, q)

    @property
    def is_rational(self) -> bool:
        return not self.is_sqrt

    def squared(self) -> Fraction:
        return self.value if self.is_sqrt else self.value * self.value

    def __lt__(self, other):
        return self.squared() < other.squared()

    def __le__(self, other):
        return self.squared() <= other.squared()

    def __str__(self):
        if self.is_sqrt:
            return f"sqrt({self.value.numerator}/{self.value.denominator})"
        return f"{self.value.numerator}/{self.value.denominator}"


class DivisorClass(Record):
    """The class c_l * L_m - c_delta * delta on a punctual Hilbert scheme."""

    __slots__ = ("c_l", "c_delta")

    def square(self, e: int, m: int) -> int:
        return 2 * e * self.c_l ** 2 - 2 * (m - 1) * self.c_delta ** 2

    def is_primitive(self) -> bool:
        return gcd(self.c_l, self.c_delta) == 1

    def slope(self) -> Fraction:
        return Fraction(self.c_delta, self.c_l)


class ConeReport(Record):
    """symmetric marks the fourfolds, where every wall w stands for the pair +-w."""

    __slots__ = ("mov_slope", "nef_slope", "interior_walls", "walls_infinite", "symmetric")

    def __init__(self, mov_slope: ExtremalSlope, nef_slope: ExtremalSlope,
                 interior_walls: tuple[Fraction, ...], walls_infinite: bool = False,
                 symmetric: bool = False):
        super().__init__(mov_slope, nef_slope, interior_walls, walls_infinite, symmetric)

    @property
    def nef_equals_mov(self) -> bool:
        return self.nef_slope == self.mov_slope and not self.interior_walls \
            and not self.walls_infinite


# ---------------------------------------------------------------------------
# Hilbert squares


def mov_slope_s2(e: int) -> ExtremalSlope:
    """Slope of the second extremal ray of the movable cone of a Hilbert square."""
    if e < 1:
        raise ValueError("e must be positive")
    if is_square(e):
        return ExtremalSlope.sqrt_of(e)
    a1, b1 = pell.fundamental_solution(e)
    return ExtremalSlope.rational(Fraction(e * b1, a1))


def nef_slope_s2(e: int) -> ExtremalSlope:
    """Slope of the second extremal ray of the nef cone of a Hilbert square."""
    if e < 1:
        raise ValueError("e must be positive")
    sol = pell.min_positive_solution(pell.PellEquation.classical(4 * e, 5))
    if sol is None:
        return mov_slope_s2(e)
    return ExtremalSlope.rational(Fraction(2 * e * sol.b, sol.a))


def walls_s2(e: int) -> ConeReport:
    """Chamber structure of the movable cone of a Hilbert square.

    Either the nef and movable cones agree (no interior wall), or there are
    two chambers (one wall at the nef boundary), or three chambers; the third
    case happens exactly when the unit of a^2 - e*b^2 = 1 has b even and e is
    prime to 5.
    """
    mov = mov_slope_s2(e)
    sol5 = pell.min_positive_solution(pell.PellEquation.classical(4 * e, 5))
    if sol5 is None:
        return ConeReport(mov, mov, ())
    a5, b5 = sol5
    nef = ExtremalSlope.rational(Fraction(2 * e * b5, a5))
    if e == 1:
        a1, b1 = 1, 1
    else:
        a1, b1 = pell.fundamental_solution(e)
    walls = [Fraction(2 * e * b5, a5)]
    if b1 % 2 == 0 and e % 5 != 0:
        walls.append(Fraction(e * (a5 * b1 - 2 * a1 * b5), a1 * a5 - 2 * e * b1 * b5))
    return ConeReport(mov, nef, tuple(sorted(walls)))


# ---------------------------------------------------------------------------
# higher punctual Hilbert schemes


def mov_ray_sm(e: int, m: int) -> tuple[DivisorClass, str]:
    """Generator of the second extremal ray of the movable cone, with its case tag.

    Cases: "isotropic" when e(m-1) is a perfect square, "two-term" when
    (m-1)a^2 - e*b^2 = 1 is solvable, "congruence" otherwise (the minimal
    solution of a^2 - e(m-1)b^2 = 1 with a = +-1 mod m-1).
    """
    if e < 1 or m < 2:
        raise ValueError("need e >= 1 and m >= 2")
    p = m - 1
    if is_square(e * p):
        return DivisorClass(p, isqrt(e * p)), "isotropic"
    sol = pell.generalized_min(p, e, 1)
    if sol is not None:
        return DivisorClass(p * sol.a, e * sol.b), "two-term"
    a, b = pell.fundamental_solution(e * p)
    for _ in range(2):
        if a % p in (1 % p, (-1) % p):
            return DivisorClass(a, e * b), "congruence"
        a, b = a * a + e * p * b * b, 2 * a * b  # square the unit
    # not reached: the square of the unit has a = 1 mod p
    raise ConeError(f"no unit of a^2 - {e * p}b^2 = 1 has a = +-1 mod {p}")


def nef_ray_sm_special(e: int, m: int) -> Optional[tuple[DivisorClass, bool]]:
    """The second nef ray in the two regimes where it is known in closed form.

    Returns (class, nef_equals_mov) for m >= (e+3)/2 or e = (m-1)b^2 with
    b >= 2, and None otherwise.
    """
    if e < 1 or m < 2:
        raise ValueError("need e >= 1 and m >= 2")
    if 2 * m >= e + 3:
        return DivisorClass(m + e, 2 * e), m == e + 2
    p = m - 1
    if e % p == 0 and is_square(e // p) and isqrt(e // p) >= 2:
        return DivisorClass(1, isqrt(e // p)), True
    return None


# (square of the primitive class, divisibility) of the possible wall types
_WALL_TYPES = {
    2: ((-2, 1), (-10, 2)),
    3: ((-2, 1), (-4, 2), (-4, 4), (-12, 2), (-36, 4)),
    4: ((-2, 1), (-6, 2), (-6, 3), (-6, 6), (-14, 2), (-24, 3), (-78, 6)),
}


def _wall_solutions(e: int, m: int, kappa_sq: int, s: int, mov: ExtremalSlope):
    """Slopes of walls cut by primitive classes of the given square and divisibility."""
    p = m - 1
    mu2 = mov.squared()
    if kappa_sq % 2:
        return
    t = kappa_sq // 2
    # kappa = s*x*L - y*delta with e*s^2*x^2 - p*y^2 = t
    sols = pell.positive_solutions(e * s * s, p, t)  # finite when e*p is a square
    if not is_square(e * p):
        # slope(e*s*x, p*y) < mu bounds x outright
        denom = 2 * e * s * s * (e - mu2 * p)
        if denom <= 0:
            raise ConeError(f"movable slope^2 {mu2} of e={e}, m={m} is not below e/(m-1)")
        bound = mu2 * p * abs(kappa_sq) / denom
        x_max = isqrt(bound.numerator // bound.denominator) + 2
        sols = takewhile(lambda sol: sol.a <= x_max, sols)
    for x, y in sols:
        big_x = s * x
        if gcd(big_x, y) != 1:
            continue
        if gcd(big_x, 2 * p * y) != s:
            continue
        slope = Fraction(e * big_x, p * y)
        if 0 < slope * slope < mu2:
            yield slope


def walls_sm(e: int, m: int) -> ConeReport:
    """Chamber walls of the movable cone of a punctual Hilbert scheme, m <= 4."""
    if m not in _WALL_TYPES:
        raise UnsupportedM(f"wall type lists are available for m in 2..4, not {m}")
    if m == 2:
        mov = mov_slope_s2(e)
        nef = nef_slope_s2(e)
    else:
        ray, _ = mov_ray_sm(e, m)
        if is_square(e * (m - 1)):
            mov = ExtremalSlope.sqrt_of(Fraction(e, m - 1))
        else:
            mov = ExtremalSlope.rational(ray.slope())
        nef = None
    walls: set[Fraction] = set()
    for kappa_sq, s in _WALL_TYPES[m]:
        if (kappa_sq, s) == (-2, 1):
            continue  # these classes bound the movable cone itself
        walls.update(_wall_solutions(e, m, kappa_sq, s, mov))
    ordered = tuple(sorted(walls))
    if nef is None:
        nef = ExtremalSlope.rational(ordered[0]) if ordered else mov
    return ConeReport(mov, nef, ordered)


# ---------------------------------------------------------------------------
# rank-2 fourfolds with Picard form diag(2n, -2e')


def fourfold_cones(n: int, e_prime: int, prefix: int = 8) -> ConeReport:
    """Cone slopes for H + s*L on a fourfold with Picard form diag(2n, -2e').

    When the movable slope is irrational and the cones differ there are
    infinitely many walls; `prefix` of them (by increasing Pell solution) are
    reported with walls_infinite set.
    """
    if n % 4 != 3:
        raise BadCongruence("n must be congruent to -1 mod 4")
    if e_prime < 2:
        raise ValueError("e' must be at least 2")
    sol1 = pell.generalized_min(n, e_prime, -1)
    if sol1 is None:
        mov = ExtremalSlope.sqrt_of(Fraction(n, e_prime))
    else:
        mov = ExtremalSlope.rational(Fraction(n * sol1.a, e_prime * sol1.b))
    sol5 = pell.generalized_min(n, 4 * e_prime, -5)
    if sol5 is None:
        return ConeReport(mov, mov, (), symmetric=True)
    nef = ExtremalSlope.rational(Fraction(n * sol5.a, 2 * e_prime * sol5.b))
    if mov.is_rational:
        # exactly one wall pair: the nef boundary itself, three chambers
        return ConeReport(mov, nef, (nef.value,), symmetric=True)
    sols = pell.generalized_solutions(n, 4 * e_prime, -5, prefix) if prefix else []
    walls = tuple(sorted(Fraction(n * a, 2 * e_prime * b) for a, b in sols))
    return ConeReport(mov, nef, walls, walls_infinite=True, symmetric=True)


# ---------------------------------------------------------------------------
# ampleness predicates


def k_very_ample(a: int, e: int, k: int) -> bool:
    """k-very-ampleness of the a-th power of a degree-2e generator."""
    if a < 1 or e < 1 or k < 0:
        raise ValueError("need a >= 1, e >= 1, k >= 0")
    if a == 1:
        return 2 * k <= e
    return k <= 2 * (a - 1) * e - 2


def hilb_embedding_status(a: int, e: int, m: int) -> tuple[bool, bool]:
    """(base-point-free, very ample) for a*L_m - delta on the m-th Hilbert power."""
    if a < 1 or e < 1 or m < 2:
        raise ValueError("need a >= 1, e >= 1, m >= 2")
    if a == 1:
        return 2 * (m - 1) <= e, 2 * m <= e
    return m <= 2 * (a - 1) * e - 1, m <= 2 * (a - 1) * e - 2


def moduli_embedding_status(m: int, n: int, gamma: int) -> tuple[bool, bool, int]:
    """(base-point-free, very ample, ambient dimension) for a general polarization."""
    if gamma not in (1, 2):
        raise ValueError("gamma must be 1 or 2")
    if m < 2 or n < 1:
        raise ValueError("need m >= 2, n >= 1")
    if gamma == 1:
        bpf, va = n >= m - 1, n >= m + 1
    else:
        bpf, va = n >= m + 3, n >= m + 5
    return bpf, va, binomial_poly(n + m + 1, m) - 1
