"""Exact nef/movable cone slopes and wall-and-chamber data.

Slopes are exact: either rational or the square root of a positive rational,
compared by squaring.  For punctual Hilbert schemes the slope of a divisor
class x*L - y*delta is y/x; for the rank-2 fourfolds with Picard basis (H, L)
the slope of H + s*L is s.

Wall lists contain the chamber walls lying strictly inside the open movable
cone; the ray bounding the nef cone is one of them whenever the nef and
movable cones differ.
"""

from fractions import Fraction
from itertools import islice, takewhile
from math import gcd, isqrt

from . import pell
from .arith import (BadCongruence, ConeError, Record, UnsupportedParameters, check_polarization,
                    is_square, ratio_text, wall_types)


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
        text = ratio_text(self.value)
        return f"sqrt({text})" if self.is_sqrt else text


class DivisorClass(Record):
    """The class c_l * L_m - c_delta * delta on a punctual Hilbert scheme."""

    __slots__ = ("c_l", "c_delta")

    def square(self, e: int, m: int) -> int:
        return 2 * e * self.c_l ** 2 - 2 * (m - 1) * self.c_delta ** 2

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
# the wall enumerator of a rank-2 Picard lattice diag(2a, -2b)


def _walls(a: int, b: int, sx: int, sy: int, t: int, mov: ExtremalSlope,
           prefix: int | None = None, keep=None) -> tuple[Fraction, ...]:
    """Walls cut by the classes sx*x*X - sy*y*Y of square 2t < 0, by increasing slope.

    X, Y is a basis with Picard form diag(2a, -2b), and the class orthogonal
    to sx*x*X - sy*y*Y is X + (a*sx*x / (b*sy*y))*Y, so its slope is the
    wall's.  Runs over the positive solutions of a*sx^2*x^2 - b*sy^2*y^2 = t
    with keep(x, y), keeping the slopes in (0, mov).  With A = a*sx^2*x^2 the
    slope^2 is (a/b) * A/(A - t), which grows with x towards a/b, so the
    stream stops at its first slope past mov, before keep is asked (a stop
    after keep is never reached when keep rejects every later solution).
    For a square a*b the stream is finite.  An irrational mov, where a*b is
    no square, has infinitely many walls below it, so `prefix` must be
    given: the first prefix are returned.
    """
    mu2 = mov.squared()
    if mov.is_rational and not is_square(a * b) and a <= mu2 * b:
        raise ConeError(f"movable slope^2 {mu2} is not below {a}/{b}")
    num, den = mu2.numerator, mu2.denominator
    sols = takewhile(lambda sol: den * (a * sx * sol.a) ** 2 < num * (b * sy * sol.b) ** 2,
                     pell.positive_solutions(a * sx * sx, b * sy * sy, t))
    slopes = (Fraction(a * sx * x, b * sy * y) for x, y in sols if keep is None or keep(x, y))
    return tuple(islice(slopes, prefix) if mov.is_sqrt else slopes)


# ---------------------------------------------------------------------------
# punctual Hilbert schemes


def walls_s2(e: int) -> ConeReport:
    """Chamber structure of the movable cone of a Hilbert square.

    Either the nef and movable cones agree (no interior wall), or there are
    two chambers (one wall at the nef boundary), or three; the third case
    happens exactly when the unit of a^2 - e*b^2 = 1 has b even and e is
    prime to 5.
    """
    return walls_sm(e, 2)


def mov_ray_sm(e: int, m: int) -> tuple[DivisorClass, str]:
    """Generator of the second extremal ray of the movable cone, with its case tag.

    Cases: "isotropic" when e(m-1) is a perfect square, "two-term" when
    (m-1)a^2 - e*b^2 = 1 is solvable, "congruence" otherwise.  The
    congruence ray is (a, e*b) for the least unit a + b*sqrt(e(m-1)) with
    a = +-1 mod m-1: the fundamental unit, or else its square, whose first
    coordinate always is 1 mod m-1.
    """
    if e < 1:
        raise ValueError(f"e must be positive, got e={e}")
    if m < 2:
        raise ValueError(f"m must be at least 2, got m={m}")
    p = m - 1
    if is_square(e * p):
        return DivisorClass(p, isqrt(e * p)), "isotropic"
    sol = pell.generalized_min(p, e, 1)
    if sol is not None:
        return DivisorClass(p * sol.a, e * sol.b), "two-term"
    a, b = pell.fundamental_solution(e * p)
    if a % p not in (1 % p, (-1) % p):
        # a^2 - e*p*b^2 = 1 gives a^2 = 1 mod p, so the square's 2a^2 - 1 is 1 mod p
        a, b = a * a + e * p * b * b, 2 * a * b
    return DivisorClass(a, e * b), "congruence"


def nef_ray_sm_special(e: int, m: int) -> tuple[DivisorClass, bool] | None:
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


def walls_sm(e: int, m: int) -> ConeReport:
    """Chamber walls of the movable cone of a punctual Hilbert scheme, m <= 4.

    A wall class of type (square, s) is kappa = s*x*L - y*delta with
    e*s^2*x^2 - p*y^2 = square/2, p = m - 1, primitive and of divisibility s.
    The nef boundary is the first wall, or mov when there is none.

    The types come from arith.wall_types (Bayer-Macri, Invent. Math. 2014,
    Thm 5.7 and Thm 12.3).  Only the unflagged ones, of flopping
    constraints, are solved: the flagged ones bound Mov and cut no wall
    inside it, and its docstring shows that no flopping constraint shares
    them.
    """
    if m not in (2, 3, 4):
        raise UnsupportedM(f"wall type lists are available for m in 2..4, not {m}")
    ray, _ = mov_ray_sm(e, m)
    mov = ExtremalSlope.rational(ray.slope())
    p = m - 1
    walls: set[Fraction] = set()
    for wt in wall_types(m):
        if wt.bounds_mov:
            continue
        s = wt.div

        def keep(x: int, y: int) -> bool:  # primitive, of divisibility s
            return gcd(s * x, y) == 1 and gcd(s * x, 2 * p * y) == s
        walls.update(_walls(e, p, s, 1, wt.kappa_prim_sq // 2, mov, keep=keep))
    ordered = tuple(sorted(walls))
    nef = ExtremalSlope.rational(ordered[0]) if ordered else mov
    return ConeReport(mov, nef, ordered)


# ---------------------------------------------------------------------------
# rank-2 fourfolds with Picard form diag(2n, -2e')


def fourfold_cones(n: int, e_prime: int, prefix: int = 8) -> ConeReport:
    """Cone slopes for H + s*L on a fourfold with Picard form diag(2n, -2e').

    The walls are cut by the classes a*H + 2b*L of square -10, and the nef
    boundary is the first of them.  When the movable slope is irrational
    there are infinitely many walls, or none; `prefix` of them (by
    increasing Pell solution) are reported with walls_infinite set.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got n={n}")
    check_polarization(2, n, 2)  # H of divisibility 2: n = 3 mod 4
    if e_prime < 2:
        raise ValueError("e' must be at least 2")
    if prefix < 0:
        raise ValueError(f"prefix must be nonnegative, got prefix={prefix}")
    sol1 = pell.generalized_min(n, e_prime, -1)
    if sol1 is None:
        mov = ExtremalSlope.sqrt_of(Fraction(n, e_prime))
    else:
        mov = ExtremalSlope.rational(Fraction(n * sol1.a, e_prime * sol1.b))
    walls = _walls(n, e_prime, 1, 2, -5, mov, max(prefix, 1))
    nef = ExtremalSlope.rational(walls[0]) if walls else mov
    infinite = mov.is_sqrt and bool(walls)
    return ConeReport(mov, nef, walls[:prefix] if infinite else walls, infinite,
                      symmetric=True)


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
    # Catanese-Goettsche (Manuscripta Math. 1990): aL_m - delta is base-point-free
    # when aL is (m-1)-very ample, and very ample when aL is m-very ample
    return k_very_ample(a, e, m - 1), k_very_ample(a, e, m)


def moduli_embedding_status(m: int, n: int, gamma: int) -> tuple[bool, bool, int]:
    """(base-point-free, very ample, ambient dimension) for a general polarization."""
    from .rrinv import h0_polarized  # only here: no cone command loads rrinv

    check_polarization(m, n, gamma)
    if gamma > 2:
        raise UnsupportedParameters(f"no cited embedding bound at divisibility {gamma} > 2")
    shift = 4 * (gamma - 1)  # the divisibility-2 bounds are 4 past the others
    bpf, va = n >= m - 1 + shift, n >= m + 1 + shift
    return bpf, va, h0_polarized(m, n) - 1
