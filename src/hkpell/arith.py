"""Small exact-integer helpers and the immutable record base shared across
the package."""

from collections.abc import Iterator
from functools import total_ordering
from math import factorial, gcd, isqrt


class Record:
    """Immutable value over __slots__, which name its fields in order.

    A record is built by position or by field name, in __slots__ order, and
    each field is set once here; a subclass that checks, derives or defaults
    a field does so in its own __init__ and ends in super().__init__.
    Records are equal, hash alike and (OrderedRecord) order by their field
    values, only within one class, and show as Name(field=value, ...).
    """

    # the field values in order, as built: equality, hash and order compare
    # this one tuple, about three times faster than reading the fields anew
    __slots__ = ("_values",)

    def __init__(self, *values, **named):
        fields = self.__slots__
        if named:
            values += tuple(named.pop(name) for name in fields[len(values):] if name in named)
        if named or len(values) != len(fields):
            problem = (f"unknown or repeated field {', '.join(map(repr, named))}" if named
                       else f"got {len(values)} values for {len(fields)} fields")
            raise TypeError(f"{self.__class__.__qualname__}({', '.join(fields)}): {problem}")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_values", values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


@total_ordering
class OrderedRecord(Record):
    """A Record ordered by its field values, within one class."""

    __slots__ = ()

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values < other._values
        return NotImplemented


class DomainError(Exception):
    """Base of every layer's typed domain error (PellError, LatticeError,
    ConeError, AutError, PeriodsError); the CLI exits 1 on any of them."""


# ConeError and BadCongruence live here rather than in cones so that periods
# can raise BadCongruence without loading cones (and pell behind it)
class ConeError(DomainError):
    pass


class BadCongruence(ConeError):
    pass


def check_polarization(m: int, n: int, gamma: int) -> None:
    """ValueError unless m >= 2, n >= 1, gamma >= 1 and gamma divides both
    2n and 2m - 2, as for a square-2n, divisibility-gamma polarization of
    K3^[m] type; BadCongruence for gamma = 2 off n + m = 1 (mod 4), where no
    such polarization exists."""
    if m < 2 or n < 1 or gamma < 1:
        raise ValueError("need m >= 2, n >= 1, gamma >= 1")
    if (2 * n) % gamma or (2 * m - 2) % gamma:
        raise ValueError("gamma must divide both 2n and 2m-2")
    if gamma == 2 and (n + m) % 4 != 1:
        raise BadCongruence("divisibility 2 requires n + m = 1 (mod 4)")


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> tuple[tuple[int, int], ...]:
    """(p, multiplicity) pairs of n >= 1, ascending."""
    if n < 1:
        raise ValueError("prime_factors needs n >= 1")
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f += 1 if f == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def v_p(n: int, p: int) -> int:
    """p-adic valuation of n != 0, for p >= 2."""
    if n == 0:
        raise ValueError("valuation of 0")
    if p < 2:
        raise ValueError(f"valuation needs p >= 2, got p = {p}")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in prime_factors(abs(n)))


def _power_divisors(n: int, power: int) -> tuple[int, ...]:
    """All f >= 1 with f**power dividing n != 0, ascending: the products of
    p**k over the prime powers p**e of n, k <= e // power."""
    if n == 0:
        raise ValueError("divisors needs n != 0")
    out = [1]
    for p, e in prime_factors(abs(n)):
        out = [f * p ** k for f in out for k in range(e // power + 1)]
    return tuple(sorted(out))


def divisors(n: int) -> tuple[int, ...]:
    """Positive divisors of n != 0, ascending."""
    return _power_divisors(n, 1)


def square_divisors(n: int) -> tuple[int, ...]:
    """All f >= 1 with f*f dividing n != 0, ascending."""
    return _power_divisors(n, 2)


def sqrt_mod(a: int, n: int) -> Iterator[int]:
    """Every z in [0, n) with z*z = a (mod n), ascending, for n >= 1.

    The roots are found by scanning all n residues, so the time is O(n); a
    faster algorithm must keep this contract.
    """
    if n < 1:
        raise ValueError(f"sqrt_mod needs n >= 1, got n = {n}")
    a %= n
    return (z for z in range(n) if not (z * z - a) % n)


def is_square_mod(a: int, n: int) -> bool:
    """Whether a is congruent to a square modulo n (n >= 1)."""
    return next(sqrt_mod(a, n), None) is not None


def binomial_poly(x: int, k: int) -> int:
    """Binomial coefficient extended to any integer upper argument.

    Evaluates the degree-k polynomial x(x-1)...(x-k+1)/k!, so negative x is
    allowed; the result is always an integer.
    """
    if k < 0:
        raise ValueError("lower index must be >= 0")
    num = 1
    for i in range(k):
        num *= x - i
    q, r = divmod(num, factorial(k))
    if r:
        raise ArithmeticError(f"falling factorial of {x} of length {k} is not divisible by {k}!")
    return q


# ---------------------------------------------------------------------------
# wall constraints: cones and periods both read them, and here cones reads
# them without loading the discriminant-form engine


class NonPrimePower(DomainError):
    """The wall-constraint reduction needs m - 1 prime or equal to 1."""


class WallConstraint(Record):
    __slots__ = ("k", "a", "kappa_sq")


def _wall_p(m: int) -> int:
    """p = m - 1, checked to be 1 or prime."""
    if m < 2:
        raise ValueError(f"wall reduction needs m >= 2, got m = {m}")
    p = m - 1
    if p != 1 and not is_prime(p):
        raise NonPrimePower(f"wall reduction needs m - 1 prime or 1, got {p}")
    return p


def wall_constraints(m: int) -> tuple[WallConstraint, ...]:
    """All (k, a) wall conditions with negative square, for p = m - 1 prime or 1.

    A wall class is kappa = 2p*s - k*v in the Mukai lattice, with v^2 = 2p,
    s^2 = 2a >= -2 and 0 <= k = (s, v) <= p (Bayer-Macri, MMP for moduli of
    sheaves on K3s via wall-crossing, Invent. Math. 2014, section 12), so
    kappa^2 = 2p(4pa - k^2).
    """
    p = _wall_p(m)
    out = []
    for k in range(p + 1):
        a = -1
        while True:
            kappa_sq = 2 * p * (4 * p * a - k * k)
            if kappa_sq >= 0:
                break
            out.append(WallConstraint(k, a, kappa_sq))
            a += 1
    return tuple(out)


class WallType(Record):
    """The primitive class behind a wall constraint: its square, its
    divisibility in H^2 and whether the constraint bounds Mov."""

    __slots__ = ("kappa_prim_sq", "div", "bounds_mov")


# (k, a) of the constraints whose classes bound the movable cone
# (Bayer-Macri, Invent. Math. 2014, Thm 5.7): Brill-Noether, Hilbert-Chow
# and Li-Gieseker-Uhlenbeck
_MOV_BOUNDARY = ((0, -1), (1, 0), (2, 0))


def wall_types(m: int) -> tuple[WallType, ...]:
    """The distinct types of the wall constraints, for m - 1 prime or 1, by
    increasing |square| and then divisibility.

    The wall class kappa = 2p*s - k*v of the constraint (k, a), p = m - 1,
    is g = gcd(2p, k) times a primitive class of square kappa^2/g^2 and
    divisibility 2p/g.  bounds_mov flags the types of the Brill-Noether
    (0, -1), Hilbert-Chow (1, 0) and Li-Gieseker-Uhlenbeck (2, 0)
    constraints, the last for p >= 2 only: they induce divisorial
    contractions, so their hyperplanes cut out Mov and cut no wall inside
    it; the flopping constraints cut the walls inside.  No flopping
    constraint has one of these types, (-2, 1), (-2p, 2p) and (-2p, p),
    because kappa^2 = 2p(4pa - k^2) and p is prime or 1:

    - (-2, 1) needs g = 2p, so 2p | k <= p: k = 0 and a = -1.
    - (-2p, 2p) needs g = 1 and (k - 1)(k + 1) = 4pa.  a = -1 is
      impossible, a = 0 gives k = 1, and a >= 1 gives 3 <= k <= p, where
      the prime p misses k - 1 and so divides k + 1: k = p - 1, and then
      p - 2 = 4a makes p even and past 2.
    - (-2p, p) needs g = 2, so k = 2j with gcd(j, p) = 1, j <= p/2 and
      (j - 1)(j + 1) = pa.  a = -1 gives p = 1 and k = 0, a = 0 gives
      k = 2, and a >= 1 gives 2 <= j, so p >= 4 and both j - 1 and j + 1
      lie in [1, p/2 + 1], below the prime p.
    """
    two_p = 2 * (m - 1)
    types = set()
    for wc in wall_constraints(m):
        g = gcd(two_p, wc.k)
        types.add(WallType(wc.kappa_sq // (g * g), two_p // g, (wc.k, wc.a) in _MOV_BOUNDARY))
    return tuple(sorted(types, key=lambda t: (-t.kappa_prim_sq, t.div, t.bounds_mov)))
