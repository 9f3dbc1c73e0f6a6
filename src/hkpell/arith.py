"""Small exact-integer helpers and the immutable record base shared across
the package."""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from operator import attrgetter


class Record:
    """Immutable value over __slots__, which name its fields in order.

    A record is built by position or by field name, in __slots__ order, and
    each field is set once here; a subclass that checks, derives or defaults
    a field does so in its own __init__ and ends in super().__init__.
    Records are equal and hash alike by their field values, only within one
    class, and show as Name(field=value, ...).
    """

    __slots__ = ()

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

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            cls._values = property(attrgetter(*cls.__slots__))

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


class OrderedRecord(Record):
    """A Record ordered by its field values, within one class."""

    __slots__ = ()

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values < other._values
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self._values <= other._values
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return self._values > other._values
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return self._values >= other._values
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


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def sign(n: int) -> int:
    return (n > 0) - (n < 0)


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
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


def omega(n: int) -> int:
    """Number of distinct prime divisors."""
    return len(prime_factors(n))


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


def divisors(n: int) -> tuple[int, ...]:
    """Positive divisors of n != 0, ascending."""
    if n == 0:
        raise ValueError("divisors needs n != 0")
    n = abs(n)
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return tuple(small + large[::-1])


def square_divisors(n: int) -> tuple[int, ...]:
    """All f >= 1 with f*f dividing n != 0."""
    return tuple(f for f in divisors(abs(n)) if abs(n) % (f * f) == 0 and f * f <= abs(n))


def is_square_mod(a: int, n: int) -> bool:
    """Whether a is congruent to a square modulo n (n >= 1)."""
    if n < 1:
        raise ValueError(f"is_square_mod needs n >= 1, got n = {n}")
    a %= n
    return any((k * k - a) % n == 0 for k in range(n))


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
    den = 1
    for i in range(2, k + 1):
        den *= i
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"falling factorial of {x} of length {k} is not divisible by {k}!")
    return q


def gcd_all(*values: int) -> int:
    g = 0
    for v in values:
        g = gcd(g, v)
    return g
