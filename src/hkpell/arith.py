"""Small exact-integer helpers shared across the package."""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt


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
    """p-adic valuation of n != 0."""
    if n == 0:
        raise ValueError("valuation of 0")
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
