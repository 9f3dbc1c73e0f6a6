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
    values, only within one class, and show as Name(field=value, ...), as
    _value_text writes each value.
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
        fields = ", ".join(f"{name}={_value_text(v)}"
                           for name, v in zip(self.__slots__, self._values))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


def _int_text(n: int) -> str:
    """n in decimal, or its bit length where decimal is past the interpreter's
    int-to-str digit limit (units reach it: d = 10**9 + 7 has ~6400 digits)."""
    try:
        return str(n)
    except ValueError:
        return f"<{n.bit_length()}-bit int>"


def _value_text(v) -> str:
    """repr(v), with _int_text writing each int in it: v itself, each part
    of a rational, written Fraction(p, q), and each item of a tuple.  A
    rational is a non-int value with a numerator and a denominator, so that
    arith loads no fractions."""
    if isinstance(v, int):
        return _int_text(v)
    if type(v) is tuple:
        items = ", ".join(map(_value_text, v))
        return f"({items},)" if len(v) == 1 else f"({items})"
    if hasattr(v, "numerator") and hasattr(v, "denominator"):
        return f"{type(v).__name__}({_int_text(v.numerator)}, {_int_text(v.denominator)})"
    return repr(v)


def ratio_text(q) -> str:
    """A rational or an int as "p/q", with _int_text writing each part."""
    return f"{_int_text(q.numerator)}/{_int_text(q.denominator)}"


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
    ConeError, PeriodsError); the CLI exits 1 on any of them."""


# ConeError, BadCongruence and UnsupportedParameters live here, so that every
# layer raises them without loading cones (and pell behind it) or discform
class ConeError(DomainError):
    pass


class BadCongruence(ConeError):
    pass


class UnsupportedParameters(DomainError):
    """A polarization that exists, but that no model or cited statement covers."""


def polarization_classes(m: int, n: int, gamma: int) -> tuple[int, ...]:
    """The k in [0, gamma) prime to gamma with n + (m-1)k^2 = 0 (mod gamma^2):
    the discriminant classes of the square-2n, divisibility-gamma primitive
    classes h in the lattice of K3^[m] type, for gamma dividing 2n and 2m - 2.

    The discriminant group D = Z/2(m-1) is generated by l/2(m-1), of q-bar
    -1/2(m-1) mod 2, where l spans the I1(-2(m-1)) block.  As h is primitive,
    h/gamma lies in the dual and its class has order gamma in D, so it is
    k * 2(m-1)/gamma times l/2(m-1) for some k prime to gamma, defined mod
    gamma.  Its q-bar, -2(m-1)k^2/gamma^2, must equal h^2/gamma^2 = 2n/gamma^2
    mod 2, which is the congruence.  By Eichler's criterion each such k is
    realized (Gritsenko-Hulek-Sankaran, Compositio 2010, sec. 3), and by
    Markman's monodromy theorem the components of the moduli space are these
    k up to sign (Apostolov, Ann. Inst. Fourier 2014).  gamma = 1 gives
    k = 0 alone, and gamma = 2 gives k = 1 exactly when n + m = 1 (mod 4).
    Mod q^2, q a prime power of gamma, the congruence is 2n/q + (2(m-1)/q)k^2 =
    0 (mod 2q), of k mod q: the classes are a Chinese remainder of q-scans.
    """
    classes, modulus = [0], 1
    for r, e in prime_factors(gamma):
        q = r ** e
        a, b = 2 * n // q % (2 * q), (2 * m - 2) // q % (2 * q)
        roots = [k for k in range(q) if k % r and not (a + b * k * k) % (2 * q)]
        classes = [c + modulus * ((k - c) * pow(modulus, -1, q) % q) for c in classes
                   for k in roots]
        modulus *= q
    return tuple(sorted(classes))


def check_polarization(m: int, n: int, gamma: int) -> tuple[int, ...]:
    """polarization_classes, after a ValueError unless m >= 2, n >= 1, gamma >= 1
    and gamma divides both 2n and 2m - 2, as for a square-2n, divisibility-gamma
    polarization of K3^[m] type; BadCongruence when there is no class, so that
    no such polarization exists (for gamma = 2: off n + m = 1 mod 4)."""
    if m < 2 or n < 1 or gamma < 1:
        raise ValueError("need m >= 2, n >= 1, gamma >= 1")
    if (2 * n) % gamma or (2 * m - 2) % gamma:
        raise ValueError("gamma must divide both 2n and 2m-2")
    if not (classes := polarization_classes(m, n, gamma)):
        rule = ("n + m = 1 (mod 4)" if gamma == 2 else
                f"n + (m-1)k^2 = 0 (mod {gamma * gamma}) for some k prime to {gamma}")
        raise BadCongruence(f"divisibility {gamma} requires {rule}")
    return classes


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def is_prime(n: int) -> bool:
    """Whether n is prime.  A composite with a factor below 1000 is rejected
    at its first such factor, and any other by a Miller-Rabin witness; only
    a strong probable prime past PSI_13 is trial-divided on, to sqrt(n)."""
    if n < 2:
        return False
    small = next((f for f in range(2, 1000) if n % f == 0), None)
    if small is not None:
        return n == small
    if n < 10**6:
        return True
    return _strong_probable_prime(n) and (
        n < PSI_13 or all(n % f for f in range(1001, isqrt(n) + 1, 2)))


# Miller-Rabin to the first 13 prime bases is exact below PSI_13: no composite
# below it is a strong probable prime to all of them (Sorenson-Webster,
# Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


def _strong_probable_prime(n: int) -> bool:
    """Whether the odd n, prime to every base, passes Miller-Rabin to each
    of _MR_BASES; a base it fails proves n composite."""
    s = v_p(n - 1, 2)
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int, steps: int | None) -> int | None:
    """A proper factor of the odd composite n, which has no prime below
    1000, by Pollard-Brent rho (Brent, BIT 1980): x -> x^2 + c from
    x = 2, the cycle found by doubling r and the gcd taken over blocks of 128
    steps, backtracking one step at a time where a block overshoots; c = 1,
    2, ... until a factor comes out, so the answer is deterministic.  None
    once the map would run more than `steps` times (at most 128 more for a
    backtrack); steps None sets no bound."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps is not None:
                steps -= 2 * r  # r steps to advance x, at most r in blocks
                if steps < 0:
                    return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _trial_division(n: int, f: int, stop: int) -> tuple[list[tuple[int, int]], int, int]:
    """Trial division of n by f (2 or odd) and every odd number past it,
    while f*f <= n and f < stop: the prime powers found, the cofactor and
    the f reached.  A cofactor below that f squared is 1 or prime."""
    out = []
    while f * f <= n and f < stop:
        if n % f == 0:
            e = v_p(n, f)
            n //= f ** e
            out.append((f, e))
        f += 1 if f == 2 else 2
    return out, n, f


def _factor_within(n: int, steps: int | None) -> tuple[tuple[int, int], ...] | None:
    """prime_factors(n), or None where it would take more than `steps` rho
    steps to split one composite cofactor (there are at most log_1000(n)
    splits), or where a strong probable prime past PSI_13 would have to be
    trial-divided; steps None bounds neither, so the answer always comes."""
    if n < 1:
        raise ValueError("prime_factors needs n >= 1")
    out, n, f = _trial_division(n, 2, 1000)
    found: dict[int, int] = {}
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if m >= f * f and not _strong_probable_prime(m):
            if (p := _rho_factor(m, steps)) is None:
                return None
            rest += [p, m // p]
        elif m < PSI_13:  # so is every m < f * f
            found[m] = found.get(m, 0) + 1
        elif steps is not None:
            return None
        else:
            pairs, m, _ = _trial_division(m, f, m)
            for p, e in pairs + [(m, 1)] * (m > 1):
                found[p] = found.get(p, 0) + e
    return tuple(out + sorted(found.items()))


def prime_factors(n: int) -> tuple[tuple[int, int], ...]:
    """(p, multiplicity) pairs of n >= 1, ascending.

    Trial division by f < 1000 comes first, so that an n below 10^6 is
    factored by it alone.  A larger cofactor m has no prime below 1000: a
    Miller-Rabin witness proves it composite at any size, and Pollard-Brent
    rho splits it; a strong probable prime below PSI_13 is prime.  Only a
    strong probable prime past PSI_13 is trial-divided on, so every answer
    is exact, and below PSI_13 the expected cost is O(n^(1/4)).
    """
    return _factor_within(n, None)


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


def _is_square_mod_prime_power(a: int, r: int, k: int) -> bool:
    """Whether a is a square modulo r**k, for r prime and k >= 1.

    With a = r^v * u, r not dividing u, and v < k, a root z has v_r(z^2) = v,
    so v is even and z = r^(v/2) * w with w^2 = u (mod r^(k-v)).  That asks
    Euler's criterion u^((r-1)/2) = 1 (mod r) for odd r (Hensel lifts the
    root), and at r = 2, u = 1 modulo 8, or modulo 4 when k - v = 2 (Cohen,
    GTM 138, Sec. 1.5).  A multiple of r^k is the square of 0.
    """
    q = r ** k
    a %= q
    if a == 0:
        return True
    v = v_p(a, r)
    if v % 2:
        return False
    a //= r ** v
    if r == 2:
        return k - v == 1 or a % (4 if k - v == 2 else 8) == 1
    return pow(a, (r - 1) // 2, r) == 1


def sqrt_mod(a: int, n: int) -> Iterator[int]:
    """Every z in [0, n) with z*z = a (mod n), ascending, for n >= 1.

    At each prime r of gcd(a, n) the rule of _is_square_mod_prime_power, at
    the power r^k of r in n, is checked first, and a failure yields no root
    at once.  The rule passes where r^k divides a, so only the primes of
    gcd(g, n/g), g = gcd(a, n), are read, at the cost of one factoring by
    prime_factors.  Otherwise the roots are found by scanning all n residues, so
    the time is O(n); a faster algorithm must keep this contract.
    """
    if n < 1:
        raise ValueError(f"sqrt_mod needs n >= 1, got n = {n}")
    a %= n
    g = gcd(a, n)
    if any(not _is_square_mod_prime_power(a, r, v_p(n, r))
           for r, _ in prime_factors(gcd(g, n // g))):
        return iter(())
    return (z for z in range(n) if z * z % n == a)


def is_square_mod(a: int, n: int) -> bool:
    """Whether a is congruent to a square modulo n (n >= 1), in O(n^(1/4))
    below PSI_13.

    A perfect square a in [0, n) answers at once, before n is factored: a
    z <= sqrt(n) has z^2 <= n, so z^2 = a (mod n) means z^2 = a, or a = 0
    where z^2 = n, and the small roots are exactly sqrt(a).  Otherwise, as a
    root mod n is a root mod each prime power of n and the roots mod the
    prime powers combine by the Chinese remainder theorem, the rule of
    _is_square_mod_prime_power at every prime power of n decides; this costs
    one factoring of n by prime_factors, which trial-divides only a strong
    probable prime past PSI_13.
    """
    if n < 1:
        raise ValueError(f"is_square_mod needs n >= 1, got n = {n}")
    a %= n
    if is_square(a):
        return True
    return all(_is_square_mod_prime_power(a, r, k) for r, k in prime_factors(n))


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
    # kappa^2 < 0 exactly when a < k^2/4p, i.e. a < ceil(k^2/4p)
    return tuple(WallConstraint(k, a, 2 * p * (4 * p * a - k * k))
                 for k in range(p + 1) for a in range(-1, -(-k * k // (4 * p))))


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
