"""Exact solvers for the Pell-type equations a^2 - e*b^2 = t and e1*a^2 - e2*b^2 = t.

All arithmetic is arbitrary-precision integer arithmetic; nothing here ever
touches a float.  Solutions of a^2 - d*b^2 = t fall into finitely many classes
under multiplication by powers of the fundamental unit of a^2 - d*b^2 = 1;
each class is represented by its minimal positive member (a > 0, b > 0,
minimal a).  The fundamental unit is read off half a period of the continued
fraction of sqrt(d): the period is a palindrome, so the expansion stops at
its midpoint, where P or Q repeats, and one product of the convergents there
closes it (Lenstra, "Solving the Pell equation", Notices AMS 2002;
Jacobson-Williams, Solving the Pell Equation, 2009, ch. 5; the two closing
formulas are in fundamental_solution).  The expansion carries the numerators
of the convergents only; their denominators are read once, at the midpoint.
Class representatives are found with the PQa continued-fraction algorithm,
which stays fast even when the fundamental unit is astronomical.
The minimum, the first n solutions and all solutions below a bound are read
from one lazy stream, positive_solutions; the minimum first refuses by two
local tests, mod 8 and mod e1*e2 (generalized_min).
"""

import heapq
from collections.abc import Iterator
from functools import lru_cache
from math import isqrt
from itertools import islice

from .arith import (DomainError, OrderedRecord, Record, _factor_within,
                    _is_square_mod_prime_power, divisors, is_square, sqrt_mod, square_divisors)


class PellError(DomainError):
    """Base class for the solver's domain errors."""


class PerfectSquareInput(PellError):
    """Raised when a fundamental unit is requested for a square d."""


class Unsolvable(PellError):
    """Raised when a solution stream is requested for an unsolvable equation."""


class WrongEquation(PellError):
    """Raised when a purported solution does not satisfy its equation."""


class ExcludedDegenerateCase(PellError):
    """Raised by compose_to_unit on the two excluded parameter combinations."""


class PellSolution(OrderedRecord):
    __slots__ = ("a", "b")

    def __iter__(self):
        yield self.a
        yield self.b


class PellEquation(Record):
    """e1*a^2 - e2*b^2 = t; the classical equation a^2 - e*b^2 = t has e1 = 1."""

    __slots__ = ("e1", "e2", "t")

    def __init__(self, e1: int, e2: int, t: int):
        if e1 < 1 or e2 < 1:
            raise ValueError(f"coefficients e1, e2 (d when e1 = 1) must be positive, "
                             f"got e1={e1}, e2={e2}")
        if t == 0:
            raise ValueError("right-hand side t must be nonzero")
        super().__init__(e1, e2, t)

    @classmethod
    def classical(cls, e: int, t: int) -> "PellEquation":
        return cls(1, e, t)

    def holds(self, a: int, b: int) -> bool:
        return self.e1 * a * a - self.e2 * b * b == self.t


class SolutionClass(Record):
    """A class of associated solutions, given by its minimal positive member.

    conjugate_of is the index (within the containing list) of the conjugate
    class when that class is distinct, and None when the class is its own
    conjugate.
    """

    __slots__ = ("representative", "conjugate_of")


class Solvability(Record):
    """Both solvability flags: with b = 0 admitted, and with b > 0 required."""

    __slots__ = ("any_solution", "with_positive_b")


# ---------------------------------------------------------------------------
# fundamental unit and exact sign tests in Z[sqrt(d)]


@lru_cache(maxsize=4096)  # over twice the 988 units of a degree_sweep pass
def fundamental_solution(d: int) -> PellSolution:
    """Minimal positive solution of a^2 - d*b^2 = 1, via half a period.

    Step i of the expansion of sqrt(d) has the complete quotient
    (P_i + sqrt(d))/Q_i and the convergent p_i/q_i.  The period l is a
    palindrome, so the first step i with P_{i+1} = P_i (l = 2i) or with
    Q_{i+1} = Q_i (l = 2i + 1) is its midpoint, and one product closes it:

    - l = 2i: the unit is ((p_{i-1}^2 + d*q_{i-1}^2)/Q_i, 2*p_{i-1}*q_{i-1}/Q_i);
    - l = 2i + 1: ((p_{i-1}*p_i + d*q_{i-1}*q_i)/Q_i, (p_{i-1}*q_i + p_i*q_{i-1})/Q_i)
      is the unit of norm -1, and it is squared once.

    That is half the steps of one period, on convergents of half the bits
    (Lenstra, "Solving the Pell equation", Notices AMS 2002; Jacobson-Williams,
    Solving the Pell Equation, 2009, ch. 5).  The expansion carries the
    numerators p_k alone, one big-integer update per step, and q is read
    once, at the midpoint, from p_k^2 - d*q_k^2 = (-1)^(k+1) * Q_{k+1}: one
    isqrt gives q_{i-1}, and on the odd branch, where Q_{i+1} = Q_i, one more
    gives q_i.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    r = isqrt(d)
    if r * r == d:
        raise PerfectSquareInput(f"{d} is a perfect square; only (+-1, 0) solve the unit equation")
    m, den, a = 0, 1, r
    p_prev, p = 1, r
    sign = 1  # (-1)^i, so that p_{i-1}^2 - d*q_{i-1}^2 = sign*Q_i
    while True:
        m_next = den * a - m
        den_next = (d - m_next * m_next) // den
        if m_next == m or den_next == den:
            break
        m, den = m_next, den_next
        a = (r + m) // den
        p, p_prev = a * p + p_prev, p
        sign = -sign
    q_prev = isqrt((p_prev * p_prev - sign * den) // d)
    if m_next == m:
        p, q = (p_prev * p_prev + d * q_prev * q_prev) // den, 2 * p_prev * q_prev // den
    else:
        # Q_{i+1} = Q_i, so p_i^2 - d*q_i^2 = -sign*Q_i
        q = isqrt((p * p + sign * den) // d)
        x, y = (p_prev * p + d * q_prev * q) // den, (p_prev * q + p * q_prev) // den
        p, q = x * x + d * y * y, 2 * x * y
    if p * p - d * q * q != 1:
        raise PellError(f"half a period of sqrt({d}) did not yield a unit of norm 1")
    return PellSolution(p, q)


def _negative_unit(d: int) -> PellSolution | None:
    """Minimal positive solution of a^2 - d*b^2 = -1, or None.

    Such a solution eta exists exactly when the period of sqrt(d) is odd, and
    then eta^2 is the fundamental unit (u, v): u = 2x^2 + 1 = 2d*y^2 - 1 for
    eta = (x, y), so x and y are read off u with two square roots.
    """
    u = fundamental_solution(d).a
    x, y = isqrt((u - 1) // 2), isqrt((u + 1) // (2 * d))
    return PellSolution(x, y) if x * x - d * y * y == -1 else None


def _sign_quad(x: int, y: int, d: int) -> int:
    """Sign of x + y*sqrt(d) for nonsquare d (never zero unless x = y = 0)."""
    if x >= 0 and y >= 0:
        return 1 if (x or y) else 0
    if x <= 0 and y <= 0:
        return -1
    # opposite signs: compare x^2 with d*y^2
    if x > 0:
        return 1 if x * x > d * y * y else -1
    return 1 if d * y * y > x * x else -1


def _mul_unit(x: int, y: int, d: int, u: PellSolution) -> tuple[int, int]:
    return x * u.a + d * y * u.b, x * u.b + y * u.a


def _canonical_rep(d: int, t: int, x: int, y: int) -> tuple[int, int]:
    """Minimal positive member of the class of (x, y) in a^2 - d*b^2 = t.

    The class members with a > 0 and b > 0 are exactly those whose real image
    x + y*sqrt(d) exceeds sqrt(|t|); the minimal one is the unique member in
    the window (sqrt(|t|), sqrt(|t|) * unit].
    """
    u = fundamental_solution(d)
    u_inv = PellSolution(u.a, -u.b)  # the conjugate, as u has norm 1
    if _sign_quad(x, y, d) < 0:
        x, y = -x, -y

    def above_window(a: int, b: int) -> bool:
        # a + b*sqrt(d) > sqrt(|t|), i.e. (a + b*sqrt(d))^2 > |t|
        return _sign_quad(a * a + d * b * b - abs(t), 2 * a * b, d) > 0

    while not above_window(x, y):
        x, y = _mul_unit(x, y, d, u)
    while above_window(*(down := _mul_unit(x, y, d, u_inv))):
        x, y = down
    if x <= 0 or y <= 0:
        raise PellError(f"class window of a^2-{d}b^2={t} left the positive quadrant")
    return x, y


# ---------------------------------------------------------------------------
# PQa machinery: class representatives of a^2 - d*b^2 = t for nonsquare d


def _pqa_hits(d: int, m: int, z: int) -> list[tuple[int, int]]:
    """(G, B) pairs with G^2 - d*B^2 = m from the expansion of (z+sqrt(d))/|m|.

    The PQa algorithm (Matthews, "The Diophantine equation x^2 - Dy^2 = N,
    D > 0", Expo. Math. 18 (2000)): with Q_0 = |m| dividing z^2 - d,
    G_{i-1}^2 - d*B_{i-1}^2 = (-1)^i * Q_0 * Q_i, so the steps with |Q_i| = 1
    are the hits of norm +-m.  The run goes through the preperiod plus two
    full periods, enough to see the fundamental solution of every class
    attached to the residue z; the expansion of a quadratic irrational is
    eventually periodic, so some state is seen a third time and it ends.
    """
    q0 = abs(m)
    if q0 == 0 or (z * z - d) % q0:
        raise PellError(f"PQa needs q0 > 0 dividing z^2 - d, got q0={q0}, z={z}, d={d}")
    s = isqrt(d)
    p_cur, q_cur = z, q0
    g_prev2, g_prev = -z, q0
    b_prev2, b_prev = 1, 0
    hits: list[tuple[int, int]] = []
    seen: dict[tuple[int, int], int] = {}
    while True:
        state = (p_cur, q_cur)
        seen[state] = seen.get(state, 0) + 1
        if seen[state] >= 3:
            return hits
        a_i = (p_cur + s) // q_cur if q_cur > 0 else (p_cur + s + 1) // q_cur
        g_i = a_i * g_prev + g_prev2
        b_i = a_i * b_prev + b_prev2
        p_next = a_i * q_cur - p_cur
        q_next = (d - p_next * p_next) // q_cur
        if abs(q_next) == 1:
            norm = g_i * g_i - d * b_i * b_i
            if abs(norm) != q0:
                raise PellError(f"PQa convergent of {g_i.bit_length()} and {b_i.bit_length()} "
                                f"bits has a norm of {norm.bit_length()} bits, not +-{q0}")
            if norm == m:
                hits.append((g_i, b_i))
        g_prev2, g_prev = g_prev, g_i
        b_prev2, b_prev = b_prev, b_i
        p_cur, q_cur = p_next, q_next


@lru_cache(maxsize=8192)  # over twice the 2572 searches of a degree_sweep pass
def _class_reps(d: int, t: int) -> tuple[PellSolution, ...]:
    """Minimal positive representatives of all solution classes of a^2 - d*b^2 = t.

    d must not be a perfect square.  Sorted by increasing a.

    For t/f^2 = m with |m| > 1 the PQa hits of norm m suffice.  After the
    first hit the complete quotient is +-(P_i + sqrt(d)), so the run enters
    the period l of sqrt(d): Q returns to +-1 once per period, and
    consecutive hits differ by +-w^(+-1), w the unit of norm (-1)^l of that
    period (checked on every run with d < 400, |m| <= 60).  The run stops at
    a state's third visit, so once it sees one hit it sees two.  If eta, the
    unit of norm -1, exists, l is odd and w = eta: a hit h of norm -m has a
    neighbouring hit +-h*eta^(+-1) of norm m, in the class of h*eta, as
    h*eta^-1 = h*eta*eps^-1.  Else no unit carries norm -m to m, and every
    hit has the sign of the first.
    """
    if is_square(d):
        raise PerfectSquareInput(f"{d} is a perfect square")
    reps: set[tuple[int, int]] = set()
    for f in square_divisors(t):
        m = t // (f * f)
        if abs(m) == 1:
            # the units of norm m form one class, led by the fundamental one
            unit = fundamental_solution(d) if m == 1 else _negative_unit(d)
            if unit is not None:
                reps.add(_canonical_rep(d, t, f * unit.a, f * unit.b))
            continue
        for z in sqrt_mod(d, abs(m)):
            for g, b in _pqa_hits(d, m, z):
                reps.add(_canonical_rep(d, t, f * g, f * b))
    return tuple(PellSolution(a, b) for a, b in sorted(reps))


def _square_d_solutions(d: int, t: int) -> tuple[PellSolution, ...]:
    """All solutions of a^2 - d*b^2 = t with a, b >= 0 when d = r^2 is a square.

    The unit group is trivial, so (a - r*b)(a + r*b) = t is solved by divisor
    pairs; there are finitely many solutions.
    """
    r = isqrt(d)
    if r * r != d:
        raise PellError(f"divisor-pair solver needs a square d, got {d}")
    out = set()
    for u in (sign * f for f in divisors(t) for sign in (1, -1)):
        v = t // u
        if (u + v) % 2:
            continue
        a = (u + v) // 2
        rb = (v - u) // 2
        if rb % r:
            continue
        b = rb // r
        if a >= 0 and b >= 0:
            out.add((a, b))
    return tuple(PellSolution(a, b) for a, b in sorted(out))


# ---------------------------------------------------------------------------
# the solution stream of e1*a^2 - e2*b^2 = t
#
# (a, b) <-> (e1*a, b) is a bijection onto the solutions of
# A^2 - (e1*e2)*B^2 = e1*t whose first argument is divisible by e1.


def _orbit_mod_cycle(d: int, rep: PellSolution, e1: int) -> Iterator[PellSolution]:
    """Members (A, B) of rep's positive orbit with e1 | A, yielded as (A/e1, B).

    Stops silently once the orbit's residues mod e1 start repeating without a
    hit, which bounds the search exactly.  The unit is fetched only when the
    orbit moves past rep, so reading a qualifying rep never computes it.
    """
    u = None
    x, y = rep.a, rep.b
    seen = set()
    found = False
    while True:
        if x % e1 == 0:
            # residues mod e1 are purely periodic (the unit acts invertibly),
            # so after one hit the stream keeps hitting forever
            found = True
            yield PellSolution(x // e1, y)
        elif not found:
            key = (x % e1, y % e1)
            if key in seen:
                return
            seen.add(key)
        if u is None:
            u = fundamental_solution(d)
        x, y = _mul_unit(x, y, d, u)


def positive_solutions(e1: int, e2: int, t: int) -> Iterator[PellSolution]:
    """Every positive solution of e1*a^2 - e2*b^2 = t, by increasing a.

    The stream is finite exactly when e1*e2 is a perfect square; otherwise it
    lazily merges the orbits of the classes of A^2 - e1*e2*B^2 = e1*t.
    With e2 = 1 < e1 it reads the classical b^2 - e1*a^2 = -t instead, whose
    class search scans |t| residues rather than e1*|t|: b grows with a on
    the branch, so the solutions come in the same order.
    """
    PellEquation(e1, e2, t)  # domain check
    if e2 == 1 < e1:
        yield from (PellSolution(s.b, s.a) for s in positive_solutions(1, e1, -t))
        return
    d, big_t = e1 * e2, e1 * t
    if is_square(d):
        yield from (PellSolution(s.a // e1, s.b) for s in _square_d_solutions(d, big_t)
                    if s.a > 0 and s.b > 0 and s.a % e1 == 0)
        return
    reps = _class_reps(d, big_t)
    # heap of (A, class, member); a class's orbit is opened only when its rep's
    # A, a lower bound for all its members, comes to the top.  reps is sorted,
    # so the list starts out as a heap.
    heap = [(rep.a, i, None) for i, rep in enumerate(reps)]
    orbits = {}
    while heap:
        _, i, sol = heap[0]
        if sol is None:
            orbits[i] = _orbit_mod_cycle(d, reps[i], e1)
        else:
            yield sol
        nxt = next(orbits[i], None)
        if nxt is None:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, (e1 * nxt.a, i, nxt))


def min_positive_solution(eq: PellEquation) -> PellSolution | None:
    """Minimal positive solution (a > 0, b > 0, minimal a), or None."""
    return generalized_min(eq.e1, eq.e2, eq.t)


def generalized_min(e1: int, e2: int, t: int) -> PellSolution | None:
    """Minimal positive solution of e1*a^2 - e2*b^2 = t, or None.

    Two local tests refuse before any class search or unit.  A solution
    reduces mod 8, where the squares are 0, 1 and 4, so e1*x - e2*y = t
    (mod 8) for some squares x, y mod 8: in O(1) this refuses a^2 - e*b^2 =
    -1 for e = 3 (mod 4), whatever the size of e.  A solution also gives
    (e1*a)^2 = e1*t and (e2*b)^2 = -e2*t modulo e1*e2, so where either is no
    square mod e1*e2 the answer is None: e1*e2 is factored once, and the
    rule of arith._is_square_mod_prime_power decides both at each of its
    prime powers.  So that this test never costs much more than the search
    it saves, which builds a unit and, for |t| > 1, scans at least |t|
    residues, each rho split
    of the factoring gets at most 1000 + |t| steps, and a strong probable
    prime past PSI_13 is not trial-divided: where the factoring would take
    longer, the test is left to the search.  Otherwise the minimum is the
    head of positive_solutions.
    """
    PellEquation(e1, e2, t)  # domain check
    if all((e1 * x - e2 * y - t) % 8 for x in (0, 1, 4) for y in (0, 1, 4)):
        return None
    primes = _factor_within(e1 * e2, 1000 + abs(t))
    if primes is not None and not all(_is_square_mod_prime_power(e1 * t, r, k)
                                      and _is_square_mod_prime_power(-e2 * t, r, k)
                                      for r, k in primes):
        return None
    return next(positive_solutions(e1, e2, t), None)


def solutions_in_order(d: int, t: int, count: int) -> list[PellSolution]:
    """The first `count` positive solutions of a^2 - d*b^2 = t, by increasing a.

    At most `count`: fewer when the stream is finite (square d).
    """
    if count < 1:
        raise ValueError("count must be positive")
    out = list(islice(positive_solutions(1, d, t), count))
    if not out:
        raise Unsolvable(f"a^2-{d}b^2={t} has no positive solutions")
    return out


def solvability(eq: PellEquation) -> Solvability:
    """Both flags: any solution at all (a = 0 or b = 0 admitted), and a positive one."""
    pos = min_positive_solution(eq) is not None
    # (a, 0) solves when t = e1 * square, (0, b) when t = -e2 * square; for
    # nonsquare d the unit action turns either into a positive solution, but
    # for square d they can be the only ones
    b_zero = eq.t > 0 and eq.t % eq.e1 == 0 and is_square(eq.t // eq.e1)
    a_zero = eq.t < 0 and eq.t % eq.e2 == 0 and is_square(-eq.t // eq.e2)
    return Solvability(pos or b_zero or a_zero, pos)


# ---------------------------------------------------------------------------
# solution classes of the classical equation


def solution_classes(d: int, t: int) -> list[SolutionClass]:
    """One minimal-positive representative per solution class, with conjugacy links."""
    PellEquation.classical(d, t)  # domain check
    reps = _class_reps(d, t)
    index = {(s.a, s.b): i for i, s in enumerate(reps)}
    out = []
    for s in reps:
        conj = _canonical_rep(d, t, s.a, -s.b)
        j = index[conj]
        out.append(SolutionClass(s, j if j != index[(s.a, s.b)] else None))
    return out


def same_class(d: int, t: int, s1: PellSolution, s2: PellSolution) -> bool:
    """Whether two solutions are associated (differ by a unit, up to sign)."""
    PellEquation.classical(d, t)  # domain check
    for s in (s1, s2):
        if s.a * s.a - d * s.b * s.b != t:
            raise WrongEquation(f"{s} does not solve a^2-{d}b^2={t}")
    if is_square(d):
        return (abs(s1.a), abs(s1.b)) == (abs(s2.a), abs(s2.b))
    # s1 ~ s2 iff s1 * conj(s2) / t lies in Z[sqrt(d)] (it then has norm 1)
    x = s1.a * s2.a - d * s1.b * s2.b
    y = s2.a * s1.b - s1.a * s2.b
    return x % abs(t) == 0 and y % abs(t) == 0


def compose_to_unit(e1: int, e2: int, eps: int, s: PellSolution) -> PellSolution:
    """Fundamental solution of a^2 - e1*e2*b^2 = 1 from a minimal solution of
    e1*a^2 - e2*b^2 = eps, namely (e1*a^2 + e2*b^2, 2ab).

    The two degenerate combinations (e1 = eps = 1) and (e2 = -eps = 1) are
    excluded: there the recipe does not produce the fundamental unit.
    """
    if eps not in (-1, 1):
        raise ValueError("eps must be +-1")
    if e1 == 1 and eps == 1:
        raise ExcludedDegenerateCase("e1 = eps = 1 is excluded")
    if e2 == 1 and eps == -1:
        raise ExcludedDegenerateCase("e2 = -eps = 1 is excluded")
    if e1 * s.a * s.a - e2 * s.b * s.b != eps:
        raise WrongEquation(f"{s} does not solve {e1}a^2-{e2}b^2={eps}")
    expected = generalized_min(e1, e2, eps)
    if expected != s:
        raise ValueError(f"{s} is not the minimal solution; expected {expected}")
    return PellSolution(e1 * s.a * s.a + e2 * s.b * s.b, 2 * s.a * s.b)
