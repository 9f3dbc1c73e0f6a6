"""Heegner-divisor bookkeeping and the image of the period map.

A divisor component is identified by (d, kappa^2, s, +-star): the
discriminant d of the orthogonal-complement lattice, the square of the
primitive cutting class, its divisibility s inside the polarized orthogonal,
and its discriminant class up to sign.  Realizability of a candidate triple
reduces to an exact order/quadratic-value match in the discriminant group;
the ambient divisibility required by the wall conditions is computed from a
canonical representative in explicit block coordinates.

An independent brute-force enumeration over bounded coordinates
(coordinate_oracle) cross-checks the analytic route.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Optional

from .arith import (DomainError, OrderedRecord, Record, gcd_all, is_prime, is_square_mod,
                    is_squarefree, v_p, wall_types)
# the wall constraints and their domain error, bound here too so that periods
# keeps their names
from .arith import NonPrimePower, wall_constraints  # noqa: F401
# the model's domain errors, bound here too so that periods keeps their names
from .discform import (BadCongruence, UnsupportedParameters, block_sum,  # noqa: F401
                       disc_group_of_gram, polarized_tail, residue)


class PeriodsError(DomainError):
    pass


class HeegnerKey(OrderedRecord):
    """One irreducible Heegner-divisor component.

    star holds the discriminant-class residues with respect to the model's
    generators, normalized to the lexicographically smaller of +-star.
    """

    __slots__ = ("d", "kappa_prim_sq", "s", "star")


class ComponentReport(Record):
    __slots__ = ("count", "keys", "certain")


class ExclusionReport(Record):
    """uncertain holds the keys whose multiplicity is not pinned down."""

    __slots__ = ("keys", "uncertain")


# ---------------------------------------------------------------------------
# the coordinate model of the polarized orthogonal


class _Model(Record):
    """Non-unimodular tail of the polarized orthogonal, in block coordinates:
    tail is the block sum of discform.polarized_tail, disc its discriminant
    group and gen_vecs the generators' lifts to the tail's dual.  The
    coordinates are (u - n*v, ell) for gamma = 1 and (w1, w2) for gamma = 2.
    """

    __slots__ = ("m", "n", "gamma", "tail", "disc", "gen_vecs")

    @property
    def p(self) -> int:
        return self.m - 1

    def dual_of_star(self, star) -> tuple[Fraction, Fraction]:
        x1 = sum((c * v[0] for c, v in zip(star, self.gen_vecs)), Fraction(0))
        x2 = sum((c * v[1] for c, v in zip(star, self.gen_vecs)), Fraction(0))
        return x1, x2

    def ambient_div(self, star, s: int) -> int:
        """Divisibility in the full second-cohomology lattice of the canonical
        representative of a primitive class with discriminant data (star, s)."""
        x1, x2 = self.dual_of_star(star)
        a0, b0 = s * x1, s * x2
        if a0.denominator != 1 or b0.denominator != 1:
            raise PeriodsError(f"{s} times the dual of star {tuple(star)} is not integral")
        return self._ambient_div_coords(int(a0), int(b0), s)

    def _ambient_div_coords(self, a: int, b: int, c: int) -> int:
        if self.gamma == 1:
            return gcd_all(a, 2 * self.p * b, c)
        return gcd_all(self.p * a, b, c)

    def tail_square(self, a: int, b: int) -> int:
        t = self.tail
        return t[0][0] * a * a + 2 * t[0][1] * a * b + t[1][1] * b * b

    def tail_pairings(self, a: int, b: int) -> tuple[int, int]:
        t = self.tail
        return t[0][0] * a + t[0][1] * b, t[1][0] * a + t[1][1] * b


@lru_cache(maxsize=None)
def _model(m: int, n: int, gamma: int) -> _Model:
    blocks = polarized_tail(m, n, gamma)
    return _Model(m, n, gamma, block_sum(*blocks), *disc_group_of_gram(*blocks))


def _realizable_classes(m: int, n: int, gamma: int, kappa_sq: int):
    """(s, normalized star, ambient divisibility) triples realizing kappa_sq.

    A primitive class of square kappa_sq with discriminant class star exists
    iff star's quadratic value matches kappa_sq / order(star)^2 modulo 2; the
    divisibility is then the order of star.
    """
    model = _model(m, n, gamma)
    return [(s, star, model.ambient_div(star, s))
            for s, by_q in model.disc.index().items()
            for star in by_q.get(residue(kappa_sq, s), ())]


def _key(m: int, n: int, gamma: int, kappa_sq: int, s: int, star) -> HeegnerKey:
    d_num = abs(kappa_sq) * _model(m, n, gamma).disc.order
    if d_num % (s * s):
        raise PeriodsError(f"s^2 = {s * s} does not divide the discriminant {d_num}")
    return HeegnerKey(d_num // (s * s), kappa_sq, s, tuple(star))


# ---------------------------------------------------------------------------
# dimension 4 (m = 2): nonemptiness, components, exclusion list


def heegner_nonempty_m2(n: int, gamma: int, e: int) -> bool:
    """Whether the discriminant-2e Heegner locus is nonempty for square-2n data."""
    if e < 1:
        raise ValueError("need n >= 1 and e >= 1")
    polarized_tail(2, n, gamma)  # the domain check
    if gamma == 1:
        return is_square_mod(e, 4 * n) or is_square_mod(e - n, 4 * n)
    return is_square_mod(e, n)


def _classes_for_discriminant(n: int, gamma: int, e: int):
    """All (s, star, kappa^2) of primitive classes cutting discriminant 2e."""
    model = _model(2, n, gamma)
    disc = model.disc.order
    out = []
    for s, by_q in model.disc.index().items():
        num = 2 * e * s * s
        if num % disc == 0:
            kappa_sq = -(num // disc)
            out.extend((s, star, kappa_sq) for star in by_q.get(residue(kappa_sq, s), ()))
    return out


def heegner_components_m2(n: int, gamma: int, e: int) -> ComponentReport:
    """Component count (when the classification applies) with component keys."""
    if e < 1:
        raise ValueError("need n >= 1 and e >= 1")
    classes = _classes_for_discriminant(n, gamma, e)
    keys = tuple(sorted(_key(2, n, gamma, k2, s, star) for s, star, k2 in classes))
    proven = is_prime(n) or (is_squarefree(n) and e % n == 0)
    if proven:
        return ComponentReport(len(keys), keys, True)
    return ComponentReport(None, keys, False)


def uncertain_m2(n: int, keys) -> tuple[HeegnerKey, ...]:
    """The keys among an m = 2 excluded list whose number of components is
    not pinned down: those of square -10 and divisibility 10, when the
    5-free part of n is not squarefree."""
    if is_squarefree(n // 5 ** v_p(n, 5)):
        return ()
    return tuple(k for k in keys if (k.kappa_prim_sq, k.s) == (-10, 10))


def excluded_heegner_m2_report(n: int, gamma: int) -> ExclusionReport:
    """Components missed by the period map on square-2n moduli of fourfolds.

    These are excluded_heegner(2, n, gamma): the components cut by square -2
    classes (any divisibility) and by square -10 classes of ambient
    divisibility 2.
    """
    keys = excluded_heegner(2, n, gamma)
    return ExclusionReport(keys, uncertain_m2(n, keys))


def excluded_heegner_m2(n: int, gamma: int) -> tuple[HeegnerKey, ...]:
    return excluded_heegner_m2_report(n, gamma).keys


# ---------------------------------------------------------------------------
# all dimensions with m - 1 prime (or 1)


def excluded_heegner(m: int, n: int, gamma: int) -> tuple[HeegnerKey, ...]:
    """The full excluded-component list: union over all wall constraints.

    A constraint of type (kappa^2/g^2, 2p/g) of arith.wall_types, p = m - 1
    and g = gcd(2p, k), keeps the primitive classes of square kappa^2/g^2
    whose ambient divisibility amb is divisible by 2p/g; each distinct
    square is asked of the discriminant group once.  The other multiples
    b*kappa' of square kappa^2 add no key.  Take a primitive kappa' in
    H^2(X) = v^perp with ambient divisibility amb.  Its glue gives
    s = kappa'/amb + (k'/2p)*v in the Mukai lattice, with
    gcd(2p, k') = 2p/amb, so (2p/amb)*kappa' = 2p*s - k'*v.  Say b*kappa'
    has the square of the constraint (k, a) and 2p | b*amb, that is
    b = j*(2p/amb).  As p is prime or 1, equal squares give k = +-j*k'
    (mod 2p), so the constraint's witness is s'' = j*s + i*v (up to the
    sign of kappa'), and 0 <= k <= p gives j^2 * s^2 >= s''^2 >= -2.  For
    j = 1, b = g already.  For j >= 2, s^2 >= -1/2 and s^2 is even, so
    s^2 >= 0 for every lift s; with k' moved into [0, p], (k', s^2/2) is
    itself a constraint, and its g = 2p/amb keeps kappa'.
    """
    divs_by_square: dict[int, list[int]] = {}
    for wt in wall_types(m):
        divs_by_square.setdefault(wt.kappa_prim_sq, []).append(wt.div)
    keys = set()
    for prim_sq, divs in divs_by_square.items():
        for s, star, amb in _realizable_classes(m, n, gamma, prim_sq):
            if any(amb % div == 0 for div in divs):
                keys.add(_key(m, n, gamma, prim_sq, s, star))
    return tuple(sorted(keys))


def excluded_discriminants(m: int, n: int, gamma: int) -> tuple[int, ...]:
    """Sorted distinct d values of the excluded components."""
    return tuple(sorted({k.d for k in excluded_heegner(m, n, gamma)}))


# ---------------------------------------------------------------------------
# brute-force coordinate oracle


@lru_cache(maxsize=None)
def _coprime_products(bound: int) -> frozenset[int]:
    """Products x*y over coprime pairs with |x|, |y| <= bound (0 included)."""
    vals = {0}
    for x in range(1, bound + 1):
        for y in range(x, bound + 1):
            if gcd(x, y) == 1:
                vals.add(x * y)
                vals.add(-x * y)
    return frozenset(vals)


def coordinate_oracle(m: int, n: int, gamma: int, bound: int,
                      squares: Optional[frozenset] = None) -> frozenset:
    """Invariant quadruples (kappa^2, s, +-star, ambient div) realized in a box.

    Enumerates kappa = a*t1 + b*t2 + c*w over tail coordinates
    |a|, |b| <= bound, 0 <= c <= bound, where w = x*u + y*v runs over a
    hyperbolic plane with coprime |x|, |y| <= bound (realizing every even
    square 2xy).  Restricting to `squares` only filters the report; the box
    is unchanged.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    model = _model(m, n, gamma)
    products = _coprime_products(bound)
    # the normalized star of each dual class modulo the tail lattice
    stars = {}
    for el in model.disc.elements():
        x1, x2 = model.dual_of_star(el)
        stars[(x1 % 1, x2 % 1)] = model.disc.normalize(el)
    out = set()
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            base = model.tail_square(a, b)
            pr1, pr2 = model.tail_pairings(a, b)
            for c in range(bound + 1):
                if gcd_all(a, b, c) != 1:
                    continue
                s = gcd_all(pr1, pr2, c)
                star = stars[(Fraction(a, s) % 1, Fraction(b, s) % 1)]
                amb = model._ambient_div_coords(a, b, c)
                if c == 0:
                    realized = (base,)
                elif squares is None:
                    realized = tuple(base + 2 * c * c * prod for prod in products)
                else:
                    realized = tuple(
                        sq for sq in squares
                        if (sq - base) % (2 * c * c) == 0
                        and (sq - base) // (2 * c * c) in products
                    )
                for k2 in realized:
                    if squares is None or k2 in squares:
                        out.add((k2, s, star, amb))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Hilbert-square parametrizations of Noether-Lefschetz families


def hilbert_square_points(n: int, e: int) -> tuple[tuple[int, int, int], ...]:
    """All (a, b, gamma) giving an ample primitive square-2n class b*L - a*delta.

    The conditions are a^2 - e*b^2 = -n, gcd(a, b) = 1, and slope a/b strictly
    below the nef boundary of the Hilbert square; gamma is 2 for even b and 1
    for odd b.  Sorted by increasing a.
    """
    from . import cones, pell  # only here: other period commands load neither

    if n < 1 or e < 1:
        raise ValueError("need n >= 1 and e >= 1")
    nu_sq = cones.nef_slope_s2(e).squared()
    out = []
    # a^2/b^2 = e - n/b^2 grows along the stream, which is finite for square e
    for a, b in pell.positive_solutions(1, e, -n):
        if Fraction(a, b) ** 2 >= nu_sq:
            break
        if gcd(a, b) == 1:
            out.append((a, b, 2 if b % 2 == 0 else 1))
    return tuple(out)


def hilbert_square_point(n: int, e: int, gamma: int = 2) -> Optional[tuple[int, int, int]]:
    """Minimal admissible (a, b, gamma) with the requested divisibility, or None.

    The divisibility-2 flavor (even b) is the default: it is the one carrying
    the fourfolds with a square-2n polarization of divisibility 2.
    """
    if gamma not in (1, 2):
        raise UnsupportedParameters("gamma must be 1 or 2")
    for a, b, g in hilbert_square_points(n, e):
        if g == gamma:
            return (a, b, g)
    return None


def nl_family(n: int, gamma: int, a_max: int) -> tuple[int, ...]:
    """Degrees e of Hilbert squares populating square-2n Noether-Lefschetz loci.

    gamma = 1: e = a^2 + n for 1 <= a <= a_max, excluding (n, a) = (1, 2);
    gamma = 2: e = a^2 + a + (n+1)/4 for 0 <= a <= a_max, excluding (3, 1).
    """
    if a_max < 0:
        raise ValueError("a_max must be nonnegative")
    polarized_tail(2, n, gamma)  # the domain check
    if gamma == 1:
        return tuple(sorted({a * a + n for a in range(1, a_max + 1)
                             if (n, a) != (1, 2)}))
    return tuple(sorted({a * a + a + (n + 1) // 4 for a in range(a_max + 1)
                         if (n, a) != (3, 1)}))
