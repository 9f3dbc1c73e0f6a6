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

from math import gcd, lcm

from .arith import (DomainError, OrderedRecord, Record, UnsupportedParameters,
                    check_polarization, divisors, is_prime, is_square_mod, is_squarefree, v_p,
                    wall_types)
from .discform import PolarizedModel, polarized_model


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
# the polarized orthogonal: ambient divisibility and keys, read off the model
# that each query builds once


def _ambient_div(model: PolarizedModel, star, s: int) -> int:
    """Divisibility in the full second-cohomology lattice of the canonical
    representative of a primitive class with discriminant data (star, s):
    s times star's dual vector is the sum of (s*c/d)*v over the generators."""
    a = b = 0
    for c, (d, _, v) in zip(star, model.gens):
        if s * c % d:
            raise PeriodsError(f"{s} times the dual of star {tuple(star)} is not integral")
        a, b = a + s * c // d * v[0], b + s * c // d * v[1]
    return _ambient_div_coords(model, a, b, s)


def _ambient_div_coords(model: PolarizedModel, a: int, b: int, c: int) -> int:
    """Divisibility of a*w1 + b*w2 + c*w, w primitive in another U summand: the
    gcd of c and the pairings of a*w1 + b*w2 with u, v and ell."""
    (u1, v1, l1), (u2, v2, l2) = model.basis
    return gcd(a * v1 + b * v2, a * u1 + b * u2, 2 * (model.m - 1) * (a * l1 + b * l2), c)


def _key(model: PolarizedModel, kappa_sq: int, s: int, star) -> HeegnerKey:
    d_num = abs(kappa_sq) * model.disc.order
    if d_num % (s * s):
        raise PeriodsError(f"s^2 = {s * s} does not divide the discriminant {d_num}")
    return HeegnerKey(d_num // (s * s), kappa_sq, s, tuple(star))


# ---------------------------------------------------------------------------
# dimension 4 (m = 2): nonemptiness, components, exclusion list


def heegner_nonempty_m2(n: int, gamma: int, e: int) -> bool:
    """Whether the discriminant-2e Heegner locus is nonempty for square-2n data."""
    if n < 1 or e < 1:
        raise ValueError("need n >= 1 and e >= 1")
    check_polarization(2, n, gamma)
    if gamma == 1:
        return is_square_mod(e, 4 * n) or is_square_mod(e - n, 4 * n)
    return is_square_mod(e, n)


def _classes_for_discriminant(model: PolarizedModel, e: int):
    """All (s, star, kappa^2) of primitive classes of the model cutting
    discriminant 2e."""
    disc = model.disc.order
    out = []
    for s in divisors(lcm(*model.disc.orders)):
        num = 2 * e * s * s
        if num % disc == 0:
            kappa_sq = -(num // disc)
            out.extend((s, star, kappa_sq) for _, star in model.disc.realizing(kappa_sq, s))
    return out


def heegner_components_m2(n: int, gamma: int, e: int) -> ComponentReport:
    """Component count (when the classification applies) with component keys."""
    if n < 1 or e < 1:
        raise ValueError("need n >= 1 and e >= 1")
    model = polarized_model(2, n, gamma)
    keys = tuple(sorted(_key(model, k2, s, star)
                        for s, star, k2 in _classes_for_discriminant(model, e)))
    proven = is_prime(n) or (is_squarefree(n) and e % n == 0)
    if proven:
        return ComponentReport(len(keys), keys, True)
    return ComponentReport(None, keys, False)


def excluded_heegner_m2_report(n: int, gamma: int) -> ExclusionReport:
    """Components missed by the period map on square-2n moduli of fourfolds.

    These are excluded_heegner(2, n, gamma): the components cut by square -2
    classes (any divisibility) and by square -10 classes of ambient
    divisibility 2.  The uncertain ones, whose number of components is not
    pinned down, are those of square -10 and divisibility 10, when the
    5-free part of n is not squarefree.
    """
    keys = excluded_heegner(2, n, gamma)
    if is_squarefree(n // 5 ** v_p(n, 5)):
        return ExclusionReport(keys, ())
    return ExclusionReport(keys, tuple(k for k in keys if (k.kappa_prim_sq, k.s) == (-10, 10)))


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
    if gamma > 2:
        check_polarization(m, n, gamma)
        raise UnsupportedParameters(f"no cited period image at divisibility {gamma} > 2")
    divs_by_square: dict[int, list[int]] = {}
    for wt in wall_types(m):
        divs_by_square.setdefault(wt.kappa_prim_sq, []).append(wt.div)
    model = polarized_model(m, n, gamma)
    keys = set()
    for prim_sq, divs in divs_by_square.items():
        # a primitive class of square prim_sq with discriminant class star
        # exists iff star's quadratic value matches prim_sq / order(star)^2
        # modulo 2; the divisibility s is then the order of star
        for s, star in model.disc.realizing(prim_sq):
            amb = _ambient_div(model, star, s)
            if any(amb % div == 0 for div in divs):
                keys.add(_key(model, prim_sq, s, star))
    return tuple(sorted(keys))


# ---------------------------------------------------------------------------
# brute-force coordinate oracle


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
                      squares: frozenset | None = None) -> frozenset:
    """Invariant quadruples (kappa^2, s, +-star, ambient div) realized in a box.

    Enumerates kappa = a*t1 + b*t2 + c*w over tail coordinates
    |a|, |b| <= bound, 0 <= c <= bound, where w = x*u + y*v runs over a
    hyperbolic plane with coprime |x|, |y| <= bound (realizing every even
    square 2xy).  Restricting to `squares` only filters the report; the box
    is unchanged.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    model = polarized_model(m, n, gamma)
    products = _coprime_products(bound)
    if squares is not None:
        # the squares in each class mod 2c^2, for every c > 0 of the box: a
        # point realizes those of its class whose quotient is a product
        by_class = {c: {} for c in range(1, bound + 1)}
        for c, classes in by_class.items():
            for sq in squares:
                classes.setdefault(sq % (2 * c * c), []).append(sq)
    out = set()
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            pr1, pr2 = model.tail_pairings(a, b)
            base = a * pr1 + b * pr2
            for c in range(bound + 1):
                if gcd(a, b, c) != 1:
                    continue
                if c == 0:
                    realized = (base,) if squares is None or base in squares else ()
                elif squares is None:
                    realized = tuple(base + 2 * c * c * prod for prod in products)
                else:
                    realized = tuple(sq for sq in by_class[c].get(base % (2 * c * c), ())
                                     if (sq - base) // (2 * c * c) in products)
                if not realized:
                    continue
                s = gcd(pr1, pr2, c)
                star = model.star_of((pr1 // s, pr2 // s))
                amb = _ambient_div_coords(model, a, b, c)
                out.update((k2, s, star, amb) for k2 in realized)
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
    nu_sq = cones.walls_s2(e).nef_slope.squared()
    out = []
    # a^2/b^2 = e - n/b^2 grows along the stream, which is finite for square e
    for a, b in pell.positive_solutions(1, e, -n):
        if a * a * nu_sq.denominator >= nu_sq.numerator * b * b:
            break
        if gcd(a, b) == 1:
            out.append((a, b, 2 if b % 2 == 0 else 1))
    return tuple(out)


def hilbert_square_point(n: int, e: int, gamma: int = 2) -> tuple[int, int, int] | None:
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
    if n < 1:
        raise ValueError(f"n must be positive, got n={n}")
    if a_max < 0:
        raise ValueError("a_max must be nonnegative")
    check_polarization(2, n, gamma)
    if gamma == 1:
        return tuple(sorted({a * a + n for a in range(1, a_max + 1)
                             if (n, a) != (1, 2)}))
    return tuple(sorted({a * a + a + (n + 1) // 4 for a in range(a_max + 1)
                         if (n, a) != (3, 1)}))
