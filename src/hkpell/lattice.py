"""Block-sum lattices, discriminant groups, and primitive-vector orbit keys.

Lattices are formal orthogonal sums of standard blocks: the hyperbolic plane
U, the negative E8 lattice, rank-1 blocks I1(t), and small explicit Gram
blocks; their discriminant groups come from the discform engine.  Orbits of
primitive vectors in a lattice containing two orthogonal hyperbolic planes
are classified by the square together with the order and quadratic value of
the discriminant class.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .arith import DomainError, Record, gcd_all, is_square_mod, omega, prime_factors, v_p
# the discriminant-form engine, bound here too so that lattice keeps its names
from .discform import (DiscGroup, disc_group_of_gram, mod1, mod2, residue,  # noqa: F401
                       smith_normal_form)


class LatticeError(DomainError):
    pass


class ZeroVector(LatticeError):
    pass


class NotPrimitive(LatticeError):
    pass


class NoDoubleU(LatticeError):
    """The ambient lattice does not visibly contain U + U."""


class IncompatibleDivisibility(LatticeError):
    """No primitive vector with the requested square and divisibility exists."""


# ---------------------------------------------------------------------------
# blocks

_U_GRAM = ((0, 1), (1, 0))

# E8 Cartan matrix (chain 1-3-4-5-6-7-8 with 2 attached to 4), negated
_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def _e8_minus_gram() -> tuple[tuple[int, ...], ...]:
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for i, j in _E8_EDGES:
        g[i - 1][j - 1] = g[j - 1][i - 1] = 1
    return tuple(tuple(row) for row in g)


class Block(Record):
    __slots__ = ("name", "gram")

    def __init__(self, name: str, gram: tuple[tuple[int, ...], ...]):
        n = len(gram)
        for i, row in enumerate(gram):
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
            if row[i] % 2:
                raise ValueError("lattice must be even")
            for j in range(n):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        super().__init__(name, gram)

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def det(self) -> int:
        return _det(self.gram)


U = Block("U", _U_GRAM)
E8_MINUS = Block("E8(-1)", _e8_minus_gram())


def I1(t: int) -> Block:
    if t == 0 or t % 2:
        raise ValueError("I1(t) needs a nonzero even t")
    return Block(f"I1({t})", ((t,),))


def gram_block(rows) -> Block:
    return Block("gram", tuple(tuple(r) for r in rows))


def _det(m) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact: Bareiss's invariant makes prev divide the 2x2 minor
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


class LatticeSpec(Record):
    __slots__ = ("blocks",)

    @property
    def rank(self) -> int:
        return sum(b.rank for b in self.blocks)

    @property
    def det(self) -> int:
        out = 1
        for b in self.blocks:
            out *= b.det
        return out

    def gram(self) -> tuple[tuple[int, ...], ...]:
        n = self.rank
        g = [[0] * n for _ in range(n)]
        off = 0
        for b in self.blocks:
            for i in range(b.rank):
                for j in range(b.rank):
                    g[off + i][off + j] = b.gram[i][j]
            off += b.rank
        return tuple(tuple(row) for row in g)

    def vector(self, coords) -> "LatticeVector":
        return LatticeVector(self, tuple(coords))

    def u_block_count(self) -> int:
        return sum(1 for b in self.blocks if b.name == "U")


class LatticeVector(Record):
    __slots__ = ("lattice", "coords")

    def __init__(self, lattice: LatticeSpec, coords: tuple[int, ...]):
        if len(coords) != lattice.rank:
            raise ValueError("coordinate length does not match the lattice rank")
        super().__init__(lattice, coords)

    def pairings(self) -> tuple[int, ...]:
        g = self.lattice.gram()
        return tuple(sum(row[j] * self.coords[j] for j in range(len(row))) for row in g)

    @property
    def square(self) -> int:
        return sum(p * c for p, c in zip(self.pairings(), self.coords))

    @property
    def is_primitive(self) -> bool:
        return gcd_all(*self.coords) == 1


def divisibility(v: LatticeVector) -> int:
    """Positive generator of the pairing ideal v . Lambda."""
    if all(c == 0 for c in v.coords):
        raise ZeroVector("divisibility of the zero vector is undefined")
    return gcd_all(*v.pairings())


# ---------------------------------------------------------------------------
# discriminant groups


def disc_group_of(spec: LatticeSpec) -> DiscGroup:
    """Discriminant group of a block-sum lattice (blockwise; U and E8 drop out)."""
    return disc_group_of_gram(*(b.gram for b in spec.blocks if abs(b.det) != 1))[0]


# ---------------------------------------------------------------------------
# Eichler orbit keys


class OrbitKey(Record):
    """Square, order of the discriminant class, and its quadratic value.

    star_q is derived from the other two when omitted.
    """

    __slots__ = ("square", "star_order", "star_q")

    def __init__(self, square: int, star_order: int, star_q: Fraction | None = None):
        if star_order < 1:
            raise ValueError("star_order must be positive")
        expected = residue(square, star_order)
        if star_q is None:
            star_q = Fraction(expected, star_order ** 2)
        elif residue(star_q * star_order ** 2, star_order) != expected:
            raise ValueError("star_q must be square/star_order^2 modulo 2")
        super().__init__(square, star_order, star_q)


def orbit_key(v: LatticeVector) -> OrbitKey:
    if not v.is_primitive:
        raise NotPrimitive("orbit keys are defined for primitive vectors")
    if v.lattice.u_block_count() < 2:
        raise NoDoubleU("orbit classification requires two hyperbolic planes")
    return OrbitKey(v.square, divisibility(v))


def exists_primitive_vector(spec: LatticeSpec, key: OrbitKey) -> bool:
    """Whether the lattice contains a primitive vector realizing the key.

    In a lattice containing two orthogonal hyperbolic planes this holds
    exactly when the discriminant group has an element of the stated order
    whose quadratic value matches square/order^2 modulo 2.
    """
    if spec.u_block_count() < 2:
        raise NoDoubleU("existence test requires two hyperbolic planes")
    by_q = disc_group_of(spec).index().get(key.star_order, {})
    return residue(key.square, key.star_order) in by_q


# ---------------------------------------------------------------------------
# the standard lattices


def k3_lattice() -> LatticeSpec:
    return LatticeSpec((U, U, U, E8_MINUS, E8_MINUS))


def extended_k3_lattice() -> LatticeSpec:
    return LatticeSpec((U, U, U, U, E8_MINUS, E8_MINUS))


def k3_polarized_orthogonal(e: int) -> LatticeSpec:
    """Orthogonal of a degree-2e polarization class in the K3 lattice."""
    if e < 1:
        raise ValueError("e must be positive")
    return LatticeSpec((U, U, E8_MINUS, E8_MINUS, I1(-2 * e)))


def hilbert_scheme_lattice(m: int) -> LatticeSpec:
    """Second cohomology of a 2m-dimensional manifold of K3^[m]-type."""
    if m < 2:
        raise ValueError("m must be at least 2")
    return LatticeSpec((U, U, U, E8_MINUS, E8_MINUS, I1(-2 * (m - 1))))


def polarized_orthogonal(m: int, n: int, gamma: int) -> LatticeSpec:
    """Orthogonal of a square-2n, divisibility-gamma polarization in K3^[m] type.

    gamma = 1 gives U^2 + E8(-1)^2 + I1(-(2m-2)) + I1(-2n); gamma = 2 (which
    requires n + m = 1 mod 4) glues the two rank-1 pieces into a 2x2 block.
    """
    if m < 2 or n < 1:
        raise ValueError("need m >= 2 and n >= 1")
    base = (U, U, E8_MINUS, E8_MINUS)
    if gamma == 1:
        return LatticeSpec(base + (I1(-(2 * m - 2)), I1(-2 * n)))
    if gamma == 2:
        if (n + m) % 4 != 1:
            raise IncompatibleDivisibility(
                "divisibility 2 requires n + m = 1 (mod 4)")
        p = m - 1
        q = (n + m - 1) // 2
        return LatticeSpec(base + (gram_block(((-2 * p, -p), (-p, -q))),))
    raise ValueError("gamma must be 1 or 2")


def disc_group(m: int, n: int, gamma: int) -> DiscGroup:
    """Discriminant group of the polarized orthogonal, with standard generators.

    For gamma = 1 the generators are the duals of the two rank-1 blocks; for
    gamma = 2 closed-form generators are used where available (n odd, or
    n = m - 1) and Smith-form generators otherwise.
    """
    spec = polarized_orthogonal(m, n, gamma)  # validates gamma and the congruence
    if gamma == 1:
        return disc_group_of(spec)
    p = m - 1
    if n % 2 == 1:
        orders = tuple(d for d in (p, n) if d > 1)
        qs = tuple(mod2(Fraction(-2, d)) for d in (p, n) if d > 1)
        zero = tuple(tuple(Fraction(0) for _ in orders) for _ in orders)
        return DiscGroup(orders, qs, zero)
    if n == p:
        return DiscGroup(
            (n, n),
            (mod2(Fraction(-1, n)), mod2(Fraction(-1, n))),
            ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),
        )
    return disc_group_of(spec)


# ---------------------------------------------------------------------------
# numerics of moduli spaces


def monodromy_index(m: int) -> int:
    """Index of the monodromy group inside the positivity-preserving isometries."""
    if m < 2:
        raise ValueError("m must be at least 2")
    return 2 ** max(omega(m - 1) - 1, 0)


class ComponentCount(Record):
    __slots__ = ("count", "note")

    def __init__(self, count: int | None, note: str = ""):
        super().__init__(count, note)


def moduli_component_count(m: int, n: int, gamma: int) -> ComponentCount:
    """Number of irreducible components of the polarized moduli space.

    Returns count None when the parameters fall outside the tabulated cases.
    """
    if m < 2 or n < 1 or gamma < 1:
        raise ValueError("need m >= 2, n >= 1, gamma >= 1")
    if (2 * n) % gamma or (2 * m - 2) % gamma:
        raise ValueError("gamma must divide both 2n and 2m-2")
    p = m - 1
    if gamma == 1:
        return ComponentCount(1)
    if gamma == 2:
        if (n + m) % 4 == 1:
            return ComponentCount(1)
        return ComponentCount(None, "divisibility 2 outside n+m=1 (mod 4)")
    if gamma == 3 and p % 9 == 0 and n % 9 == 0:
        return ComponentCount(1)
    caveat = "tabulated case; source flags possible redundant hypotheses"
    if gamma == 4:
        if v_p(p, 2) == 2 and v_p(n, 2) == 2 and (n + m) % 16 == 1:
            return ComponentCount(1, caveat)
        if v_p(p, 2) == 3 and v_p(n, 2) == 3:
            return ComponentCount(1, caveat)
        if p % 16 == 0 and n % 16 == 0:
            return ComponentCount(1, caveat)
        return ComponentCount(None)
    fac = prime_factors(gamma)
    if len(fac) == 1:
        q, a = fac[0]
        if q % 2 == 1 and v_p(p, q) == a and v_p(n, q) == a:
            unit = (p // gamma) * pow(n // gamma, -1, gamma) % gamma
            if is_square_mod(-unit % gamma, gamma):
                return ComponentCount(1, caveat)
        if q == 2 and a >= 2 and v_p(p, 2) == a - 1 and v_p(n, 2) == a - 1:
            mod = 2 ** (a + 1)
            unit = (p >> (a - 1)) * pow(n >> (a - 1), -1, mod) % mod
            if is_square_mod(-unit % mod, mod):
                return ComponentCount(1, caveat)
    if all(q % 2 == 1 and e == 1 for q, e in fac) and len(fac) >= 1:
        if p % gamma == 0 and n % gamma == 0:
            a, b = p // gamma, n // gamma
            if gcd(gcd(a, b), gamma) == 1 and is_square_mod(-a * b % n, n):
                return ComponentCount(2 ** (len(fac) - 1))
    return ComponentCount(None)


def strange_dual_params(m: int, n: int, gamma: int) -> tuple[int, int, int]:
    """The dual parameter triple (n+1, m-1, gamma), with the lattice symmetry verified."""
    if gamma not in (1, 2):
        raise ValueError("gamma must be 1 or 2")
    source = polarized_orthogonal(m, n, gamma)
    dual = (n + 1, m - 1, gamma)
    target = polarized_orthogonal(*dual)
    if gamma == 1:
        if sorted(b.gram for b in source.blocks) != sorted(b.gram for b in target.blocks):
            raise LatticeError("block sums fail to match under the symmetry")
        return dual
    # gamma = 2: the substitution (x, y) -> (-x, 2x + y) carries one Gram
    # block to the other
    b1 = source.blocks[-1].gram
    b2 = target.blocks[-1].gram
    s = ((-1, 0), (2, 1))
    carried = tuple(
        tuple(
            sum(s[k][i] * b1[k][l] * s[l][j] for k in range(2) for l in range(2))
            for j in range(2)
        )
        for i in range(2)
    )
    if carried != b2:
        raise LatticeError("Gram blocks fail to match under the base change")
    return dual


def polarization_determined(m: int, n: int, gamma: int) -> bool:
    """Whether (square, divisibility) already pins down the polarization orbit."""
    if (2 * n) % gamma or (2 * m - 2) % gamma:
        raise ValueError("gamma must divide both 2n and 2m-2")
    if gamma == 2:
        return True
    return gcd(gcd(2 * n // gamma, (2 * m - 2) // gamma), gamma) == 1


def heegner_finiteness_bound(m: int, n: int, gamma: int, d: int) -> int:
    """Cap d * |disc| on |kappa^2| over the classes cutting discriminant-d divisors."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    disc = (2 * n) * (2 * m - 2) // (gamma * gamma)
    return d * disc
