"""Block-sum lattices, discriminant groups, and primitive-vector orbit keys.

Lattices are formal orthogonal sums of standard blocks: the hyperbolic plane
U, the negative E8 lattice and rank-1 blocks I1(t); their discriminant
groups come from the discform engine, and so does that of the polarized
orthogonal, read off discform.polarized_model (disc_group).  Orbits of
primitive vectors in a lattice containing two orthogonal hyperbolic planes
are classified by the square together with the order and quadratic value of
the discriminant class.
"""

from math import gcd, prod

from .arith import DomainError, Record, check_polarization, prime_factors
from .discform import DiscGroup, block_sum, disc_group_of_gram, polarized_model


class LatticeError(DomainError):
    pass


class ZeroVector(LatticeError):
    pass


class NotPrimitive(LatticeError):
    pass


class NoDoubleU(LatticeError):
    """The ambient lattice does not visibly contain U + U."""


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
        return prod(b.det for b in self.blocks)

    def gram(self) -> tuple[tuple[int, ...], ...]:
        return block_sum(*(b.gram for b in self.blocks))

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
        return gcd(*self.coords) == 1


def divisibility(v: LatticeVector) -> int:
    """Positive generator of the pairing ideal v . Lambda."""
    if all(c == 0 for c in v.coords):
        raise ZeroVector("divisibility of the zero vector is undefined")
    return gcd(*v.pairings())


# ---------------------------------------------------------------------------
# discriminant groups


def disc_group_of(spec: LatticeSpec) -> DiscGroup:
    """Discriminant group of a block-sum lattice (blockwise; U and E8 drop out)."""
    return disc_group_of_gram(*(b.gram for b in spec.blocks if abs(b.det) != 1))[0]


# ---------------------------------------------------------------------------
# Eichler orbit keys


class OrbitKey(Record):
    """Square of a primitive vector and the order of its discriminant class,
    which is its divisibility.  The class's quadratic value is
    square/star_order^2 modulo 2, so the two fields are the whole key."""

    __slots__ = ("square", "star_order")

    def __init__(self, square: int, star_order: int):
        if star_order < 1:
            raise ValueError("star_order must be positive")
        super().__init__(square, star_order)


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
    whose quadratic value matches square/order^2 modulo 2: a class that
    DiscGroup.realizing yields, reading only the order-s torsion.
    """
    if spec.u_block_count() < 2:
        raise NoDoubleU("existence test requires two hyperbolic planes")
    return any(disc_group_of(spec).realizing(key.square, key.star_order))


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


def disc_group(m: int, n: int, gamma: int) -> DiscGroup:
    """Discriminant group of the polarized orthogonal, that of
    discform.polarized_model, which checks the domain: on the Smith-form
    generators of the tail blocks, those the star of a Heegner key uses."""
    return polarized_model(m, n, gamma).disc


# ---------------------------------------------------------------------------
# numerics of moduli spaces


def monodromy_index(m: int) -> int:
    """Index of the monodromy group inside the positivity-preserving isometries."""
    if m < 2:
        raise ValueError("m must be at least 2")
    return 2 ** max(len(prime_factors(m - 1)) - 1, 0)


def moduli_component_count(m: int, n: int, gamma: int) -> int:
    """Number of irreducible components of the polarized moduli space: the
    classes of arith.polarization_classes up to sign.  k and -k are distinct
    classes unless gamma <= 2, where there is at most one."""
    return (len(check_polarization(m, n, gamma)) + 1) // 2


def strange_dual_params(m: int, n: int, gamma: int) -> tuple[int, int, int]:
    """The dual triple (n + 1, m - 1, gamma).  With p = m - 1, the tail of a class
    k (discform.tail_basis) is -2 times f = p*x^2 + c*xy + t*y^2, c = 2pk/gamma,
    and f(-k, gamma) = n.  A basis (-k, gamma), (a, b) has b = +-k' (mod gamma),
    k' = 1/k, and cross term 2bn/gamma, so f is isometric to (n, 2nk'/gamma,
    (p + nk'^2)/gamma^2): the tail of k' for the dual, which is in the domain."""
    check_polarization(m, n, gamma)
    return n + 1, m - 1, gamma


def polarization_determined(m: int, n: int, gamma: int) -> bool:
    """Whether O(Lambda), Lambda of K3^[m] type, is transitive on its primitive
    classes of square 2n and divisibility gamma, told apart by their class k
    (Eichler).  O(Lambda) maps onto O(D) (Nikulin, Izv. 1979, Thm 1.14.2): the
    u mod 2(m-1) with u^2 = 1 (mod 4(m-1)), +-1 modulo each prime power of gamma
    in every combination.  Not monodromy orbits: (166, 15, 15) has 2 components."""
    classes = check_polarization(m, n, gamma)
    qs = [r ** e for r, e in prime_factors(gamma)]
    return all((c - classes[0]) % q == 0 or (c + classes[0]) % q == 0
               for c in classes for q in qs)


def heegner_finiteness_bound(m: int, n: int, gamma: int, d: int) -> int:
    """Cap d * |disc| on |kappa^2| over the classes cutting discriminant-d divisors."""
    check_polarization(m, n, gamma)
    if d < 0:
        raise ValueError("d must be nonnegative")
    disc = (2 * n) * (2 * m - 2) // (gamma * gamma)
    return d * disc
