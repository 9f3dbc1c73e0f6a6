"""The discriminant-form engine: Smith normal form, finite quadratic groups
with their Q/2Z-valued quadratic form held exactly as Fractions, the
discriminant group of an orthogonal sum of even Gram blocks, the one query
for the classes that the primitive vectors of a given square and
divisibility map to (DiscGroup.realizing), and the one model of the
polarized orthogonal h^perp with its (m, n, gamma) domain (polarized_model).

It knows nothing of block lattices, so period-map code that needs only
discriminant groups loads this module and not lattice.
"""

import itertools
from fractions import Fraction
from math import gcd, lcm, prod

from .arith import Record, UnsupportedParameters, check_polarization


def smith_normal_form(m):
    """(d, u, v) with u*m*v = diag(d), u and v unimodular; d_i divides d_{i+1}.

    One pivot loop (Cohen, GTM 138, Sec. 2.4.4).  For each t, the smallest
    nonzero entry of the block a[t:, t:] becomes the pivot p at (t, t), and
    Euclidean steps clear row t and column t.  While an entry of the block
    is no multiple of p, its column is added to column t and the step
    repeats.  It ends: the steps keep g, the gcd of the block's entries, and
    stop once p divides them all, that is once |p| = g.  A column addition
    is made only when |p| > g, so each one shrinks the pivot to the proper
    divisor g of p: |p| never grows, as p is the block's smallest entry, and
    it falls whenever a step leaves a remainder.  A block with no nonzero
    entry ends the loop, so the zeros of d come last.
    """
    a = [list(row) for row in m]
    n = len(a)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def add_row(i, j, c):  # row_i += c * row_j, in a and u
        if c:
            for mat in (a, u):
                mat[i] = [x + c * y for x, y in zip(mat[i], mat[j])]

    def add_col(i, j, c):  # col_i += c * col_j, in a and v
        if c:
            for row in a + v:
                row[i] += c * row[j]

    for t in range(n):
        while True:
            entries = [(abs(a[i][j]), i, j)
                       for i in range(t, n) for j in range(t, n) if a[i][j]]
            if not entries:
                break
            _, pi, pj = min(entries)
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
            for row in a + v:
                row[t], row[pj] = row[pj], row[t]
            p = a[t][t]
            for k in range(t + 1, n):
                add_row(k, t, -(a[k][t] // p))
                add_col(k, t, -(a[t][k] // p))
            if any(a[k][t] or a[t][k] for k in range(t + 1, n)):
                continue
            bad = [j for i in range(t + 1, n) for j in range(t + 1, n) if a[i][j] % p]
            if not bad:
                break
            add_col(t, bad[0], 1)
    return [a[i][i] for i in range(n)], u, v


class DiscGroup(Record):
    """Finite quadratic group as a product of cyclic groups.

    orders[i] is the order of the i-th generator, gen_q[i] its quadratic value
    in Q/2Z (stored in [0, 2)), gen_pair the bilinear pairings in Q/Z; qbar
    reads only its off-diagonal entries.
    """

    __slots__ = ("orders", "gen_q", "gen_pair")

    @property
    def order(self) -> int:
        return prod(self.orders)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """Orders rewritten so that each divides the next: the Smith form of
        the diagonal matrix of the orders, without its units."""
        k = len(self.orders)
        diag = [[d if i == j else 0 for j in range(k)] for i, d in enumerate(self.orders)]
        return tuple(abs(f) for f in smith_normal_form(diag)[0] if abs(f) != 1)

    def elements(self, t: int = 0):
        """The t-torsion, in lexicographic order: the multiples of
        d/gcd(d, t) in each factor Z/d.  gcd(d, 0) = d, so t = 0 gives the
        whole group."""
        return itertools.product(*(range(0, d, d // gcd(d, t)) for d in self.orders))

    def element_order(self, el) -> int:
        return lcm(*[d // gcd(c, d) for c, d in zip(el, self.orders)])

    def qbar(self, el) -> Fraction:
        total = Fraction(0)
        for i, c in enumerate(el):
            total += c * c * self.gen_q[i]
            for j in range(i + 1, len(el)):
                total += 2 * c * el[j] * self.gen_pair[i][j]
        return total % 2

    def negate(self, el) -> tuple[int, ...]:
        return tuple((-c) % d for c, d in zip(el, self.orders))

    def normalize(self, el) -> tuple[int, ...]:
        """The lexicographically smaller of +-el."""
        return min(tuple(el), self.negate(el))

    def realizing(self, square: int, s: int = 0):
        """(order, el) for each normalized class el that the primitive vectors
        of the given square and divisibility order map to: q-bar(el) * order^2
        = square modulo 2 * order^2 (Eichler's criterion; Nikulin, Izv. 1979,
        Sec. 1).  With s > 0 only the s-torsion is read and only classes of
        order s are kept; s = 0 reads the whole group and keeps every order.

        q-bar * order^2 is an integer, even for the discriminant form of an
        even lattice, so an odd square is realized by no class.  The order and
        q-bar are the same on el and -el.  A class of order s realizes only
        squares divisible by s: for x in L^dual with sx in L, (sx)^2 =
        s * (x, sx) is in sZ, and square = (sx)^2 (mod 2s^2); so with s > 0
        and s not dividing the square, no element is read.
        """
        if s and square % s:
            return
        # the s-torsion is closed under negation, so each pair +-el is met
        # at its normalized member
        for el in self.elements(s):
            if el > self.negate(el):
                continue
            order = self.element_order(el)
            if s and order != s:
                continue
            s2 = order * order
            if self.qbar(el) * s2 == square % (2 * s2):
                yield order, el


def block_sum(*grams) -> tuple[tuple[int, ...], ...]:
    """Gram matrix of the orthogonal sum of the given Gram blocks, in order."""
    n = sum(len(gram) for gram in grams)
    rows, off = [], 0
    for gram in grams:
        k = len(gram)
        rows.extend((0,) * off + tuple(row) + (0,) * (n - off - k) for row in gram)
        off += k
    return tuple(rows)


def disc_group_of_gram(*blocks) -> tuple[DiscGroup, tuple[tuple, ...]]:
    """Discriminant group of an orthogonal sum of even Gram blocks, with each
    generator's Smith data.

    Each block gives its Smith-form generators, in block order.  The second
    value gives, for each generator, its order d, Smith row u and Smith column
    v, in the sum's basis: v/d lifts it to the sum's dual, and a dual vector
    with pairings y is the class with entries u.y mod d (Nikulin, Izv. 1979,
    Sec. 1; Cohen, GTM 138, Sec. 2.4.4).  Where the Smith entry is negative,
    as in the negative definite tail blocks, the row is negated.
    """
    g = block_sum(*blocks)
    n = len(g)
    gens, off = [], 0
    for gram in blocks:
        k = len(gram)
        d, u, v = smith_normal_form(gram)
        before, after = (0,) * off, (0,) * (n - off - k)
        gens.extend((abs(di), before + tuple(x if di > 0 else -x for x in u[i]) + after,
                     before + tuple(row[i] for row in v) + after)
                    for i, di in enumerate(d) if abs(di) != 1)
        off += k

    def b_of(x, y):
        return sum(x[i] * g[i][j] * y[j] for i in range(n) for j in range(n))

    orders = tuple(d for d, _, _ in gens)
    gen_q = tuple(Fraction(b_of(v, v), d * d) % 2 for d, _, v in gens)
    gen_pair = tuple(tuple(Fraction(b_of(v, w), d * e) % 1 for e, _, w in gens)
                     for d, _, v in gens)
    return DiscGroup(orders, gen_q, gen_pair), tuple(gens)


# ---------------------------------------------------------------------------
# the polarized orthogonal


def tail_basis(m: int, n: int, gamma: int, k: int):
    """(h, (w1, w2)) on the basis (u, v, ell) of U + I1(-2p), p = m - 1: for a
    class k of arith.polarization_classes, t = (n + p*k^2)/gamma^2 is an integer,
    h = gamma*u + gamma*t*v + k*ell is primitive of square 2n and divisibility
    gamma (which divides 2p), and w1 = -(c*v + ell), c = 2pk/gamma, w2 = u - t*v
    span its orthogonal: they pair to zero with h, and their Gram matrix
    ((-2p, -c), (-c, -2t)) has determinant 4pn/gamma^2 = |D| * h^2/gamma^2."""
    p, t = m - 1, (n + (m - 1) * k * k) // (gamma * gamma)
    return (gamma, gamma * t, k), ((0, -2 * p * k // gamma, -1), (1, -t, 0))


class PolarizedModel(Record):
    """h^perp = U^2 + E8(-1)^2 + tail of a square-2n, divisibility-gamma
    polarization h in K3^[m] type, held by its tail: the tail's basis on
    (u, v, ell), its Gram blocks and their sum, its discriminant group, which
    is h^perp's, and each generator's Smith data (d, u, v) of
    disc_group_of_gram, on which Heegner stars and lattice disc are written."""

    __slots__ = ("m", "n", "gamma", "basis", "blocks", "tail", "disc", "gens")

    def star_of(self, y) -> tuple[int, ...]:
        """The normalized star of the dual vector with tail pairings y: u.y mod d."""
        el = tuple(sum(x * z for x, z in zip(u, y)) % d for d, u, _ in self.gens)
        return self.disc.normalize(el)

    def tail_pairings(self, a: int, b: int) -> tuple[int, int]:
        t = self.tail
        return t[0][0] * a + t[0][1] * b, t[1][0] * a + t[1][1] * b


def polarized_model(m: int, n: int, gamma: int) -> PolarizedModel:
    """The one model of h^perp, for h of square 2n and divisibility gamma in
    K3^[m] type: tail_basis of the least class k, with one Gram block, or
    I1(-2n) + I1(-2p) on (u - n*v, -ell) for k = 0.  k and -k give isometric
    tails; any other class is another component: UnsupportedParameters."""
    if m < 2 or n < 1:
        raise ValueError("need m >= 2 and n >= 1")
    classes = check_polarization(m, n, gamma)
    if len(classes) > 2:
        raise UnsupportedParameters(f"({m}, {n}, {gamma}) has {len(classes) // 2} moduli "
                                    "components; the tail is built for one")
    _, basis = tail_basis(m, n, gamma, classes[0])
    if classes[0] == 0:  # the block of n first, then that of p
        basis = basis[::-1]
    tail = tuple(tuple(x[0] * y[1] + x[1] * y[0] - 2 * (m - 1) * x[2] * y[2] for y in basis)
                 for x in basis)
    blocks = (((tail[0][0],),), ((tail[1][1],),)) if classes[0] == 0 else (tail,)
    return PolarizedModel(m, n, gamma, basis, blocks, tail, *disc_group_of_gram(*blocks))
