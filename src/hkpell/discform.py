"""The discriminant-form engine: Smith normal form, finite quadratic groups
with their Q/2Z-valued quadratic form held exactly as Fractions, the
discriminant group of an orthogonal sum of even Gram blocks, and the
(order, integer q-bar) index of its classes that decides realizability.

It knows nothing of block lattices, so period-map code that needs only
discriminant groups loads this module and not lattice.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from .arith import Record, prime_factors


def _diagonalize(a, u, v):
    """Reduce a to diagonal form in place, tracking row ops in u, col ops in v."""
    n = len(a)

    def row_op(i, j, c):  # row_i += c * row_j
        for k in range(n):
            a[i][k] += c * a[j][k]
            u[i][k] += c * u[j][k]

    def col_op(i, j, c):  # col_i += c * col_j
        for k in range(n):
            a[k][i] += c * a[k][j]
            v[k][i] += c * v[k][j]

    for t in range(n):
        while True:
            entries = [(abs(a[i][j]), i, j)
                       for i in range(t, n) for j in range(t, n) if a[i][j]]
            if not entries:
                break
            _, pi, pj = min(entries)
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
                u[t], u[pi] = u[pi], u[t]
            if pj != t:
                for mat in (a, v):
                    for row in mat:
                        row[t], row[pj] = row[pj], row[t]
            done = True
            for i in range(t + 1, n):
                q = a[i][t] // a[t][t]
                if q:
                    row_op(i, t, -q)
                if a[i][t]:
                    done = False
            for j in range(t + 1, n):
                q = a[t][j] // a[t][t]
                if q:
                    col_op(j, t, -q)
                if a[t][j]:
                    done = False
            if done:
                break


def smith_normal_form(m):
    """(d, u, v) with u*m*v = diag(d), u and v unimodular; d_i divides d_{i+1}."""
    a = [list(row) for row in m]
    n = len(a)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    _diagonalize(a, u, v)
    # enforce the divisibility chain: pull an offending entry into an earlier
    # column and re-reduce (each pass shrinks the earlier pivot to a gcd)
    while True:
        fixed = True
        for t in range(n - 1):
            dt, dn = a[t][t], a[t + 1][t + 1]
            if dt == 0 and dn != 0:
                for mat in (a, v):
                    for row in mat:
                        row[t], row[t + 1] = row[t + 1], row[t]
                a[t], a[t + 1] = a[t + 1], a[t]
                u[t], u[t + 1] = u[t + 1], u[t]
                fixed = False
            elif dt and dn % dt:
                for k in range(n):
                    a[k][t] += a[k][t + 1]
                    v[k][t] += v[k][t + 1]
                _diagonalize(a, u, v)
                fixed = False
        if fixed:
            break
    d = [a[i][i] for i in range(n)]
    return d, u, v


def mod2(x: Fraction | int) -> Fraction:
    """Canonical representative of x in Q/2Z, inside [0, 2)."""
    return Fraction(x) % 2


def mod1(x: Fraction | int) -> Fraction:
    """Canonical representative of x in Q/Z, inside [0, 1)."""
    return Fraction(x) % 1


def residue(square: Fraction | int, order: int) -> Fraction | int:
    """square modulo 2 * order^2: the integer q-bar, q-bar * order^2, of the
    classes of the given order that carry the primitive vectors of that square.

    Such a class has q-bar = square/order^2 modulo 2.  In an even lattice the
    integer q-bar of every class is even, so an odd square matches none.
    """
    return square % (2 * order * order)


class DiscGroup(Record):
    """Finite quadratic group as a product of cyclic groups.

    orders[i] is the order of the i-th generator, gen_q[i] its quadratic value
    in Q/2Z (stored in [0, 2)), gen_pair the bilinear pairings in Q/Z; qbar
    reads only its off-diagonal entries.
    """

    __slots__ = ("orders", "gen_q", "gen_pair")

    @property
    def order(self) -> int:
        out = 1
        for d in self.orders:
            out *= d
        return out

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """Orders rewritten so that each divides the next."""
        primary: dict[int, list[int]] = {}
        for d in self.orders:
            for p, e in prime_factors(d):
                primary.setdefault(p, []).append(p ** e)
        slots: list[int] = []
        for p, powers in primary.items():
            powers.sort(reverse=True)
            for i, q in enumerate(powers):
                if i < len(slots):
                    slots[i] *= q
                else:
                    slots.append(q)
        return tuple(sorted(slots))

    def elements(self):
        return itertools.product(*(range(d) for d in self.orders))

    def element_order(self, el) -> int:
        out = 1
        for c, d in zip(el, self.orders):
            k = d // gcd(c, d)
            out = out * k // gcd(out, k)
        return out

    def qbar(self, el) -> Fraction:
        total = Fraction(0)
        for i, c in enumerate(el):
            total += c * c * self.gen_q[i]
            for j in range(i + 1, len(el)):
                total += 2 * c * el[j] * self.gen_pair[i][j]
        return mod2(total)

    def negate(self, el) -> tuple[int, ...]:
        return tuple((-c) % d for c, d in zip(el, self.orders))

    def normalize(self, el) -> tuple[int, ...]:
        """The lexicographically smaller of +-el."""
        return min(tuple(el), self.negate(el))

    def classes(self):
        """(order, el) once for each pair +-el, el normalized; the order and the
        quadratic value are the same on both members."""
        # elements() runs in lexicographic order, so the first member met of
        # each pair is its normalized one
        for el in self.elements():
            if el <= self.negate(el):
                yield self.element_order(el), el

    def index(self) -> dict[int, dict[int, list[tuple[int, ...]]]]:
        """The normalized classes by order s, then by integer q-bar: q-bar * s^2,
        an integer for the discriminant form of an even lattice.

        index()[s].get(residue(square, s), ()) are the classes of order s
        that the primitive vectors of that square and divisibility s map to.
        """
        out: dict[int, dict[int, list[tuple[int, ...]]]] = {}
        for s, el in self.classes():
            out.setdefault(s, {}).setdefault(int(self.qbar(el) * (s * s)), []).append(el)
        return out


def disc_group_of_gram(*blocks) -> tuple[DiscGroup, tuple[tuple[Fraction, ...], ...]]:
    """Discriminant group of an orthogonal sum of even Gram blocks, with
    rational generator lifts.

    Each block gives its Smith-form generators, in block order.  The second
    value gives each generator as a vector in the sum's dual, expressed in
    the sum's basis.
    """
    n = sum(len(gram) for gram in blocks)
    g = [[0] * n for _ in range(n)]
    orders, vecs = [], []
    off = 0
    for gram in blocks:
        k = len(gram)
        for i in range(k):
            g[off + i][off:off + k] = gram[i]
        d, _, v = smith_normal_form(gram)
        for i in range(k):
            di = abs(d[i])
            if di == 1:
                continue
            lift = [Fraction(0)] * n
            lift[off:off + k] = (Fraction(v[r][i], di) for r in range(k))
            orders.append(di)
            vecs.append(tuple(lift))
        off += k

    def b_of(x, y):
        return sum(x[i] * g[i][j] * y[j] for i in range(n) for j in range(n))

    gen_q = tuple(mod2(b_of(x, x)) for x in vecs)
    gen_pair = tuple(tuple(mod1(b_of(x, y)) for y in vecs) for x in vecs)
    return DiscGroup(tuple(orders), gen_q, gen_pair), tuple(vecs)
