import itertools
import math
import random
from fractions import Fraction

import pytest

from hkpell import periods
from hkpell.arith import (BadCongruence, UnsupportedParameters, check_polarization, divisors,
                          is_square_mod, polarization_classes, prime_factors, v_p)
from hkpell.autgroups import very_general_bir
from hkpell.discform import block_sum, polarized_model, smith_normal_form, tail_basis
from hkpell.lattice import (E8_MINUS, U, Block, DiscGroup, _det,
                            LatticeSpec, NoDoubleU, NotPrimitive, OrbitKey, ZeroVector, disc_group,
                            disc_group_of, divisibility,
                            exists_primitive_vector, extended_k3_lattice,
                            heegner_finiteness_bound, hilbert_scheme_lattice,
                            k3_lattice, k3_polarized_orthogonal,
                            moduli_component_count, monodromy_index,
                            orbit_key, polarization_determined, strange_dual_params)
from hkpell.periods import coordinate_oracle


def test_block_dets():
    assert U.det == -1
    assert E8_MINUS.det == 1
    assert k3_lattice().det == -1
    assert extended_k3_lattice().det == 1
    assert hilbert_scheme_lattice(2).det == 2
    assert abs(k3_polarized_orthogonal(6).det) == 12


def _leibniz(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def test_det_matches_leibniz():
    rng = random.Random(2018)
    for n in range(1, 6):
        for _ in range(60):
            # mostly zeros, so that zero pivots and row swaps come up
            m = [[rng.choice((0, 0, 0, -1, 1, 2, -3)) for _ in range(n)] for _ in range(n)]
            assert _det(m) == _leibniz(m), m
    assert _det(((0, 1), (1, 0))) == -1
    singular = ((1, 2, 3), (4, 5, 6), (7, 8, 9))
    assert _det(singular) == _leibniz(singular) == 0
    assert _det(E8_MINUS.gram) == _leibniz(E8_MINUS.gram) == 1


def _parent_index(dg):
    """DiscGroup.classes() and DiscGroup.index() as they were: the normalized
    classes of the whole group by order s, then by integer q-bar, q-bar * s^2."""
    out = {}
    for el in itertools.product(*(range(d) for d in dg.orders)):
        if el <= dg.negate(el):
            s = dg.element_order(el)
            out.setdefault(s, {}).setdefault(int(dg.qbar(el) * (s * s)), []).append(el)
    return out


def _parent_residue(square, order):
    """discform.residue as it was: the key of the index that the primitive
    vectors of that square and divisibility order map to."""
    return square % (2 * order * order)


def _small_disc_groups(ms=range(2, 13)):
    return [disc_group(m, n, gamma) for m in ms for n in range(1, 13)
            for gamma in ((1, 2) if (n + m) % 4 == 1 else (1,))]


@pytest.mark.parametrize("m", range(2, 13))
def test_realizing_matches_the_index(m):
    # every key (s, q) of every group with n <= 12, asked with its s and with s = 0
    for dg in _small_disc_groups((m,)):
        index = _parent_index(dg)
        union = set()
        for s, by_q in index.items():
            for q, els in by_q.items():
                got = list(dg.realizing(q - 2 * s * s, s))  # another square, same key
                assert got == [(s, el) for el in els], (dg, s, q)
                union.update(got)
            assert not any(dg.realizing(1 - 2 * s * s, s)), (dg, s)  # an odd square
        assert union == {(s, el) for s, by_q in index.items() for els in by_q.values()
                         for el in els}
        # with s = 0 a square asks one key of each order at once: these squares
        # ask every key, and an odd one asks none
        squares, asked = [1], set()
        for s, q in sorted(((s, q) for s, by_q in index.items() for q in by_q), reverse=True):
            if (s, q) not in asked:
                squares.append(q)
                asked.update((t, _parent_residue(q, t)) for t in index)
        for square in squares:
            want = [(s, el) for s, by_q in index.items()
                    for el in by_q.get(_parent_residue(square, s), ())]
            assert sorted(dg.realizing(square)) == sorted(want), (dg, square)


@pytest.mark.parametrize("dg", [disc_group(2, 1, 1), disc_group(5, 3, 1), disc_group(2, 3, 2),
                                disc_group(3, 2, 2), disc_group(5, 8, 2)])
def test_classes_visit_each_pm_pair_once(dg):
    # the integer q-bar of a class of order s lies in [0, 2s^2), so these
    # squares reach every class
    exponent = math.lcm(*dg.orders)
    per_square = [list(dg.realizing(square)) for square in range(2 * exponent ** 2)]
    for found in per_square:
        pairs = [frozenset({el, dg.negate(el)}) for _, el in found]
        assert len(set(pairs)) == len(pairs)
    classes = {c for found in per_square for c in found}
    pairs = [frozenset({el, dg.negate(el)}) for _, el in classes]
    assert len(set(pairs)) == len(pairs)
    assert set(pairs) == {frozenset({el, dg.negate(el)}) for el in dg.elements()}
    self_paired = sum(1 for el in dg.elements() if el == dg.negate(el))
    assert 2 * len(classes) == dg.order + self_paired
    for order, el in classes:
        assert el == dg.normalize(el) == dg.normalize(dg.negate(el))
        assert order == dg.element_order(el) == dg.element_order(dg.negate(el))
        assert dg.qbar(el) == dg.qbar(dg.negate(el))


def test_elements_enumerate_the_torsion():
    for dg in _small_disc_groups():
        everything = list(itertools.product(*(range(d) for d in dg.orders)))
        assert list(dg.elements()) == everything
        for t in divisors(math.lcm(*dg.orders)):
            want = [el for el in everything if t % dg.element_order(el) == 0]
            assert list(dg.elements(t)) == want, (dg, t)


def test_divisibility_examples():
    k3 = k3_lattice()
    assert divisibility(k3.vector([1, 7] + [0] * 20)) == 1
    m2 = hilbert_scheme_lattice(2)
    ell = m2.vector([0] * 22 + [1])
    assert divisibility(ell) == 2 and ell.square == -2
    # a divisibility-2 polarization: 2(u + qv) + ell with q = (n+m-1)/4
    m5 = hilbert_scheme_lattice(5)
    h = m5.vector([2, 2 * 3] + [0] * 20 + [1])  # n = 8, q = 3
    assert divisibility(h) == 2 and h.square == 16
    with pytest.raises(ZeroVector):
        divisibility(k3.vector([0] * 22))


def _polarized_spec(m, n, gamma):
    """h^perp as a block-sum lattice: U^2 + E8(-1)^2 + the model's tail blocks."""
    tail = tuple(Block("tail", gram) for gram in polarized_model(m, n, gamma).blocks)
    return LatticeSpec((U, U, E8_MINUS, E8_MINUS) + tail)


def _histogram(dg):
    """The multiset of (element order, q-bar) over the whole group."""
    return sorted((dg.element_order(el), dg.qbar(el)) for el in dg.elements())


def test_polarized_orthogonal_shapes():
    assert abs(_polarized_spec(2, 1, 1).det) == 4
    spec = _polarized_spec(2, 3, 2)
    assert abs(spec.det) == 3 and spec.rank == 22
    assert spec.blocks[-1].gram == ((-2, -1), (-1, -2)) == polarized_model(2, 3, 2).tail
    with pytest.raises(BadCongruence):
        polarized_model(2, 2, 2)


def test_disc_group_examples():
    d = disc_group(2, 1, 1)
    assert d.orders == (2, 2)
    assert d.gen_q == (Fraction(-1, 2) % 2, Fraction(-1, 2) % 2)

    d = disc_group(2, 3, 2)
    assert d.orders == (3,)
    assert d.gen_q == (Fraction(-2, 3) % 2,)

    # the Smith-form generators of the tail block ((-4, -2), (-2, -2))
    d = disc_group(3, 2, 2)
    assert d.orders == (2, 2)
    assert d.gen_q == (Fraction(-1, 2) % 2, Fraction(-1) % 2)

    # unequal 2-adic valuations: abstract type (2, 16)
    assert disc_group(5, 8, 2).invariant_factors == (2, 16)


def test_disc_group_order_law():
    for m in range(2, 31):
        for n in range(1, 31):
            for gamma in (1, 2):
                if gamma == 2 and (n + m) % 4 != 1:
                    continue
                d = disc_group(m, n, gamma)
                assert d.order == (2 * n) * (2 * m - 2) // gamma ** 2


def _invariant_factors_by_primary_parts(orders):
    """DiscGroup.invariant_factors as it was: the prime-power parts of the
    orders, merged largest first."""
    primary = {}
    for d in orders:
        for p, e in prime_factors(d):
            primary.setdefault(p, []).append(p ** e)
    slots = []
    for p, powers in primary.items():
        powers.sort(reverse=True)
        for i, q in enumerate(powers):
            if i < len(slots):
                slots[i] *= q
            else:
                slots.append(q)
    return tuple(sorted(slots))


def test_invariant_factors_match_the_primary_decomposition():
    rng = random.Random(19)
    tuples = [(), *((a,) for a in range(2, 40)), *itertools.product(range(2, 40), repeat=2)]
    tuples += [tuple(rng.randint(2, 5000) for _ in range(rng.randint(1, 4))) for _ in range(300)]
    for orders in tuples:
        expected = _invariant_factors_by_primary_parts(orders)
        assert DiscGroup(orders, (), ()).invariant_factors == expected, orders


def test_invariant_factors_are_a_divisor_chain_of_the_same_group():
    for m in range(2, 31):
        for n in range(1, 31):
            for gamma in (1, 2) if (n + m) % 4 == 1 else (1,):
                dg = disc_group(m, n, gamma)
                f = dg.invariant_factors
                assert all(b % a == 0 for a, b in zip(f, f[1:])), (m, n, gamma)
                assert math.prod(f) == dg.order, (m, n, gamma)
                # equal multisets of element orders: for every k as many
                # elements have order dividing k, and Z/d has gcd(k, d)
                for k in divisors(dg.order):
                    assert (math.prod(math.gcd(k, d) for d in dg.orders)
                            == math.prod(math.gcd(k, d) for d in f)), (m, n, gamma, k)


def test_disc_group_matches_coordinates():
    # the Smith form of the whole Gram of U^2 + E8(-1)^2 + tail, one block of
    # rank 22, gives the model's group: its columns v over the entries d are
    # the generators v/d of the dual modulo the lattice.  Nothing is dropped
    # or taken blockwise, q-bar comes straight from the Gram, and the order
    # checks the tail against the determinant of h^perp
    cells = 0
    for m in range(2, 13):
        for n in range(1, 13):
            for gamma in divisors(math.gcd(2 * n, 2 * m - 2)):
                if not 1 <= len(polarization_classes(m, n, gamma)) <= 2:
                    continue
                where = (m, n, gamma)
                model = polarized_model(m, n, gamma)
                g = block_sum(U.gram, U.gram, E8_MINUS.gram, E8_MINUS.gram, *model.blocks)
                d, _, v = smith_normal_form(g)
                gens = [(di, [row[i] for row in v]) for i, di in enumerate(d) if abs(di) != 1]

                def pair(x, y):
                    return sum(x[i] * g[i][j] * y[j] for i in range(len(g)) for j in range(len(g)))

                whole = DiscGroup(tuple(abs(di) for di, _ in gens),
                                  tuple(Fraction(pair(x, x), di * di) % 2 for di, x in gens),
                                  tuple(tuple(Fraction(pair(x, y), di * dj) % 1 for dj, y in gens)
                                        for di, x in gens))
                # |D| = |det h^perp| = 2n(2m - 2)/gamma^2
                assert whole.order == 4 * n * (m - 1) // gamma ** 2, where
                assert whole.invariant_factors == model.disc.invariant_factors, where
                assert _histogram(whole) == _histogram(model.disc), where
                # lattice disc prints the group that the Heegner stars are written on
                assert disc_group(m, n, gamma) == periods._model(m, n, gamma).disc, where
                cells += 1
    assert cells == 176


def test_one_model_of_the_polarized_orthogonal():
    # lattice and periods read the same tail, so they agree on the generators
    # that lattice disc prints and the stars of Heegner keys are written on
    for m in range(2, 31):
        for n in range(1, 31):
            for gamma in (1, 2) if (n + m) % 4 == 1 else (1,):
                model = polarized_model(m, n, gamma)
                spec = _polarized_spec(m, n, gamma)
                assert spec.blocks[:4] == (U, U, E8_MINUS, E8_MINUS)
                assert tuple(b.gram for b in spec.blocks[4:]) == model.blocks, (m, n, gamma)
                assert model.tail == block_sum(*model.blocks)
                assert periods._model(m, n, gamma) == model, (m, n, gamma)
                assert disc_group(m, n, gamma) == model.disc, (m, n, gamma)
                assert disc_group_of(spec) == model.disc, (m, n, gamma)


def test_polarized_tail_domain():
    def tail(m, n, gamma):
        model = polarized_model(m, n, gamma)
        assert model.tail == block_sum(*model.blocks)
        return model.basis, model.blocks

    assert tail(4, 2, 1) == (((1, -2, 0), (0, 0, -1)), (((-4,),), ((-6,),)))
    assert tail(2, 3, 2) == (((0, -1, -1), (1, -1, 0)), (((-2, -1), (-1, -2)),))
    # gamma = 3, k = 1: h = 3u + 3v + ell, c = 2, t = 1
    assert tail(4, 6, 3) == (((0, -2, -1), (1, -1, 0)), (((-6, -2), (-2, -2)),))
    for m, n in [(1, 1), (2, 0), (0, -3)]:
        with pytest.raises(ValueError, match="m >= 2"):
            polarized_model(m, n, 1)
    with pytest.raises(BadCongruence, match="n \\+ m = 1"):
        polarized_model(2, 1, 2)
    for gamma in (0, 3, -1):
        with pytest.raises(ValueError):
            polarized_model(2, 3, gamma)
        with pytest.raises(ValueError):
            strange_dual_params(2, 3, gamma)
    # the classes k in {1, 2, 3, 4} are two components, of non-isometric tails
    assert polarization_classes(26, 25, 5) == (1, 2, 3, 4)
    with pytest.raises(UnsupportedParameters, match="2 moduli components"):
        polarized_model(26, 25, 5)
    assert strange_dual_params(26, 25, 5) == (26, 25, 5)


def _parent_tail(m, n, gamma):
    """The model's tail blocks as they were written out for gamma = 1 and 2."""
    p = m - 1
    if gamma == 1:
        return ((-2 * n,),), ((-2 * p,),)
    return (((-2 * p, -p), (-p, -((n + m - 1) // 2))),)


def _pairing(p, x, y):
    """The pairing of U + I1(-2p) on (u, v, ell) coordinates."""
    return x[0] * y[1] + x[1] * y[0] - 2 * p * x[2] * y[2]


def test_tail_basis_spans_the_orthogonal_of_every_class():
    # for every (gamma, k): h has square 2n, the basis is orthogonal to it and
    # of determinant 4pn/gamma^2, that of the whole orthogonal; for gamma <= 2
    # the blocks are the ones written out before
    cells = 0
    for m in range(2, 41):
        p = m - 1
        for n in range(1, 41):
            for gamma in divisors(math.gcd(2 * n, 2 * p)):
                for k in polarization_classes(m, n, gamma):
                    h, (w1, w2) = tail_basis(m, n, gamma, k)
                    where = (m, n, gamma, k)
                    assert math.gcd(*h) == 1 and _pairing(p, h, h) == 2 * n, where
                    assert _pairing(p, h, w1) == _pairing(p, h, w2) == 0, where
                    det = _pairing(p, w1, w1) * _pairing(p, w2, w2) - _pairing(p, w1, w2) ** 2
                    assert det * gamma * gamma == 4 * p * n, where
                    cells += 1
                if gamma <= 2 and polarization_classes(m, n, gamma):
                    assert polarized_model(m, n, gamma).blocks == _parent_tail(m, n, gamma)
    assert cells > 2000


def test_block_sum():
    assert block_sum() == ()
    assert block_sum(((2,),), ((0, 1), (1, 0))) == ((2, 0, 0), (0, 0, 1), (0, 1, 0))


def _two_pass_smith_form(m):
    """The Smith form as first written, the reference for the one-loop form:
    diagonalize, then repair the divisor chain by adding a column to the one
    before it and diagonalizing again."""
    a = [list(row) for row in m]
    n = len(a)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def diagonalize():
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
                done = True
                for i in range(t + 1, n):
                    q = a[i][t] // a[t][t]
                    for k in range(n):
                        a[i][k] -= q * a[t][k]
                        u[i][k] -= q * u[t][k]
                    done = done and not a[i][t]
                for j in range(t + 1, n):
                    q = a[t][j] // a[t][t]
                    for row in a + v:
                        row[j] -= q * row[t]
                    done = done and not a[t][j]
                if done:
                    break

    diagonalize()
    fixed = False
    while not fixed:
        fixed = True
        for t in range(n - 1):
            dt, dn = a[t][t], a[t + 1][t + 1]
            if dt == 0 and dn != 0:
                for row in a + v:
                    row[t], row[t + 1] = row[t + 1], row[t]
                a[t], a[t + 1] = a[t + 1], a[t]
                u[t], u[t + 1] = u[t + 1], u[t]
                fixed = False
            elif dt and dn % dt:
                for row in a + v:
                    row[t] += row[t + 1]
                diagonalize()
                fixed = False
    return [a[i][i] for i in range(n)], u, v


def test_smith_normal_form_matches_the_two_pass_form():
    # the same (d, u, v) on every 1x1 and 2x2 matrix with entries in [-12, 12]
    # and on every divisibility-2 tail block with m, n < 200
    small = range(-12, 13)
    mats = itertools.chain(
        (((x,),) for x in small),
        (((a, b), (c, d)) for a, b, c, d in itertools.product(small, repeat=4)),
        (_parent_tail(m, n, 2)[0] for m in range(2, 200) for n in range(1, 200)
         if (n + m) % 4 == 1))
    for mat in mats:
        assert smith_normal_form(mat) == _two_pass_smith_form(mat), mat


def test_smith_normal_form():
    rng = random.Random(11)
    fixed = [((8, 4), (4, 6)), ((-2, -1), (-1, -2)), ((6, 3), (3, 2)),
             ((4, 0), (0, 9)), ((-6, -3), (-3, -4)),
             ((-2, 0, -4), (0, -2, -5), (-4, -5, -8)), ((0, 0), (0, 5))]
    randoms = []
    for _ in range(1000):
        n = rng.choice((1, 2, 3, 3, 4, 4))
        randoms.append(tuple(tuple(rng.randint(-9, 9) for _ in range(n))
                             for _ in range(n)))
    for mat in fixed + randoms:
        d, u, v = smith_normal_form(mat)
        # the invariant factors are unique up to sign
        assert [abs(x) for x in d] == [abs(x) for x in _two_pass_smith_form(mat)[0]], mat
        n = len(mat)
        prod = [[sum(u[i][k] * mat[k][l] * v[l][j] for k in range(n) for l in range(n))
                 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                assert prod[i][j] == (d[i] if i == j else 0)
        for i in range(n - 1):
            if d[i]:
                assert d[i + 1] % d[i] == 0
            else:
                assert d[i + 1] == 0


def test_orbit_keys():
    k3 = k3_lattice()
    assert orbit_key(k3.vector([1, 5] + [0] * 20)) == OrbitKey(10, 1)
    m4 = hilbert_scheme_lattice(4)
    assert orbit_key(m4.vector([0] * 22 + [1])) == OrbitKey(-6, 6)
    w = k3_polarized_orthogonal(6).vector([0] * 20 + [1])
    assert orbit_key(w) == OrbitKey(-12, 12)

    with pytest.raises(NotPrimitive):
        orbit_key(k3.vector([2, 2] + [0] * 20))
    with pytest.raises(NoDoubleU):
        orbit_key(LatticeSpec((U,)).vector([1, 0]))


def test_orbit_key_block_permutation():
    # the key only sees the square and the pairing ideal, so permuting
    # identical blocks (and the vector's coordinates with them) is invisible
    a = LatticeSpec((U, U, hilbert_scheme_lattice(3).blocks[-1], U))
    b = LatticeSpec((U, hilbert_scheme_lattice(3).blocks[-1], U, U))
    va = a.vector([1, 2, 0, 1, 3, 1, 5])
    vb = b.vector([1, 2, 3, 0, 1, 1, 5])
    assert orbit_key(va) == orbit_key(vb)


def test_exists_primitive_vector():
    root_div1, root_div2 = OrbitKey(-2, 1), OrbitKey(-2, 2)
    for e in range(1, 20):
        spec = k3_polarized_orthogonal(e)
        assert exists_primitive_vector(spec, root_div1)
        assert exists_primitive_vector(spec, root_div2) == (e % 4 == 1), e
    uu = LatticeSpec((U, U))
    assert exists_primitive_vector(uu, root_div1)
    assert not exists_primitive_vector(uu, OrbitKey(-2, 3))


def test_exists_primitive_vector_matches_the_coordinate_oracle():
    # every (square, divisibility) of a primitive vector the brute-force
    # oracle builds in a coordinate box exists by the discriminant-group test
    checked = 0
    for m in (2, 3, 4):
        for n in range(1, 5):
            for gamma in (1, 2) if (n + m) % 4 == 1 else (1,):
                spec = _polarized_spec(m, n, gamma)
                keys = {(k2, s) for k2, s, _, _ in coordinate_oracle(m, n, gamma, 3)}
                for k2, s in keys:
                    assert exists_primitive_vector(spec, OrbitKey(k2, s)), (m, n, gamma, k2, s)
                assert len(keys) > 20, (m, n, gamma)
                checked += len(keys)
    assert checked > 1500


def test_exists_primitive_vector_reads_the_torsion_as_the_index_does():
    # exists_primitive_vector as it was: a lookup in the index of the whole group
    for m in range(2, 5):
        for n in range(1, 5):
            for gamma in (1, 2) if (n + m) % 4 == 1 else (1,):
                spec = _polarized_spec(m, n, gamma)
                index = _parent_index(disc_group_of(spec))
                for s in range(1, 2 * (m + n)):
                    for square in range(-4 * (m + n), 3, 2):
                        expected = _parent_residue(square, s) in index.get(s, {})
                        got = exists_primitive_vector(spec, OrbitKey(square, s))
                        assert got == expected, (m, n, gamma, square, s)


def test_monodromy_index():
    assert monodromy_index(2) == 1
    assert monodromy_index(7) == 2   # 6 = 2*3
    assert monodromy_index(31) == 4  # 30 = 2*3*5


def test_moduli_component_count():
    assert moduli_component_count(2, 1, 1) == 1
    assert moduli_component_count(2, 3, 2) == 1
    assert moduli_component_count(10, 9, 3) == 1
    with pytest.raises(BadCongruence):  # n+m = 6 fails mod-4: no such polarization
        moduli_component_count(4, 2, 2)
    # gamma a product of two distinct odd primes: 2^(r-1) components
    # (m-1 = 11*15, n = 15, and -11 = 4 is a square mod 15)
    assert moduli_component_count(166, 15, 15) == 2
    with pytest.raises(ValueError):
        moduli_component_count(2, 1, 3)


def _tabulated_count(m, n, gamma):
    """moduli_component_count as it was, without its notes: a table of
    cases, None outside them, and no test of existence past gamma = 2."""
    p = m - 1
    if gamma <= 2:
        return 1
    if gamma == 3 and p % 9 == 0 and n % 9 == 0:
        return 1
    if gamma == 4:
        if v_p(p, 2) == 2 and v_p(n, 2) == 2 and (n + m) % 16 == 1:
            return 1
        if v_p(p, 2) == 3 and v_p(n, 2) == 3:
            return 1
        if p % 16 == 0 and n % 16 == 0:
            return 1
        return None
    fac = prime_factors(gamma)
    if len(fac) == 1:
        q, a = fac[0]
        if q % 2 == 1 and v_p(p, q) == a and v_p(n, q) == a:
            unit = (p // gamma) * pow(n // gamma, -1, gamma) % gamma
            if is_square_mod(-unit % gamma, gamma):
                return 1
        if q == 2 and a >= 2 and v_p(p, 2) == a - 1 and v_p(n, 2) == a - 1:
            mod = 2 ** (a + 1)
            unit = (p >> (a - 1)) * pow(n >> (a - 1), -1, mod) % mod
            if is_square_mod(-unit % mod, mod):
                return 1
    if all(q % 2 == 1 and e == 1 for q, e in fac) and len(fac) >= 1:
        if p % gamma == 0 and n % gamma == 0:
            a, b = p // gamma, n // gamma
            if math.gcd(math.gcd(a, b), gamma) == 1 and is_square_mod(-a * b % n, n):
                return 2 ** (len(fac) - 1)
    return None


def test_polarization_rule_matches_the_discriminant_form_engine():
    # a square-2n, divisibility-gamma primitive class exists in the lattice
    # of K3^[m] type exactly when the rule finds a class, and the components
    # are the classes realizing it up to sign; where the old table gave a
    # count it agrees
    tabulated = 0
    for m in range(2, 41):
        spec = hilbert_scheme_lattice(m)
        disc = disc_group_of(spec)
        for n in range(1, 41):
            for gamma in divisors(math.gcd(2 * n, 2 * m - 2)):
                where = (m, n, gamma)
                if not exists_primitive_vector(spec, OrbitKey(2 * n, gamma)):
                    with pytest.raises(BadCongruence, match=f"divisibility {gamma} requires"):
                        check_polarization(m, n, gamma)
                    continue
                check_polarization(m, n, gamma)
                count = moduli_component_count(m, n, gamma)
                assert count == len(list(disc.realizing(2 * n, gamma))) >= 1, where
                if (old := _tabulated_count(m, n, gamma)) is not None:
                    assert count == old, where
                    tabulated += 1
    assert tabulated > 1000


def test_polarization_rule_keeps_the_old_check_at_gamma_1_and_2():
    for m in range(2, 201):
        for n in range(1, 201):
            check_polarization(m, n, 1)
            if (n + m) % 4 == 1:
                check_polarization(m, n, 2)
            else:
                with pytest.raises(BadCongruence, match="n \\+ m = 1 \\(mod 4\\)"):
                    check_polarization(m, n, 2)
    # the old table gave these empty moduli spaces one component
    for m, n, gamma in ((4, 54, 3), (10, 3, 3), (26, 5, 5)):
        with pytest.raises(BadCongruence):
            moduli_component_count(m, n, gamma)


def _isometric_tails(source, target):
    """strange_dual_params' check as it was: the polarized orthogonals have
    the same blocks up to order (gamma = 1), or the base change
    (x, y) -> (-x, 2x + y) carries the source's tail block to the target's
    (gamma = 2)."""
    b1, b2 = polarized_model(*source).blocks, polarized_model(*target).blocks
    if source[2] == 1:
        return sorted(b1) == sorted(b2)
    s, g = ((-1, 0), (2, 1)), b1[-1]
    carried = tuple(tuple(sum(s[k][i] * g[k][l] * s[l][j] for k in range(2) for l in range(2))
                          for j in range(2)) for i in range(2))
    return b1[:-1] == b2[:-1] and carried == b2[-1]


def test_strange_duality():
    assert strange_dual_params(2, 3, 2) == (4, 1, 2)
    assert strange_dual_params(2, 11, 2) == (12, 1, 2)
    assert strange_dual_params(5, 4, 1) == (5, 4, 1)  # fixed point
    for m in range(2, 61):
        for n in range(1, 61):
            for gamma in (1, 2):
                if gamma == 2 and (n + m) % 4 != 1:
                    with pytest.raises(BadCongruence):
                        strange_dual_params(m, n, gamma)
                    continue
                dual = strange_dual_params(m, n, gamma)
                assert _isometric_tails((m, n, gamma), dual), (m, n, gamma)
                assert strange_dual_params(*dual) == (m, n, gamma), (m, n, gamma)


def test_strange_duality_past_gamma_2():
    # the dual's classes are the inverses mod gamma, and where there is one
    # component the two polarized orthogonals have the same discriminant form;
    # as both are indefinite and hold U + U, they are isometric (Nikulin, Izv.
    # 1979, Cor. 1.13.3)
    compared = 0
    for m in range(2, 31):
        for n in range(1, 31):
            for gamma in divisors(math.gcd(2 * n, 2 * m - 2)):
                classes = polarization_classes(m, n, gamma)
                if not classes or gamma < 3:
                    continue
                dual = strange_dual_params(m, n, gamma)
                assert polarization_classes(*dual) == tuple(
                    sorted(pow(k, -1, gamma) for k in classes)), (m, n, gamma)
                if len(classes) == 2:
                    assert _histogram(disc_group(m, n, gamma)) == _histogram(disc_group(*dual))
                    compared += 1
    assert compared > 50


def test_polarization_determined():
    assert polarization_determined(4, 5, 1)
    assert polarization_determined(5, 8, 2)
    # k in {1, 4, 11, 14}: +-1 mod 3 and +-1 mod 5, one O(Lambda)-orbit, though
    # the moduli space has the 2 components k up to sign
    assert polarization_determined(166, 15, 15)
    assert moduli_component_count(166, 15, 15) == 2
    with pytest.raises(BadCongruence):  # 1 + k^2 = 0 (mod 15) has no root
        polarization_determined(16, 15, 15)
    assert polarization_determined(10, 9, 3)  # k in {1, 2}
    # k in {1, 2, 3, 4} is 1 or 2 up to sign mod 5
    assert not polarization_determined(26, 25, 5)


def test_polarization_determined_is_the_orbit_of_the_discriminant_isometries():
    # a brute force over O(D) = {u mod 2p : u^2 = 1 (mod 4p)}, acting on the
    # classes k mod gamma; the gcd test it replaces was never True off one
    # orbit, and False on 122 of these cells with one orbit
    cells = 0
    for m in range(2, 61):
        p = m - 1
        units = [u for u in range(2 * p) if (u * u - 1) % (4 * p) == 0]
        for n in range(1, 61):
            for gamma in divisors(math.gcd(2 * n, 2 * p)):
                classes = polarization_classes(m, n, gamma)
                if classes:
                    orbit = {u * classes[0] % gamma for u in units}
                    assert polarization_determined(m, n, gamma) == (orbit == set(classes))
                    cells += 1
    assert cells == 4862


def test_heegner_finiteness_bound():
    assert heegner_finiteness_bound(2, 1, 1, 2) == 8
    assert heegner_finiteness_bound(2, 3, 2, 6) == 18
    assert heegner_finiteness_bound(2, 5, 1, 0) == 0


@pytest.mark.parametrize("m,n,gamma,message", [
    (2, 1, 0, "gamma >= 1"), (2, 1, -2, "gamma >= 1"), (1, 1, 1, "m >= 2"),
    (2, 0, 1, "n >= 1"), (2, 1, 3, "must divide"), (4, 2, 4, "must divide"),
    (4, 2, 2, "n \\+ m = 1"),
])
def test_polarization_numerics_check_their_domain(m, n, gamma, message):
    # past m >= 2, n >= 1 a divisibility-2 polarization fails only its congruence
    error = BadCongruence if gamma == 2 else ValueError
    for call in (lambda: moduli_component_count(m, n, gamma),
                 lambda: polarization_determined(m, n, gamma),
                 lambda: heegner_finiteness_bound(m, n, gamma, 2),
                 lambda: very_general_bir(m, n, gamma)):
        with pytest.raises(error, match=message):
            call()
