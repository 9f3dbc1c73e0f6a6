import itertools
import random
from fractions import Fraction

import pytest

from hkpell.lattice import (E8_MINUS, U, ComponentCount, DiscGroup, _det,
                            IncompatibleDivisibility, LatticeSpec, NoDoubleU,
                            NotPrimitive, OrbitKey, ZeroVector, disc_group,
                            disc_group_of, divisibility,
                            exists_primitive_vector, extended_k3_lattice,
                            heegner_finiteness_bound, hilbert_scheme_lattice,
                            k3_lattice, k3_polarized_orthogonal, mod2,
                            moduli_component_count, monodromy_index,
                            orbit_key, polarization_determined,
                            polarized_orthogonal, smith_normal_form,
                            strange_dual_params)
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


@pytest.mark.parametrize("dg", [disc_group(2, 1, 1), disc_group(5, 3, 1), disc_group(2, 3, 2),
                                disc_group(3, 2, 2), disc_group(5, 8, 2)])
def test_classes_visit_each_pm_pair_once(dg):
    classes = list(dg.classes())
    pairs = [frozenset({el, dg.negate(el)}) for _, el in classes]
    assert len(set(pairs)) == len(pairs)
    assert set(pairs) == {frozenset({el, dg.negate(el)}) for el in dg.elements()}
    self_paired = sum(1 for el in dg.elements() if el == dg.negate(el))
    assert 2 * len(classes) == dg.order + self_paired
    for order, el in classes:
        assert el == dg.normalize(el) == dg.normalize(dg.negate(el))
        assert order == dg.element_order(el) == dg.element_order(dg.negate(el))
        assert dg.qbar(el) == dg.qbar(dg.negate(el))


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


def test_polarized_orthogonal_shapes():
    spec = polarized_orthogonal(2, 1, 1)
    assert abs(spec.det) == 4
    spec = polarized_orthogonal(2, 3, 2)
    assert abs(spec.det) == 3
    assert spec.blocks[-1].gram == ((-2, -1), (-1, -2))
    with pytest.raises(IncompatibleDivisibility):
        polarized_orthogonal(2, 2, 2)


def test_disc_group_examples():
    d = disc_group(2, 1, 1)
    assert d.orders == (2, 2)
    assert d.gen_q == (mod2(Fraction(-1, 2)), mod2(Fraction(-1, 2)))

    d = disc_group(2, 3, 2)
    assert d.orders == (3,)
    assert d.gen_q == (mod2(Fraction(-2, 3)),)

    d = disc_group(3, 2, 2)
    assert d.orders == (2, 2)
    assert d.gen_q == (mod2(Fraction(-1, 2)), mod2(Fraction(-1, 2)))

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


def test_disc_group_matches_coordinates():
    # same multiset of (element order, quadratic value) as a direct
    # computation from the block Gram matrices
    for m, n, gamma in [(2, 1, 1), (2, 5, 1), (3, 4, 1), (2, 3, 2), (3, 2, 2),
                        (4, 1, 2), (5, 8, 2), (9, 4, 2), (2, 11, 2), (6, 4, 1)]:
        if gamma == 2 and (n + m) % 4 != 1:
            continue
        curated = disc_group(m, n, gamma)
        generic = disc_group_of(polarized_orthogonal(m, n, gamma))

        def histogram(dg):
            return sorted((dg.element_order(el), dg.qbar(el)) for el in dg.elements())

        assert histogram(curated) == histogram(generic), (m, n, gamma)


def test_smith_normal_form():
    import random
    rng = random.Random(11)
    fixed = [((8, 4), (4, 6)), ((-2, -1), (-1, -2)), ((6, 3), (3, 2)),
             ((4, 0), (0, 9)), ((-6, -3), (-3, -4)),
             ((-2, 0, -4), (0, -2, -5), (-4, -5, -8))]
    randoms = []
    for _ in range(400):
        n = rng.choice((1, 2, 2, 3))
        randoms.append(tuple(tuple(rng.randint(-9, 9) for _ in range(n))
                             for _ in range(n)))
    for mat in fixed + randoms:
        d, u, v = smith_normal_form(mat)
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
    key = orbit_key(k3.vector([1, 5] + [0] * 20))
    assert (key.square, key.star_order, key.star_q) == (10, 1, Fraction(0))

    m4 = hilbert_scheme_lattice(4)
    key = orbit_key(m4.vector([0] * 22 + [1]))
    assert (key.square, key.star_order) == (-6, 6)
    assert key.star_q == mod2(Fraction(-1, 6))

    w = k3_polarized_orthogonal(6).vector([0] * 20 + [1])
    key = orbit_key(w)
    assert (key.square, key.star_order) == (-12, 12)
    assert key.star_q == mod2(Fraction(-1, 12))

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
    root_div1 = OrbitKey(-2, 1, mod2(Fraction(-2)))
    root_div2 = OrbitKey(-2, 2, mod2(Fraction(-1, 2)))
    unreduced = OrbitKey(-2, 2, Fraction(-1, 2))  # the same key, star_q kept as given
    assert unreduced.star_q == Fraction(-1, 2)
    for e in range(1, 20):
        spec = k3_polarized_orthogonal(e)
        assert exists_primitive_vector(spec, root_div1)
        assert exists_primitive_vector(spec, root_div2) == (e % 4 == 1), e
        assert exists_primitive_vector(spec, unreduced) == (e % 4 == 1), e
    uu = LatticeSpec((U, U))
    assert exists_primitive_vector(uu, root_div1)
    assert not exists_primitive_vector(uu, OrbitKey(-2, 3, mod2(Fraction(-2, 9))))


def test_exists_primitive_vector_matches_the_coordinate_oracle():
    # every (square, divisibility) of a primitive vector the brute-force
    # oracle builds in a coordinate box exists by the discriminant-group test
    checked = 0
    for m in (2, 3, 4):
        for n in range(1, 5):
            for gamma in (1, 2) if (n + m) % 4 == 1 else (1,):
                spec = polarized_orthogonal(m, n, gamma)
                keys = {(k2, s) for k2, s, _, _ in coordinate_oracle(m, n, gamma, 3)}
                for k2, s in keys:
                    assert exists_primitive_vector(spec, OrbitKey(k2, s)), (m, n, gamma, k2, s)
                assert len(keys) > 20, (m, n, gamma)
                checked += len(keys)
    assert checked > 1500


def test_monodromy_index():
    assert monodromy_index(2) == 1
    assert monodromy_index(7) == 2   # 6 = 2*3
    assert monodromy_index(31) == 4  # 30 = 2*3*5


def test_moduli_component_count():
    assert moduli_component_count(2, 1, 1).count == 1
    assert moduli_component_count(2, 3, 2).count == 1
    assert moduli_component_count(10, 9, 3).count == 1
    assert moduli_component_count(4, 2, 2).count is None  # n+m = 6 fails mod-4
    # gamma a product of two distinct odd primes: 2^(r-1) components
    # (m-1 = 11*15, n = 15, and -11 = 4 is a square mod 15)
    got = moduli_component_count(166, 15, 15)
    assert got.count == 2
    with pytest.raises(ValueError):
        moduli_component_count(2, 1, 3)


def test_strange_duality():
    assert strange_dual_params(2, 3, 2) == (4, 1, 2)
    assert strange_dual_params(2, 11, 2) == (12, 1, 2)
    assert strange_dual_params(5, 4, 1) == (5, 4, 1)  # fixed point
    for m, n, gamma in [(2, 3, 2), (2, 11, 2), (3, 4, 1), (6, 7, 2), (4, 9, 2)]:
        if gamma == 2 and (n + m) % 4 != 1:
            continue
        m2, n2, g2 = strange_dual_params(m, n, gamma)
        assert strange_dual_params(m2, n2, g2) == (m, n, gamma)


def test_polarization_determined():
    assert polarization_determined(4, 5, 1)
    assert polarization_determined(5, 8, 2)
    assert polarization_determined(16, 15, 15)
    assert not polarization_determined(10, 9, 3)  # gcd(6, 6, 3) = 3


def test_heegner_finiteness_bound():
    assert heegner_finiteness_bound(2, 1, 1, 2) == 8
    assert heegner_finiteness_bound(2, 3, 2, 6) == 18
    assert heegner_finiteness_bound(2, 5, 1, 0) == 0
