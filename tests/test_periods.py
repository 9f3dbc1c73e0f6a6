import time
from fractions import Fraction
from itertools import count
from math import gcd, isqrt

import pytest

from hkpell import cones, periods
from hkpell.arith import (BadCongruence, NonPrimePower, UnsupportedParameters, divisors,
                          is_squarefree, polarization_classes, v_p, wall_constraints)
from hkpell.discform import DiscGroup, polarized_model
from hkpell.periods import (HeegnerKey, _ambient_div, _ambient_div_coords,
                            _classes_for_discriminant, _key, coordinate_oracle,
                            excluded_heegner, excluded_heegner_m2_report,
                            heegner_components_m2, heegner_nonempty_m2,
                            hilbert_square_point, hilbert_square_points, nl_family)


def test_nonempty_m2():
    assert not heegner_nonempty_m2(1, 1, 3)
    assert heegner_nonempty_m2(1, 1, 1)
    assert heegner_nonempty_m2(3, 2, 1)
    assert not heegner_nonempty_m2(3, 2, 2)
    assert heegner_nonempty_m2(11, 2, 4)
    with pytest.raises(BadCongruence):
        heegner_nonempty_m2(2, 2, 1)


def test_nonempty_matches_class_enumeration():
    # the residue criteria match direct realizability of a cutting class
    for n in range(1, 26):
        for gamma in (1, 2):
            if gamma == 2 and n % 4 != 3:
                continue
            model = polarized_model(2, n, gamma)
            for e in range(1, 49):
                residue = heegner_nonempty_m2(n, gamma, e)
                classes = _classes_for_discriminant(model, e)
                assert residue == bool(classes), (n, gamma, e)


def _dual_of_star(model, star):
    """star's dual vector on the tail basis, the sum of c*v/d over the
    generators' Smith data, in Fractions."""
    return tuple(sum((Fraction(c * v[r], d) for c, (d, _, v) in zip(star, model.gens)),
                     Fraction(0)) for r in range(2))


def _scanned_classes(model):
    """{normalized star: (order, q-bar)} by a plain scan of elements(), with
    order and q-bar read off the star's dual vector in the tail Gram matrix."""
    t = model.tail
    out = {}
    for el in model.disc.elements():
        x = _dual_of_star(model, el)
        s = next(k for k in count(1) if all((k * c).denominator == 1 for c in x))
        q = sum(x[i] * t[i][j] * x[j] for i in range(2) for j in range(2)) % 2
        out[min(el, model.disc.negate(el))] = (s, q)
    return out


def _realizable(model, kappa_sq):
    """(s, normalized star, ambient divisibility) of the primitive classes of
    square kappa_sq, as excluded_heegner reads them off the model."""
    return [(s, star, _ambient_div(model, star, s)) for s, star in model.disc.realizing(kappa_sq)]


def _valid_params(ms, ns):
    return [(m, n, gamma) for m in ms for n in ns
            for gamma in ((1, 2) if (n + m) % 4 == 1 else (1,))]


@pytest.mark.parametrize("m", range(2, 13))
def test_realizable_classes_match_a_scan(m):
    for m, n, gamma in _valid_params((m,), range(1, 9)):
        model = polarized_model(m, n, gamma)
        scanned = [(s, star, q, _ambient_div(model, star, s))
                   for star, (s, q) in _scanned_classes(model).items()]
        for kappa_sq in range(-200, 0, 2):
            want = sorted((s, star, amb) for s, star, q, amb in scanned
                          if Fraction(kappa_sq, s * s) % 2 == q)
            assert sorted(_realizable(model, kappa_sq)) == want, \
                (m, n, gamma, kappa_sq)


def test_classes_for_discriminant_match_a_scan():
    for _, n, gamma in _valid_params((2,), range(1, 9)):
        disc = (2 * n) * 2 // gamma ** 2
        model = polarized_model(2, n, gamma)
        scanned = _scanned_classes(model)
        for e in range(1, 101):
            want = []
            for star, (s, q) in scanned.items():
                num = 2 * e * s * s
                kappa_sq = -(num // disc)
                if num % disc == 0 and kappa_sq % 2 == 0 and Fraction(kappa_sq, s * s) % 2 == q:
                    want.append((s, star, kappa_sq))
            assert sorted(_classes_for_discriminant(model, e)) == sorted(want), (n, gamma, e)


def test_gamma1_model_generators():
    # no golden holds a gamma = 1 star, so pin the generators the stars use:
    # the duals of the rank-1 blocks of -2n and -2(m-1), in that order
    for m in range(2, 13):
        for n in range(1, 9):
            model = polarized_model(m, n, 1)
            p = m - 1
            assert model.disc.orders == (2 * n, 2 * p)
            assert model.disc.gen_q == (Fraction(-1, 2 * n) % 2, Fraction(-1, 2 * p) % 2)
            assert model.gens == ((2 * n, (-1, 0), (1, 0)), (2 * p, (0, -1), (0, 1)))


def test_star_of_pairings_and_ambient_div_match_the_fraction_lift():
    # the integer Smith data give back what the Fraction lift of each class
    # gives: its pairings name its star, and s times it its ambient divisibility
    for m, n, gamma in _valid_params(range(2, 13), range(1, 9)):
        model = polarized_model(m, n, gamma)
        t = model.tail
        for el in model.disc.elements():
            x = _dual_of_star(model, el)
            y = [sum(t[i][j] * x[j] for j in range(2)) for i in range(2)]
            assert all(c.denominator == 1 for c in y)
            assert model.star_of([int(c) for c in y]) == model.disc.normalize(el), \
                (m, n, gamma, el)
            s = model.disc.element_order(el)
            assert all((s * c).denominator == 1 for c in x)
            a, b = (int(s * c) for c in x)
            assert _ambient_div(model, el, s) == _ambient_div_coords(model, a, b, s), \
                (m, n, gamma, el)
            if s > 1:  # the dual of a nonzero class is not integral
                with pytest.raises(periods.PeriodsError, match="not integral"):
                    _ambient_div(model, el, 1)


def test_components_m2():
    rep = heegner_components_m2(1, 1, 1)
    assert rep.count == 2 and rep.certain
    assert {k.star for k in rep.keys} == {(0, 1), (1, 0)}

    rep = heegner_components_m2(3, 2, 3)
    assert rep.count == 1 and rep.keys[0].kappa_prim_sq == -2

    rep = heegner_components_m2(2, 1, 2)
    assert rep.count == 1
    assert rep.keys[0].s == 2

    # n = 2: the residue class of e mod 8 pins everything down
    for e in range(1, 41):
        rep = heegner_components_m2(2, 1, e)
        assert rep.count in (0, 1), e


@pytest.mark.parametrize("n,gamma,e", [(9, 1, 1), (9, 1, 10), (15, 1, 4), (15, 2, 1), (15, 2, 6)])
def test_components_m2_unproven(n, gamma, e):
    # n neither prime nor squarefree with n | e: the keys come without a count
    rep = heegner_components_m2(n, gamma, e)
    assert rep.count is None and rep.certain is False
    assert rep.keys
    assert {(k.s, k.star, k.kappa_prim_sq) for k in rep.keys} == {
        (s, tuple(star), k2)
        for s, star, k2 in _classes_for_discriminant(polarized_model(2, n, gamma), e)}
    assert all(k.d == 2 * e for k in rep.keys)


def test_components_prime_pattern():
    # for odd prime n: two components exactly at e = 1 mod 4 (n = 1 mod 4)
    # or e = 0 mod 4 (n = -1 mod 4), among nonempty loci
    for n in (3, 5, 7, 11, 13):
        for e in range(1, 60):
            rep = heegner_components_m2(n, 1, e)
            if rep.count == 0:
                continue
            if n % 4 == 1:
                expect = 2 if e % 4 == 1 else 1
            else:
                expect = 2 if e % 4 == 0 else 1
            assert rep.count == expect, (n, e, rep)


def test_excluded_m2_golden():
    keys = excluded_heegner(2, 1, 1)
    by_d = sorted((k.d, k.kappa_prim_sq, k.s) for k in keys)
    assert by_d == [(2, -2, 2), (2, -2, 2), (8, -2, 1), (10, -10, 2)]

    keys = excluded_heegner(2, 3, 2)
    assert [(k.d, k.kappa_prim_sq, k.s) for k in keys] == [(6, -2, 1)]

    keys = excluded_heegner(2, 11, 2)
    assert [(k.d, k.kappa_prim_sq, k.s) for k in keys] == [(22, -2, 1)]


def test_excluded_m2_closed_form_shape_gamma1():
    # cross-check the sweep against the printed closed form: components of
    # d = 2n (one, plus one more when n = 0 or 1 mod 4), one of d = 8n, one
    # of d = 10n, and the d = 2n/5 family exactly for n = 5^(2a+1) n'' with
    # n'' = +-1 mod 5
    for n in range(1, 61):
        keys = excluded_heegner(2, n, 1)
        count_2n = sum(1 for k in keys if k.d == 2 * n and k.kappa_prim_sq == -2)
        expect = 1 + (1 if n % 4 in (0, 1) else 0)
        assert count_2n == expect, n
        assert sum(1 for k in keys if k.d == 8 * n) == 1, n
        assert sum(1 for k in keys if k.d == 10 * n) == 1, n
        fam = [k for k in keys if k.kappa_prim_sq == -10 and k.s == 10]
        alpha = v_p(n, 5) if n % 5 == 0 else 0
        npp = n // 5 ** alpha
        eligible = alpha % 2 == 1 and npp % 5 in (1, 4)
        assert bool(fam) == eligible, n
        if eligible:
            for k in fam:
                assert k.d == (2 * n) // 5
            if is_squarefree(npp):
                assert len(fam) == 1, n


def test_excluded_m2_gamma2():
    for n in range(3, 60, 4):
        keys = excluded_heegner(2, n, 2)
        assert [(k.d, k.kappa_prim_sq, k.s) for k in keys] == [(2 * n, -2, 1)], n


def test_nonemptiness_coherence():
    for n in range(1, 31):
        for gamma in (1, 2):
            if gamma == 2 and n % 4 != 3:
                continue
            for k in excluded_heegner(2, n, gamma):
                assert k.d % 2 == 0
                assert heegner_nonempty_m2(n, gamma, k.d // 2), (n, gamma, k)


def test_wall_constraints():
    assert [(w.k, w.a, w.kappa_sq) for w in wall_constraints(2)] == [
        (0, -1, -8), (1, -1, -10), (1, 0, -2)]
    ka = {(w.k, w.a) for w in wall_constraints(4)}
    assert {(0, -1), (2, 0), (2, -1)} <= ka
    with pytest.raises(NonPrimePower):
        wall_constraints(10)  # m - 1 = 9 is neither 1 nor prime
    for m in (1, 0, -3):
        with pytest.raises(ValueError, match="m >= 2"):
            wall_constraints(m)
        with pytest.raises(ValueError, match="m >= 2"):
            excluded_heegner(m, 1, 2)


def _square_divisors(total):
    """The b >= 1 with b^2 | total and total/b^2 even."""
    return [b for b in range(1, isqrt(abs(total)) + 1)
            if total % (b * b) == 0 and (total // (b * b)) % 2 == 0]


def _keys_of_constraint(m, n, gamma, wc):
    """The components cut by the classes of total square wc.kappa_sq whose
    ambient divisibility is divisible by 2(m-1), asked one b at a time: a
    class of total square kappa^2 is b times a primitive class of square
    kappa^2/b^2, for any b with b^2 | kappa^2 and kappa^2/b^2 even."""
    model = polarized_model(m, n, gamma)
    keys = set()
    for b in _square_divisors(wc.kappa_sq):
        prim_sq = wc.kappa_sq // (b * b)
        for s, star, amb in _realizable(model, prim_sq):
            if (b * amb) % (2 * (m - 1)) == 0:
                keys.add(_key(model, prim_sq, s, star))
    return keys


def _excluded_per_pair(m, n, gamma):
    """The excluded list asked one (wall constraint, b) pair at a time."""
    return tuple(sorted(set().union(*(_keys_of_constraint(m, n, gamma, wc)
                                      for wc in wall_constraints(m)))))


def test_realize_example_m4():
    # the three wall shapes of the 8-dimensional square-2 family
    shapes = {(w.k, w.a): w for w in wall_constraints(4)}
    d_of = lambda k, a: {key.d for key in _keys_of_constraint(4, 1, 2, shapes[k, a])}
    assert shapes[0, -1].kappa_sq == -72 and d_of(0, -1) == {6}
    assert shapes[2, 0].kappa_sq == -24 and d_of(2, 0) == {2}
    assert shapes[2, -1].kappa_sq == -96 and d_of(2, -1) == {2, 8}


@pytest.mark.parametrize("p", (1, 2, 3, 5, 7, 11, 13, 17, 19, 23))
def test_excluded_matches_the_per_pair_union(p):
    for m, n, gamma in _valid_params((p + 1,), range(1, 5 if p < 17 else 3)):
        assert excluded_heegner(m, n, gamma) == _excluded_per_pair(m, n, gamma), (m, n, gamma)


@pytest.mark.parametrize("m", (2, 3, 4, 8, 12, 24))
def test_excluded_asks_each_primitive_square_once(m, monkeypatch):
    asked = []
    realizing = DiscGroup.realizing

    def counting(self, square, s=0):
        asked.append(square)
        return realizing(self, square, s)

    monkeypatch.setattr(DiscGroup, "realizing", counting)
    excluded_heegner(m, 1, 1)
    # one square per constraint: kappa^2/g^2 with g = gcd(2(m-1), k)
    squares = {wc.kappa_sq // gcd(2 * (m - 1), wc.k) ** 2 for wc in wall_constraints(m)}
    assert len(asked) == len(set(asked))
    assert set(asked) == squares


@pytest.mark.parametrize("query,args", [
    (excluded_heegner, (2, 1, 1)), (excluded_heegner, (4, 1, 2)), (excluded_heegner, (12, 5, 1)),
    (excluded_heegner_m2_report, (1, 1)), (excluded_heegner_m2_report, (125, 1)),
    (excluded_heegner_m2_report, (11, 2)),
    (heegner_components_m2, (1, 1, 1)), (heegner_components_m2, (9, 1, 10)),
    (heegner_components_m2, (15, 2, 6)),
    (coordinate_oracle, (2, 3, 2, 4)), (coordinate_oracle, (4, 1, 2, 3, frozenset({-2, -6}))),
    (coordinate_oracle, (7, 10, 4, 2)),
], ids=lambda v: v.__name__ if callable(v) else repr(v))
def test_each_period_query_builds_its_model_once(query, args, monkeypatch):
    # every helper below a query reads the model the query hands it, so no
    # cache is needed to keep one call from building D(h^perp) again
    built = []

    def counting(*cell):
        built.append(cell)
        return polarized_model(*cell)

    monkeypatch.setattr(periods, "polarized_model", counting)
    query(*args)
    assert len(built) == 1, built


def test_excluded_discriminants_exercises():
    def discriminants(m):
        return sorted({k.d for k in excluded_heegner(m, 1, 2)})

    assert discriminants(4) == [2, 6, 8]
    assert discriminants(8) == [2, 4, 8, 14, 16, 18, 22, 32]
    assert discriminants(12) == [2, 6, 8, 10, 18, 22, 24, 28, 30, 32, 40, 50, 54, 72]


def test_excluded_occurring_pairs_m4():
    pairs = {(k.kappa_prim_sq, k.s) for k in excluded_heegner(4, 1, 2)}
    assert pairs == {(-2, 1), (-6, 3), (-24, 3)}


def test_finiteness_bound():
    from hkpell.lattice import heegner_finiteness_bound
    for (m, n, gamma) in [(2, 1, 1), (2, 3, 2), (4, 1, 2), (8, 1, 2), (2, 7, 1)]:
        for k in excluded_heegner(m, n, gamma):
            assert abs(k.kappa_prim_sq) <= heegner_finiteness_bound(m, n, gamma, k.d)


def _oracle_agrees(m, n, gamma, bound):
    p = m - 1
    squares = set()
    for wc in wall_constraints(m):
        b = 1
        while b * b <= abs(wc.kappa_sq):
            if wc.kappa_sq % (b * b) == 0 and (wc.kappa_sq // (b * b)) % 2 == 0:
                squares.add(wc.kappa_sq // (b * b))
            b += 1
    oracle = coordinate_oracle(m, n, gamma, bound, frozenset(squares))
    analytic = excluded_heegner(m, n, gamma)
    model = polarized_model(m, n, gamma)
    for key in analytic:
        amb = _ambient_div(model, key.star, key.s)
        assert (key.kappa_prim_sq, key.s, key.star, amb) in oracle, key
    for (k2, s, star, amb) in oracle:
        qualifies = False
        for wc in wall_constraints(m):
            if wc.kappa_sq % k2 == 0:
                ratio = wc.kappa_sq // k2
                b = 1
                while b * b <= ratio:
                    if b * b == ratio and (b * amb) % (2 * p) == 0:
                        qualifies = True
                    b += 1
        if qualifies:
            assert _key(model, k2, s, star) in analytic, (k2, s, star, amb)


def test_oracle_agreement_small():
    _oracle_agrees(2, 1, 1, 8)
    _oracle_agrees(2, 3, 2, 8)
    _oracle_agrees(4, 1, 2, 8)


def _parent_ambient_div(m, gamma, a, b, c):
    """_ambient_div_coords as it was, one branch per divisibility."""
    if gamma == 1:
        return gcd(a, 2 * (m - 1) * b, c)
    return gcd((m - 1) * a, b, c)


def test_ambient_divisibility_is_the_parent_branch_at_gamma_1_and_2():
    for m, n, gamma in _valid_params(range(2, 21), range(1, 21)):
        model = polarized_model(m, n, gamma)
        for a in range(-6, 7):
            for b in range(-6, 7):
                for c in range(7):
                    assert _ambient_div_coords(model, a, b, c) == \
                        _parent_ambient_div(m, gamma, a, b, c), (m, n, gamma, a, b, c)


def test_oracle_matches_the_analytic_classes_past_gamma_2():
    # every (m, n, gamma > 2) with m, n <= 20 and one moduli component: the
    # box of bound 20 realizes exactly the analytic classes of square in
    # [-40, 0), with their ambient divisibility (bound 16 leaves (19, 18, 6)
    # one class short)
    squares = frozenset(range(-40, 0, 2))
    cells = [(m, n, gamma) for m in range(2, 21) for n in range(1, 21)
             for gamma in divisors(gcd(2 * n, 2 * m - 2))
             if gamma > 2 and 0 < len(polarization_classes(m, n, gamma)) <= 2]
    assert len(cells) == 36
    for cell in cells:
        model = polarized_model(*cell)
        analytic = {(k2, s, star, amb) for k2 in squares for s, star, amb in _realizable(model, k2)}
        assert coordinate_oracle(*cell, 20, squares) == analytic, cell


def test_oracle_builds_no_table_of_the_group(monkeypatch):
    # the group has order 4 * 10^5; each box point names its class itself
    def whole_group(*_):
        raise AssertionError("coordinate_oracle enumerated the discriminant group")

    monkeypatch.setattr(DiscGroup, "elements", whole_group)
    assert coordinate_oracle(2, 10 ** 5, 1, 2)


def test_period_image_is_not_stated_past_gamma_2():
    with pytest.raises(UnsupportedParameters, match="divisibility 3 > 2"):
        excluded_heegner(4, 6, 3)
    with pytest.raises(BadCongruence):  # 1 + 3k^2 = 0 (mod 9) has no root
        excluded_heegner(4, 3, 3)


def test_oracle_realizes_star_classes():
    quads = coordinate_oracle(2, 1, 1, 6)
    assert any(k2 == -2 and s == 1 for k2, s, star, amb in quads)
    assert any(k2 == -2 and s == 2 for k2, s, star, amb in quads)
    quads = coordinate_oracle(2, 3, 2, 6, frozenset({-2}))
    stars = {(s, star) for k2, s, star, amb in quads}
    assert (1, (0,)) in stars
    assert coordinate_oracle(2, 3, 2, 0) == frozenset()


def test_bad_congruence_is_shared():
    # the cone and period layers raise the one arith.BadCongruence
    for call in (lambda: cones.fourfold_cones(5, 5), lambda: periods.excluded_heegner(2, 2, 2)):
        with pytest.raises(BadCongruence) as exc:
            call()
        assert exc.type is BadCongruence


def test_hilbert_square_points():
    assert hilbert_square_point(3, 7) == (5, 2, 2)
    assert hilbert_square_points(3, 13) == ((7, 2, 2), (137, 38, 2))
    assert hilbert_square_point(11, 4) is None
    assert hilbert_square_points(11, 4) == ((5, 3, 1),)
    assert hilbert_square_point(11, 4, gamma=1) == (5, 3, 1)


def test_hilbert_square_identities():
    for n in (1, 2, 3, 5, 7, 11):
        for e in range(1, 40):
            for a, b, gamma in hilbert_square_points(n, e):
                assert a * a - e * b * b == -n
                assert gcd(a, b) == 1
                # b*L - a*delta has square 2n and divisibility gamma
                assert 2 * e * b * b - 2 * a * a == 2 * n
                assert gcd(b, 2 * a) == gamma
                nu = cones.walls_s2(e).nef_slope
                assert Fraction(a, b) ** 2 < nu.squared() or \
                    (nu.squared() == e and Fraction(a, b) ** 2 < e)


def _hilbert_square_points_by_b_scan(n, e, b_max):
    """hilbert_square_points by a scan over b <= b_max, or None when the
    admissible b may exceed b_max: a^2/b^2 = e - n/b^2 < nu^2 needs
    b^2 < n/(e - nu^2), and for e = r^2, n = (rb - a)(rb + a) needs b <= n."""
    nu_sq = cones.walls_s2(e).nef_slope.squared()
    if (nu_sq == e and n > b_max) or (nu_sq < e and (e - nu_sq) * b_max * b_max < n):
        return None
    out = []
    for b in range(1, b_max + 1):
        a_sq = e * b * b - n
        a = isqrt(max(a_sq, 0))
        if a > 0 and a * a == a_sq and gcd(a, b) == 1 and Fraction(a, b) ** 2 < nu_sq:
            out.append((a, b, 2 if b % 2 == 0 else 1))
    return tuple(out)


def test_hilbert_square_points_match_a_b_scan():
    compared = 0
    for n in range(1, 21):
        for e in range(1, 201):
            scan = _hilbert_square_points_by_b_scan(n, e, 300)
            if scan is not None:
                assert hilbert_square_points(n, e) == scan, (n, e)
                compared += 1
    assert compared > 2500


def test_hilbert_square_points_near_the_isotropic_ray():
    # the nef slope lies so close to sqrt(e) that a b-scan would run to
    # about 4*10^19 at e = 397; the Pell stream stops at its first solution
    # past the nef slope
    start = time.perf_counter()
    assert hilbert_square_points(1, 397) == ((20478302982, 1027776565, 1),)
    assert hilbert_square_points(1, 157) == ((4832118, 385645, 1),)
    assert time.perf_counter() - start < 1.0


def test_nl_family():
    assert nl_family(3, 2, 3) == (1, 7, 13)
    assert nl_family(1, 1, 3) == (2, 10)
    assert nl_family(7, 2, 0) == (2,)
    with pytest.raises(BadCongruence):
        nl_family(2, 2, 3)


def test_nl_family_slope_inequality():
    for n, gamma in [(1, 1), (2, 1), (3, 2), (7, 2), (5, 1)]:
        emitted = set(nl_family(n, gamma, 8))
        for a in range(0 if gamma == 2 else 1, 9):
            e = a * a + n if gamma == 1 else a * a + a + (n + 1) // 4
            if e not in emitted:
                continue
            nu = cones.walls_s2(e).nef_slope
            bound = Fraction(a) if gamma == 1 else a + Fraction(1, 2)
            assert bound * bound < nu.squared(), (n, gamma, a, e)


def test_uncertain_flag():
    # n = 45 = 5 * 9: the 5-free part is not squarefree, so multiplicities
    # in the d = 2n/5 family are flagged
    rep = excluded_heegner_m2_report(45, 1)
    fam = [k for k in rep.keys if k.s == 10]
    assert fam and set(rep.uncertain) == set(fam)
    rep = excluded_heegner_m2_report(5, 1)
    assert rep.uncertain == ()
