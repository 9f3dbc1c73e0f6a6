"""The arith helpers refuse the inputs their docstrings exclude, and the
root scan, the factoring and the divisor helpers match independent
references."""

import math
import random
import time

import pytest
from sympy import factorint, isprime
from sympy.ntheory import sqrt_mod as sympy_sqrt_mod

from hkpell.arith import (PSI_13, _factor_within, divisors, is_prime, is_square_mod,
                          polarization_classes, prime_factors, sqrt_mod, square_divisors, v_p)


@pytest.mark.parametrize("call,bound", [
    (lambda: v_p(5, 1), "p >= 2"),
    (lambda: v_p(5, -1), "p >= 2"),
    (lambda: v_p(5, 0), "p >= 2"),
    (lambda: is_square_mod(2, 0), "n >= 1"),
    (lambda: is_square_mod(2, -7), "n >= 1"),
    (lambda: sqrt_mod(2, 0), "n >= 1"),
    (lambda: divisors(0), "n != 0"),
    (lambda: square_divisors(0), "n != 0"),
])
def test_out_of_domain_raises(call, bound):
    with pytest.raises(ValueError, match=bound):
        call()


def test_in_domain_values():
    assert v_p(-40, 2) == 3 and v_p(7, 5) == 0
    assert is_square_mod(2, 7) and not is_square_mod(3, 7) and is_square_mod(5, 1)
    assert divisors(-12) == (1, 2, 3, 4, 6, 12)
    assert square_divisors(-72) == (1, 2, 3, 6)
    assert list(sqrt_mod(4, 32)) == [2, 6, 10, 14, 18, 22, 26, 30]
    assert list(sqrt_mod(-1, 1)) == [0] and list(sqrt_mod(3, 7)) == []


def _roots(a, n):
    return sorted(sympy_sqrt_mod(a, n, all_roots=True))


def test_sqrt_mod_matches_sympy():
    # every root in ascending order: the contract a faster root finder
    # (per prime, lifted and recombined) must keep
    for n in range(1, 301):
        for a in range(n):
            roots = _roots(a, n)
            assert list(sqrt_mod(a, n)) == roots, (a, n)
            assert is_square_mod(a, n) == bool(roots), (a, n)
    # larger moduli, log-uniform up to 10**6, each with a square, so that
    # roots exist, shifted by up to -3n, so that sqrt_mod reduces it
    rng = random.Random(2000)
    for _ in range(200):
        n = round(10 ** rng.uniform(2.5, 6))
        a = rng.randrange(n) ** 2 - n * rng.randrange(4)
        assert list(sqrt_mod(a, n)) == _roots(a % n, n), (a, n)


@pytest.mark.parametrize("a,n", [(2, 5 * 999999999989), (10, 3 * 999999999989)])
def test_is_square_mod_rules_out_a_non_residue_mod_an_odd_prime_at_once(a, n):
    # 999999999989 is prime; 2 is no square mod 5, and 10 is a square mod 3
    # but not mod 999999999989, so the second case reaches the large prime.
    # A scan of the n residues would not end.
    start = time.perf_counter()
    assert not is_square_mod(a, n)
    assert time.perf_counter() - start < 1.0


def test_a_small_root_comes_out_before_n_is_factored():
    # 2^61 - 1 is prime: factoring it by trial division would take about
    # 7.6 * 10^8 divisions.  1 and 2^60 are perfect squares, so is_square_mod
    # answers at once (a scan of the z <= sqrt(n) would reach the root 2^30
    # of 2^60 only after some 10^9 residues), and 2 is the third residue
    # sqrt_mod scans
    n = 2**61 - 1
    start = time.perf_counter()
    assert is_square_mod(1, 4 * n) and next(sqrt_mod(4 * n + 4, 4 * n)) == 2
    assert is_square_mod(2**60, n)
    assert time.perf_counter() - start < 1.0


def test_is_square_mod_matches_a_scan():
    # the local rule at every prime power of n, against the set of squares
    for n in range(1, 700):
        squares = {z * z % n for z in range(n)}
        for a in range(n):
            assert is_square_mod(a, n) == (a in squares), (a, n)


# 125000000039 = 7 (mod 8) and 111000000049 are prime, and 5, 3 and 6 are
# squares modulo them; none of 5, 3 and 6 is a perfect square, and a scan of
# all n residues would not end, so only the local rule at 2 or 3 answers
@pytest.mark.parametrize("decide", [
    # 5 is no square mod 8
    lambda: is_square_mod(5, 8 * 125000000039),
    # 3 has odd valuation below that of 9 at the prime 3 of a
    lambda: is_square_mod(3, 9 * 111000000049),
    # so has 6, at the prime 3 that sqrt_mod's a and n share
    lambda: next(sqrt_mod(6, 9 * 111000000049), False),
])
def test_the_local_rule_refutes_at_one_prime_of_a_large_n(decide):
    start = time.perf_counter()
    assert decide() is False
    assert time.perf_counter() - start < 1.0


def test_is_prime_matches_sympy():
    for n in range(-5, 5000):
        assert is_prime(n) == isprime(n), n


def test_prime_factors_match_sympy():
    # trial division alone below 10^6; above it Miller-Rabin, exact below
    # PSI_13, and Pollard-Brent rho for every composite cofactor.  The last n
    # is a composite past PSI_13: a Miller-Rabin witness proves it composite,
    # so rho splits it, where trial division would run to 2^31 - 1
    rng = random.Random(2017)
    past_psi_13 = (2**31 - 1) * (2**61 - 1)
    assert past_psi_13 > PSI_13
    for n in [*range(1, 20000), *(rng.randrange(1, 10**24) for _ in range(60)), past_psi_13]:
        assert prime_factors(n) == tuple(sorted(factorint(n).items())), n
        assert is_prime(n) == isprime(n), n


def test_bounded_factoring_is_exact_or_gives_up():
    # pell.generalized_min's squares test bounds each rho split and gives up
    # on a strong probable prime past PSI_13; whatever comes back is exact.
    # d = 1000000000789 * 822307006733 needs about 10^6 steps to split
    rng = random.Random(1980)
    d = 822307007381800228312337
    assert _factor_within(d, 1017) is None
    assert _factor_within(4000000000080000000000401, 10**6) is None
    for n in [d, *(rng.randrange(1, 10**24) for _ in range(30))]:
        for steps in (0, 1000, 10**5):
            assert _factor_within(n, steps) in (None, prime_factors(n)), (n, steps)


def _trial_divisors(n):
    """Positive divisors of n != 0 by trial division up to sqrt|n|."""
    n = abs(n)
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return tuple(small + large[::-1])


def _trial_square_divisors(n):
    return tuple(f for f in _trial_divisors(n) if abs(n) % (f * f) == 0)


def test_divisors_match_trial_division():
    for n in range(1, 5001):
        for signed in (n, -n):
            assert divisors(signed) == _trial_divisors(signed), signed
            assert square_divisors(signed) == _trial_square_divisors(signed), signed


def _scanned_polarization_classes(m, n, gamma):
    """polarization_classes as it was: a scan of all gamma residues."""
    return tuple(k for k in range(gamma)
                 if math.gcd(k, gamma) == 1 and not (n + (m - 1) * k * k) % (gamma * gamma))


def test_polarization_classes_match_the_scan_of_every_residue():
    # the Chinese remainder over the prime powers of gamma finds the same
    # classes, in the same order, for every gamma dividing 2n and 2m - 2
    cells = 0
    for m in range(2, 61):
        for n in range(1, 61):
            for gamma in divisors(math.gcd(2 * n, 2 * m - 2)):
                assert polarization_classes(m, n, gamma) == \
                    _scanned_polarization_classes(m, n, gamma), (m, n, gamma)
                cells += 1
    assert cells == 9857
