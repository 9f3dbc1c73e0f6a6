"""Decision procedures for biregular and birational automorphism groups.

Inputs are the Picard-lattice data of the classified situations: Picard rank
one (K3 surfaces and their Hilbert powers) and the rank-2 fourfolds with
intersection form diag(2n, -2e').  Answers are group tags; Unknown records
which side of a necessary-versus-sufficient gap the parameters landed on.
"""

from math import gcd

from . import pell
from .arith import Record, check_polarization


class GroupTag(Record):
    __slots__ = ("kind", "reason")

    def __init__(self, kind: str, reason: str = ""):
        super().__init__(kind, reason)

    def __str__(self):
        return {
            "trivial": "1",
            "z2": "Z/2",
            "infinite_cyclic": "Z",
            "infinite_dihedral": "Z x| Z/2",
            "unknown": "?",
        }[self.kind]

    @property
    def is_finite(self) -> bool:
        return self.kind in ("trivial", "z2")


TRIVIAL = GroupTag("trivial")
Z2 = GroupTag("z2")
INFINITE_CYCLIC = GroupTag("infinite_cyclic")
INFINITE_DIHEDRAL = GroupTag("infinite_dihedral")


def unknown(reason: str) -> GroupTag:
    return GroupTag("unknown", reason)


# ---------------------------------------------------------------------------
# Picard rank 1


def aut_k3_rank1(two_e: int) -> GroupTag:
    """Automorphisms of a K3 surface generated by a degree-2e ample class."""
    if two_e < 2 or two_e % 2:
        raise ValueError("the degree must be a positive even integer")
    return Z2 if two_e == 2 else TRIVIAL


def bir_s2(e: int) -> tuple[GroupTag, GroupTag]:
    """(Aut, Bir) of the Hilbert square of a degree-2e K3 generator, asking
    a^2 - e*b^2 = -1 and a^2 - 4e*b^2 = 5 at most once each, of
    pell.generalized_min: its local tests, mod 8 and mod e or 4e, refuse
    before any unit is built, so a large e answers wherever they do."""
    if e < 1:
        raise ValueError("e must be positive")
    if e == 1:
        return Z2, Z2
    if pell.generalized_min(1, e, -1) is None:
        return TRIVIAL, TRIVIAL
    if pell.generalized_min(1, 4 * e, 5) is None:
        return Z2, Z2
    return TRIVIAL, Z2 if e == 5 or e % 5 else TRIVIAL


def bir_sm(e: int, m: int) -> GroupTag:
    """Birational automorphisms of the m-th Hilbert power, m >= 3, e > 1.

    The group is Z/2 at m = e (the residual involution) and at (e, m) = (5, 3)
    (the Hilbert-cube involution).  Elsewhere a nontrivial group needs four
    conditions: (a) e(m-1) is no square, (b) gcd(e, m-1) = 1, (c)
    (m-1)a^2 - e*b^2 = 1 is unsolvable, and (d) the least unit
    a1 + b1*sqrt(e(m-1)) with a1 = +-1 mod m-1 has a1 = +-1 mod 2e.  The
    group is trivial when one fails and undecided when all hold.

    (d) asks no parity of b1: with (b) and a1 = +-1 mod 2e, b1 is even.  For
    odd p = m-1, a1 = 2ek +- 1 gives p*b1^2 = 4k(ek +- 1); for even p,
    a1 = +-1 mod p gives v2(a1^2 - 1) >= v2(p) + 1.

    The conditions alone decide m in {e-1, e+1, e+2, e+3}:
    - m = e+1: (b) fails, as gcd(e, e) = e >= 2;
    - m = e+2: (1, 1) solves (m-1)a^2 - e*b^2 = 1, so (c) fails;
    - m = e-1 and m = e+3: (b) fails for even e.  For odd e,
      e(e-+2) = (e-+1)^2 - 1 is no square, and the unit of
      a^2 - e(e-+2)b^2 = 1 is (e-+1, 1), with e-+1 = 1 mod m-1; so unless
      (c) fails, the ray is (e-+1, e), and e-+1 is not +-1 mod 2e because
      m >= 3 forces e >= 3: (d) fails.
    """
    if e < 2 or m < 3:
        raise ValueError("need e >= 2 and m >= 3")
    if m == e or (e, m) == (5, 3):
        return Z2
    if gcd(e, m - 1) != 1:  # condition (b)
        return TRIVIAL
    from .cones import mov_ray_sm  # only here: aut s2 loads no fractions

    ray, case = mov_ray_sm(e, m)
    # the case is "isotropic" under condition (a) and "two-term" under (c);
    # otherwise the ray is (a1, e*b1), the unit that (d) reads
    if case != "congruence" or ray.c_l % (2 * e) not in (1, 2 * e - 1):
        return TRIVIAL
    return unknown("necessary conditions hold")


# ---------------------------------------------------------------------------
# rank-2 fourfolds


def fourfold_groups(n: int, e_prime: int) -> tuple[GroupTag, GroupTag]:
    """(Aut, Bir) for fourfolds with Picard form diag(2n, -2e'), H of divisibility 2.

    Read off the rays of cones.fourfold_cones: a rational movable ray gives
    (1, 1); otherwise Bir is Z x| Z/2 when n*a^2 - e'*b^2 = 1 is solvable and
    Z when it is not, and Aut is trivial when the nef ray is rational and Bir
    when it is not.  An irrational nef ray with a rational movable one cannot
    occur: the report's nef ray is its first wall, or the movable ray itself.
    """
    from .cones import fourfold_cones  # only here: aut s2 loads no fractions

    rep = fourfold_cones(n, e_prime, prefix=1)
    if rep.mov_slope.is_rational:
        return TRIVIAL, TRIVIAL
    bir = INFINITE_DIHEDRAL if pell.generalized_min(n, e_prime, 1) is not None else INFINITE_CYCLIC
    return (TRIVIAL if rep.nef_slope.is_rational else bir), bir


def very_general_bir(m: int, n: int, gamma: int) -> GroupTag:
    """Birational automorphisms of a very general polarized 2m-fold of Hilbert type."""
    check_polarization(m, n, gamma)
    # n = m - 1 = gamma passes the check only where -1 is a square mod m - 1
    if n == 1 or n == m - 1 == gamma:
        return Z2
    return TRIVIAL

