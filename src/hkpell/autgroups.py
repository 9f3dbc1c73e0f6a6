"""Decision procedures for biregular and birational automorphism groups.

Inputs are the Picard-lattice data of the classified situations: Picard rank
one (K3 surfaces and their Hilbert powers) and the rank-2 fourfolds with
intersection form diag(2n, -2e').  Answers are group tags; Unknown records
which side of a necessary-versus-sufficient gap the parameters landed on.
"""

from __future__ import annotations

from math import gcd

from . import pell
from .arith import (BadCongruence, DomainError, Record, check_polarization, is_square,
                    is_square_mod)


class AutError(DomainError):
    pass


class InconsistentFlags(AutError):
    """The nef cone cannot have irrational rays while the movable cone is rational."""


class GroupTag(Record):
    __slots__ = ("kind", "reason")

    def __init__(self, kind: str, reason: str = ""):
        super().__init__(kind, reason)

    def __str__(self):
        return {
            "trivial": "1",
            "z2": "Z/2",
            "z2xz2": "(Z/2)^2",
            "infinite_cyclic": "Z",
            "infinite_dihedral": "Z x| Z/2",
            "unknown": "?",
        }[self.kind]

    @property
    def is_finite(self) -> bool:
        return self.kind in ("trivial", "z2", "z2xz2")


TRIVIAL = GroupTag("trivial")
Z2 = GroupTag("z2")
Z2XZ2 = GroupTag("z2xz2")
INFINITE_CYCLIC = GroupTag("infinite_cyclic")
INFINITE_DIHEDRAL = GroupTag("infinite_dihedral")


def unknown(reason: str) -> GroupTag:
    return GroupTag("unknown", reason)


def _solvable(e1: int, e2: int, t: int) -> bool:
    return pell.generalized_min(e1, e2, t) is not None


# ---------------------------------------------------------------------------
# Picard rank 1


def aut_k3_rank1(two_e: int) -> GroupTag:
    """Automorphisms of a K3 surface generated by a degree-2e ample class."""
    if two_e < 2 or two_e % 2:
        raise ValueError("the degree must be a positive even integer")
    return Z2 if two_e == 2 else TRIVIAL


def aut_s2(e: int) -> GroupTag:
    """Biregular automorphisms of the Hilbert square of a degree-2e K3 generator."""
    if e < 1:
        raise ValueError("e must be positive")
    if e == 1:
        return Z2
    if _solvable(1, e, -1) and not _solvable(1, 4 * e, 5):
        return Z2
    return TRIVIAL


def bir_s2(e: int) -> tuple[GroupTag, GroupTag]:
    """(Aut, Bir) of the Hilbert square of a degree-2e K3 generator."""
    if e < 1:
        raise ValueError("e must be positive")
    aut = aut_s2(e)
    if aut == Z2:
        return Z2, Z2
    neg = _solvable(1, e, -1)
    five = _solvable(1, 4 * e, 5)
    if e == 5 or (e > 1 and e % 5 != 0 and neg and five):
        return TRIVIAL, Z2
    return TRIVIAL, TRIVIAL


def bir_sm(e: int, m: int) -> GroupTag:
    """Birational automorphisms of the m-th Hilbert power, m >= 3, e > 1.

    The four necessary conditions for a nontrivial group are tested; they are
    also sufficient at m = e (the residual involution) and at (e, m) = (5, 3)
    (the Hilbert-cube involution), trivially violated at m in
    {e-1, e+1, e+2, e+3}, and undecided otherwise.
    """
    if e < 2 or m < 3:
        raise ValueError("need e >= 2 and m >= 3")
    p = m - 1
    if m == e:
        return Z2
    if (e, m) == (5, 3):
        return Z2
    if m in (e - 1, e + 1, e + 2, e + 3):
        return TRIVIAL
    if is_square(e * p):  # condition (a)
        return TRIVIAL
    if gcd(e, p) != 1:  # condition (b)
        return TRIVIAL
    if _solvable(p, e, 1):  # condition (c)
        return TRIVIAL
    a1, b1 = pell.fundamental_solution(e * p)
    if a1 % p not in (1 % p, (-1) % p):
        a1, b1 = a1 * a1 + e * p * b1 * b1, 2 * a1 * b1
    if a1 % (2 * e) not in (1, 2 * e - 1) or b1 % 2:  # condition (d)
        return TRIVIAL
    return unknown("necessary conditions hold")


# ---------------------------------------------------------------------------
# rank-2 fourfolds


def fourfold_groups(n: int, e_prime: int) -> tuple[GroupTag, GroupTag]:
    """(Aut, Bir) for fourfolds with Picard form diag(2n, -2e'), H of divisibility 2."""
    if n % 4 != 3:
        raise BadCongruence("n must be congruent to -1 mod 4")
    if e_prime < 2:
        raise ValueError("e' must be at least 2")
    neg = _solvable(n, e_prime, -1)
    five = _solvable(n, 4 * e_prime, -5)
    square = is_square(n * e_prime)
    if neg or square:
        return TRIVIAL, TRIVIAL
    infinite = INFINITE_DIHEDRAL if _solvable(n, e_prime, 1) else INFINITE_CYCLIC
    if five:
        return TRIVIAL, infinite
    return infinite, infinite


def very_general_bir(m: int, n: int, gamma: int) -> GroupTag:
    """Birational automorphisms of a very general polarized 2m-fold of Hilbert type."""
    check_polarization(m, n, gamma)
    if n == 1:
        return Z2
    if n == m - 1 == gamma and is_square_mod(-1 % (m - 1), m - 1):
        return Z2
    return TRIVIAL


FINITE_BOTH = "FiniteBoth"
FINITE_AUT_INFINITE_BIR = "FiniteAutInfiniteBir"
EQUAL_INFINITE = "EqualInfinite"


def rank2_trichotomy(nef_rational: bool, mov_rational: bool) -> str:
    """Classification of (Aut, Bir) finiteness from extremal-ray rationality."""
    if nef_rational and mov_rational:
        return FINITE_BOTH
    if nef_rational and not mov_rational:
        return FINITE_AUT_INFINITE_BIR
    if not nef_rational and not mov_rational:
        return EQUAL_INFINITE
    raise InconsistentFlags(
        "an irrational nef boundary forces the movable boundary to be irrational")
