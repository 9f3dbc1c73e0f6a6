"""Each layer refuses an input outside its domain with a typed error."""

import re

import pytest

from hkpell import arith, autgroups, cones, lattice, pell, periods, rrinv
from hkpell.lattice import LatticeSpec, NoDoubleU, OrbitKey, U
from hkpell.pell import PellSolution, WrongEquation
from hkpell.rrinv import OddSquare

DOMAIN_ERRORS = [
    pytest.param(lambda: arith.prime_factors(0), ValueError, "needs n >= 1",
                 id="prime_factors(0)"),
    pytest.param(lambda: arith.v_p(0, 3), ValueError, "valuation of 0", id="v_p(0, 3)"),
    pytest.param(lambda: arith.binomial_poly(5, -1), ValueError, "lower index must be >= 0",
                 id="binomial_poly(5, -1)"),
    pytest.param(lambda: autgroups.aut_k3_rank1(3), ValueError, "positive even integer",
                 id="aut_k3_rank1(3)"),
    pytest.param(lambda: autgroups.bir_s2(0), ValueError, "e must be positive", id="bir_s2(0)"),
    pytest.param(lambda: autgroups.bir_sm(1, 3), ValueError, "need e >= 2 and m >= 3",
                 id="bir_sm(1, 3)"),
    pytest.param(lambda: cones.nef_ray_sm_special(0, 2), ValueError, "need e >= 1 and m >= 2",
                 id="nef_ray_sm_special(0, 2)"),
    pytest.param(lambda: cones.fourfold_cones(3, 1), ValueError, "e' must be at least 2",
                 id="fourfold_cones(3, 1)"),
    pytest.param(lambda: cones.k_very_ample(0, 1, 0), ValueError, "need a >= 1, e >= 1, k >= 0",
                 id="k_very_ample(0, 1, 0)"),
    pytest.param(lambda: cones.hilb_embedding_status(1, 1, 1), ValueError,
                 "need a >= 1, e >= 1, m >= 2", id="hilb_embedding_status(1, 1, 1)"),
    pytest.param(lambda: lattice.I1(3), ValueError, "nonzero even t", id="I1(3)"),
    pytest.param(lambda: lattice.k3_polarized_orthogonal(0), ValueError, "e must be positive",
                 id="k3_polarized_orthogonal(0)"),
    pytest.param(lambda: lattice.hilbert_scheme_lattice(1), ValueError, "m must be at least 2",
                 id="hilbert_scheme_lattice(1)"),
    pytest.param(lambda: lattice.monodromy_index(1), ValueError, "m must be at least 2",
                 id="monodromy_index(1)"),
    pytest.param(lambda: lattice.heegner_finiteness_bound(2, 1, 1, -1), ValueError,
                 "d must be nonnegative", id="heegner_finiteness_bound(2, 1, 1, -1)"),
    pytest.param(lambda: pell.fundamental_solution(0), ValueError, "d must be positive",
                 id="fundamental_solution(0)"),
    pytest.param(lambda: list(pell.generalized_solutions(1, 2, 1, 0)), ValueError,
                 "count must be positive", id="generalized_solutions(1, 2, 1, 0)"),
    pytest.param(lambda: pell.compose_to_unit(2, 3, 2, PellSolution(1, 1)), ValueError,
                 "eps must be +-1", id="compose_to_unit eps = 2"),
    pytest.param(lambda: pell.compose_to_unit(2, 3, -1, PellSolution(11, 9)), ValueError,
                 "is not the minimal solution", id="compose_to_unit not minimal"),
    pytest.param(lambda: periods.hilbert_square_points(0, 1), ValueError,
                 "need n >= 1 and e >= 1", id="hilbert_square_points(0, 1)"),
    pytest.param(lambda: periods.nl_family(1, 1, -1), ValueError, "a_max must be nonnegative",
                 id="nl_family(1, 1, -1)"),
    pytest.param(lambda: rrinv.h0_polarized(1, 1), ValueError, "need m >= 2 and n >= 1",
                 id="h0_polarized(1, 1)"),
    pytest.param(lambda: rrinv.fujiki_constant("X", 2), ValueError, "unknown series 'X'",
                 id="fujiki_constant('X', 2)"),
    pytest.param(lambda: rrinv.fujiki_constant("HilbK3", 0), ValueError, "m must be at least 1",
                 id="fujiki_constant('HilbK3', 0)"),
    pytest.param(lambda: rrinv.betti2("X"), ValueError, "unknown series 'X'", id="betti2('X')"),
    pytest.param(lambda: lattice.exists_primitive_vector(LatticeSpec((U,)), OrbitKey(-2, 1)),
                 NoDoubleU, "requires two hyperbolic planes", id="exists_primitive_vector in U"),
    pytest.param(lambda: pell.compose_to_unit(2, 3, -1, PellSolution(2, 1)), WrongEquation,
                 "does not solve 2a^2-3b^2=-1", id="compose_to_unit off the equation"),
    pytest.param(lambda: rrinv.top_self_intersection("HilbK3", 2, 3), OddSquare,
                 "the square q must be even", id="top_self_intersection odd square"),
]


@pytest.mark.parametrize("call,error,fragment", DOMAIN_ERRORS)
def test_domain_errors_are_typed(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
