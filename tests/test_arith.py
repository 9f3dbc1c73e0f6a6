"""The arith helpers refuse the inputs their docstrings exclude."""

import pytest

from hkpell.arith import divisors, is_square_mod, square_divisors, v_p


@pytest.mark.parametrize("call,bound", [
    (lambda: v_p(5, 1), "p >= 2"),
    (lambda: v_p(5, -1), "p >= 2"),
    (lambda: v_p(5, 0), "p >= 2"),
    (lambda: is_square_mod(2, 0), "n >= 1"),
    (lambda: is_square_mod(2, -7), "n >= 1"),
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
