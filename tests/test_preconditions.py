"""Library preconditions: each entry point raises the typed error with the
text the CLI prints, and reports n before x, as the CLI does."""

import pytest

from zhangliu import (
    InfiniteField,
    OutOfRange,
    ZeroParameter,
    d_matrix,
    eigenpairs,
    factorize_q,
    is_diagonalizable,
    make_prime_field,
    make_rational_field,
    q_matrix,
    q_order,
    q_order_bruteforce,
)
from zhangliu.census import census_rows

F5 = make_prime_field(5)
ONE, TWO, ZERO = F5.one(), F5.element(2), F5.zero()

# entry point -> (a call on n and x, the least n it accepts)
ENTRY_POINTS = {
    "q_matrix": (lambda n, x: q_matrix(ONE, x, n), 1),
    "d_matrix": (lambda n, x: d_matrix(x, n), 1),
    "q_order": (lambda n, x: q_order(ONE, x, n), 2),
    "q_order_bruteforce": (lambda n, x: q_order_bruteforce(ONE, x, n), 2),
    "is_diagonalizable": (lambda n, x: is_diagonalizable(ONE, x, n), 2),
    "factorize_q": (lambda n, x: factorize_q(ONE, x, n), 2),
    "eigenpairs": (lambda n, x: eigenpairs(ONE, x, n), 2),
    "census_rows": (lambda n, x: census_rows(F5, n), 2),
}


def _raises(cls, message, call, *args, **kwargs):
    with pytest.raises(cls) as info:
        call(*args, **kwargs)
    assert type(info.value) is cls and str(info.value) == message
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("x", [TWO, ZERO], ids=["x=2", "x=0"])
def test_n_below_the_minimum_is_reported_first(name, x):
    call, minimum = ENTRY_POINTS[name]
    _raises(OutOfRange, f"n must be >= {minimum}", call, minimum - 1, x)


@pytest.mark.parametrize("name", [name for name in ENTRY_POINTS if name not in ("d_matrix", "census_rows")])
def test_x_zero(name):
    call, minimum = ENTRY_POINTS[name]
    _raises(ZeroParameter, "x must be nonzero", call, minimum, ZERO)


def test_cap_below_one():
    _raises(OutOfRange, "cap must be >= 1", q_order_bruteforce, ONE, TWO, 2, cap=0)
    _raises(OutOfRange, "cap must be >= 1", census_rows, F5, 2, [], cap=0)


def test_census_over_an_infinite_field():
    _raises(InfiniteField, "census requires a finite field", census_rows, make_rational_field(), 2)
    _raises(InfiniteField, "census requires a finite field", census_rows, make_rational_field(), 1)
