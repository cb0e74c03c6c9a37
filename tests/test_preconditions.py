"""Library preconditions: each entry point raises the typed error with the
text the CLI prints, and reports n, then x = 0, then y and x in different
fields, as the CLI does."""

import pytest

from zhangliu import (
    InfiniteField,
    MixedFields,
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
    z_parameter,
)
from zhangliu.census import census_rows

F5 = make_prime_field(5)
ONE, TWO, ZERO = F5.one(), F5.element(2), F5.zero()
ONE_IN_GF7 = make_prime_field(7).one()

# entry point -> (a call on n, x and y, the least n it accepts)
ENTRY_POINTS = {
    "q_matrix": (lambda n, x, y=ONE: q_matrix(y, x, n), 1),
    "d_matrix": (lambda n, x, y=ONE: d_matrix(x, n), 1),
    "q_order": (lambda n, x, y=ONE: q_order(y, x, n), 2),
    "q_order_bruteforce": (lambda n, x, y=ONE: q_order_bruteforce(y, x, n), 2),
    "is_diagonalizable": (lambda n, x, y=ONE: is_diagonalizable(y, x, n), 2),
    "factorize_q": (lambda n, x, y=ONE: factorize_q(y, x, n), 2),
    "eigenpairs": (lambda n, x, y=ONE: eigenpairs(y, x, n), 2),
    "z_parameter": (lambda n, x, y=ONE: z_parameter(y, x), None),
    "census_rows": (lambda n, x, y=ONE: census_rows(F5, n), 2),
}
TAKES_N = [name for name, (_, minimum) in ENTRY_POINTS.items() if minimum is not None]
TAKES_X = [name for name in ENTRY_POINTS if name not in ("d_matrix", "census_rows")]


def _raises(cls, message, call, *args, **kwargs):
    with pytest.raises(cls) as info:
        call(*args, **kwargs)
    assert type(info.value) is cls and str(info.value) == message
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("name", TAKES_N)
@pytest.mark.parametrize("x", [TWO, ZERO], ids=["x=2", "x=0"])
def test_n_below_the_minimum_is_reported_first(name, x):
    call, minimum = ENTRY_POINTS[name]
    _raises(OutOfRange, f"n must be >= {minimum}", call, minimum - 1, x, y=ONE_IN_GF7)


@pytest.mark.parametrize("name", TAKES_X)
def test_x_zero(name):
    call, minimum = ENTRY_POINTS[name]
    _raises(ZeroParameter, "x must be nonzero", call, minimum, ZERO)
    _raises(ZeroParameter, "x must be nonzero", call, minimum, ZERO, y=ONE_IN_GF7)


@pytest.mark.parametrize("name", TAKES_X)
def test_y_and_x_in_different_fields(name):
    call, minimum = ENTRY_POINTS[name]
    _raises(MixedFields, "y and x must share a field", call, minimum, TWO, y=ONE_IN_GF7)


def test_cap_below_one():
    _raises(OutOfRange, "cap must be >= 1", q_order_bruteforce, ONE, TWO, 2, cap=0)
    _raises(OutOfRange, "cap must be >= 1", census_rows, F5, 2, [], cap=0)


def test_census_over_an_infinite_field():
    _raises(InfiniteField, "census requires a finite field", census_rows, make_rational_field(), 2)
    _raises(InfiniteField, "census requires a finite field", census_rows, make_rational_field(), 1)
