"""Multiplicative orders of the Zhang-Liu family, closed form and brute force.

The closed form never builds a matrix:

* x^2 != 1: the order of q_matrix(y, x, n) equals the order of the element
  x^2 (every eigenvalue is a power of x^2 and x^2 itself appears), which is
  infinite over the rationals.
* x^2 = 1 and y = 0: the matrix is the identity, order 1.
* x^2 = 1 and y != 0: the matrix is unit upper triangular and nontrivial;
  its order is the characteristic p in positive characteristic (it equals a
  first-kind Pascal matrix, whose powers follow the additive law) and
  infinite over the rationals.

The y = 0 branch refines the two x^2 = 1 cases, which otherwise would
report q or infinity for the identity matrix.

``q_order_bruteforce`` is the independent oracle: repeated multiplication
until the identity shows up or a cap is hit.  ``Exceeded`` is reported as
its own outcome and is never folded into "infinite".
"""

from __future__ import annotations

from .errors import InfiniteField, check_cap, check_params
from .fields import FieldElement, OrderResult, multiplicative_order
from .matrices import identity, q_matrix


def q_order(y: FieldElement, x: FieldElement, n: int) -> OrderResult:
    """Closed-form order of q_matrix(y, x, n); independent of n."""
    check_params(n, x, y=y)
    f = x.field
    x2 = x * x
    if x2 != f.one():
        return multiplicative_order(x2)
    if y.is_zero():
        return OrderResult.finite(1)
    if f.characteristic:
        return OrderResult.finite(f.characteristic)
    return OrderResult.infinite()


def default_cap(x: FieldElement, n: int) -> int:
    """Safe brute-force cap for a finite field: characteristic * q^n."""
    f = x.field
    if not f.is_finite:
        raise InfiniteField("no default cap over an infinite field; pass one explicitly")
    return f.characteristic * f.order**n


def q_order_bruteforce(
    y: FieldElement, x: FieldElement, n: int, cap: int | None = None
) -> OrderResult:
    """Order by repeated multiplication: least m <= cap with Q^m = I.

    Returns Exceeded(cap) if the identity never shows up within the cap.
    Over a finite field the default cap (characteristic * q^n) always
    suffices; over the rationals a cap must be given.
    """
    check_params(n, x, y=y)
    if cap is None:
        cap = default_cap(x, n)
    check_cap(cap)
    q = q_matrix(y, x, n)
    eye = identity(x.field, n)
    power = q
    for m in range(1, cap + 1):
        if power == eye:
            return OrderResult.finite(m)
        power = power @ q
    return OrderResult.exceeded(cap)


def p1_order(y: FieldElement, n: int) -> OrderResult:
    """Order of p1_matrix(y, n), that is q_order(y, 1, n)."""
    return q_order(y, y.field.one(), n)


def p2_order(x: FieldElement, n: int) -> OrderResult:
    """Order of p2_matrix(x, n), that is q_order(1, x, n)."""
    return q_order(x.field.one(), x, n)


def oracle_agrees(formula: OrderResult, oracle: OrderResult) -> bool:
    """Consistency of a closed-form order with a brute-force outcome.

    An Exceeded oracle only contradicts a finite formula value within the
    cap; it is consistent with an infinite formula (the scan is
    inconclusive, not a counterexample).
    """
    if oracle.is_finite:
        return formula.is_finite and formula.value == oracle.value
    if oracle.is_exceeded:
        return formula.is_infinite or (formula.is_finite and formula.value > oracle.value)
    return formula.is_infinite
