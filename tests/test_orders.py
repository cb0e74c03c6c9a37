"""Order formula vs brute force, specializations, characteristic-zero cases."""

from fractions import Fraction

import pytest

from zhangliu import (
    MixedFields,
    OrderResult,
    ZeroParameter,
    identity,
    is_diagonalizable,
    make_extension_field,
    make_prime_field,
    make_rational_field,
    multiplicative_order,
    oracle_agrees,
    p1_matrix,
    p1_order,
    p2_matrix,
    p2_order,
    q_matrix,
    q_order,
    q_order_bruteforce,
)
from zhangliu.selftest import check_dimension_independence, check_order_formula, check_specialized_orders

GF = make_prime_field
QQ = make_rational_field()


def test_q_order_examples():
    f5 = GF(5)
    assert q_order(f5.element(1), f5.element(2), 3) == OrderResult.finite(2)
    f3 = GF(3)
    assert q_order(f3.element(1), f3.element(1), 2) == OrderResult.finite(3)
    assert q_order(QQ.element(1), QQ.element(2), 2) == OrderResult.infinite()
    assert q_order(f3.zero(), f3.element(2), 2) == OrderResult.finite(1)  # 2 = -1 mod 3, Q = I
    with pytest.raises(ZeroParameter):
        q_order(f5.element(1), f5.zero(), 2)
    with pytest.raises(ValueError):
        q_order(f5.element(1), f5.element(2), 1)


def test_bruteforce_examples():
    f7 = GF(7)
    assert q_order_bruteforce(f7.element(3), f7.element(2), 2, cap=100) == OrderResult.finite(3)
    f4 = make_extension_field(2, 2)
    assert q_order_bruteforce(f4.zero(), f4.one(), 4, cap=10) == OrderResult.finite(1)
    assert q_order_bruteforce(QQ.element(1), QQ.element(2), 2, cap=1000) == OrderResult.exceeded(1000)


def test_bruteforce_cap_handling():
    f5 = GF(5)
    # default cap is characteristic * q^n, far above any true order
    assert q_order_bruteforce(f5.element(1), f5.element(2), 2) == OrderResult.finite(2)
    assert q_order_bruteforce(f5.element(1), f5.element(1), 2, cap=2) == OrderResult.exceeded(2)
    with pytest.raises(ValueError):
        q_order_bruteforce(QQ.element(1), QQ.element(2), 2)  # cap required over qq
    with pytest.raises(ValueError):
        q_order_bruteforce(f5.element(1), f5.element(2), 2, cap=0)


def test_p1_order_examples():
    f5 = GF(5)
    assert p1_order(f5.zero(), 2) == OrderResult.finite(1)
    assert p1_order(f5.element(2), 3) == OrderResult.finite(5)
    assert p1_order(QQ.element(1), 2) == OrderResult.infinite()
    assert p1_order(QQ.zero(), 5) == OrderResult.finite(1)
    # consistent with the additive law: P1(y)^m = P1(m*y)
    m = p1_matrix(f5.element(2), 3)
    assert m**5 == identity(f5, 3)
    assert all(not (m**k).is_identity() for k in range(1, 5))


def test_p2_order_examples():
    f7 = GF(7)
    assert p2_order(f7.element(2), 2) == OrderResult.finite(3)
    assert (p2_matrix(f7.element(2), 2) ** 3).is_identity()
    f5 = GF(5)
    assert p2_order(f5.element(1), 2) == OrderResult.finite(5)
    assert p2_order(f5.element(3), 2) == OrderResult.finite(2)
    assert p2_order(QQ.element(1), 2) == OrderResult.infinite()
    assert p2_order(QQ.element(2), 2) == OrderResult.infinite()
    with pytest.raises(ZeroParameter):
        p2_order(f5.zero(), 2)


@pytest.mark.parametrize(
    "field",
    [GF(2), GF(3), GF(5), GF(7), make_extension_field(2, 2), make_extension_field(3, 2)],
)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_formula_matches_bruteforce_exhaustive(holds, field, n):
    holds(check_order_formula, field, n)


def test_dimension_independence(holds):
    for field in (GF(5), GF(7), GF(13), make_extension_field(2, 3), make_extension_field(3, 2)):
        holds(check_dimension_independence, field, 8)


@pytest.mark.parametrize("field", [GF(3), GF(5), make_extension_field(2, 2)])
def test_specialization_consistency(holds, field):
    holds(check_specialized_orders, field, 2)


def test_order_over_rationals_finite_iff_identity():
    one = QQ.one()
    cases = [
        (QQ.element(1), QQ.element(2)),
        (QQ.element(Fraction(1, 2)), QQ.element(3)),
        (QQ.element(2), QQ.element(-2)),
        (QQ.element(Fraction(-7, 3)), QQ.element(Fraction(2, 5))),
    ]
    for y, x in cases:
        assert q_order(y, x, 2) == OrderResult.infinite()
    for x in (one, -one):
        assert q_order(QQ.zero(), x, 4) == OrderResult.finite(1)
        assert q_matrix(QQ.zero(), x, 4).is_identity()
        assert q_order(one, x, 2) == OrderResult.infinite()


def test_exceeded_is_distinct_from_infinite():
    res = q_order_bruteforce(QQ.element(1), QQ.element(2), 2, cap=25)
    assert res.is_exceeded and not res.is_infinite
    assert res.to_json() == {"order": "exceeded", "cap": 25}
    assert str(res) == "exceeded(25)"


def test_oracle_agrees_semantics():
    fin2, fin3 = OrderResult.finite(2), OrderResult.finite(3)
    inf, exc = OrderResult.infinite(), OrderResult.exceeded(10)
    assert oracle_agrees(fin2, fin2)
    assert not oracle_agrees(fin2, fin3)
    assert not oracle_agrees(inf, fin2)
    assert oracle_agrees(inf, exc)
    assert not oracle_agrees(fin2, exc)  # 2 <= 10: the scan should have found it
    assert oracle_agrees(OrderResult.finite(100), exc)  # above the cap: inconclusive


def test_order_result_json_and_text():
    assert OrderResult.finite(4).to_json() == {"order": 4}
    assert OrderResult.infinite().to_json() == {"order": "infinite"}
    assert str(OrderResult.finite(4)) == "4"
    assert str(OrderResult.infinite()) == "infinite"
    with pytest.raises(ValueError):
        OrderResult.finite(0)


def test_anchor_q11_has_order_p():
    for p in (2, 3, 5, 7):
        f = GF(p)
        assert q_order(f.element(1), f.element(1), 2) == OrderResult.finite(p)
        assert q_order_bruteforce(f.element(1), f.element(1), 2) == OrderResult.finite(p)


def test_element_order_reuse():
    # the x^2 != 1 branch is exactly the element order of x^2
    f13 = GF(13)
    for x in f13.nonzero_elements():
        x2 = x * x
        if x2 == f13.one():
            continue
        assert q_order(f13.element(0), x, 3) == multiplicative_order(x2)


@pytest.mark.parametrize("closed_form", [q_matrix, q_order, is_diagonalizable])
def test_closed_forms_reject_mixed_fields(closed_form):
    # the closed forms enforce the same precondition as the matrix they describe
    f9 = make_extension_field(3, 2)
    pairs = [
        (GF(5).element(2), GF(7).element(3)),
        (GF(3).element(1), f9.element([0, 1])),
        (QQ.one(), GF(5).element(2)),
    ]
    for y, x in pairs:
        with pytest.raises(MixedFields):
            closed_form(y, x, 2)
    # equal fields built separately are the same field
    closed_form(f9.one(), make_extension_field(3, 2).element([0, 1]), 2)
