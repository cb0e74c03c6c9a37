"""Matrix families, binomials in a field, and the exact matrix algebra."""

import pytest

from zhangliu import (
    DimensionMismatch,
    MixedFields,
    SquareMatrix,
    ZeroParameter,
    binomial,
    d_matrix,
    identity,
    make_extension_field,
    make_prime_field,
    make_rational_field,
    matrix_to_json,
    p1_matrix,
    p2_matrix,
    parse_field_spec,
    q_matrix,
)
from zhangliu.selftest import (
    _pairs,
    _q_formula,
    check_q_specializations,
    check_upper_triangular,
)

GF = make_prime_field
QQ = make_rational_field()


def from_ints(field, rows):
    return SquareMatrix(field, [[field.element(v) for v in row] for row in rows])


def test_binomial_examples():
    f5 = GF(5)
    assert binomial(4, 2, f5) == f5.element(1)  # C(4,2) = 6
    assert binomial(5, 2, f5) == f5.element(0)  # C(5,2) = 10
    for f in (f5, QQ, make_extension_field(2, 2)):
        assert binomial(9, 0, f) == f.one()
        assert binomial(3, -1, f) == f.zero()
        assert binomial(3, 4, f) == f.zero()
    assert binomial(10, 3, QQ).value == 120


def test_p1_matrix_examples():
    assert p1_matrix(QQ.element(1), 3) == from_ints(QQ, [[1, 1, 1], [0, 1, 2], [0, 0, 1]])
    for f in (GF(7), QQ, make_extension_field(2, 2)):
        assert p1_matrix(f.zero(), 3) == identity(f, 3)
    f5 = GF(5)
    assert p1_matrix(f5.element(4), 3) == from_ints(f5, [[1, 4, 1], [0, 1, 3], [0, 0, 1]])
    assert p1_matrix(f5.element(2), 1) == from_ints(f5, [[1]])


def test_p2_matrix_examples():
    f7 = GF(7)
    assert p2_matrix(f7.element(2), 2) == from_ints(f7, [[1, 2], [0, 4]])
    assert p2_matrix(f7.element(1), 3) == from_ints(f7, [[1, 1, 1], [0, 1, 2], [0, 0, 1]])
    with pytest.raises(ZeroParameter):
        p2_matrix(f7.zero(), 2)


def test_q_matrix_examples():
    f5 = GF(5)
    assert q_matrix(f5.element(1), f5.element(2), 3) == from_ints(f5, [[1, 2, 4], [0, 4, 1], [0, 0, 1]])
    f7 = GF(7)
    assert q_matrix(f7.element(3), f7.element(2), 2) == from_ints(f7, [[1, 6], [0, 4]])
    with pytest.raises(ZeroParameter):
        q_matrix(f5.element(1), f5.zero(), 3)
    with pytest.raises(MixedFields):
        q_matrix(f5.element(1), f7.element(1), 2)


# every (y, x) at n <= 6 on small fields, sampled pairs at n = 16 on larger ones
Q_FORMULA_DOMAINS = {
    **{spec: (None, range(1, 7)) for spec in ("gf:5", "gf:2^3", "gf:3^2:m=2,2,1")},
    **{spec: (6, [16]) for spec in ("qq", "gf:2^12", "gf:7^5")},
}


@pytest.mark.parametrize("spec", Q_FORMULA_DOMAINS)
def test_q_matrix_is_the_entry_formula(spec):
    f = parse_field_spec(spec)
    samples, ns = Q_FORMULA_DOMAINS[spec]
    for y, x in _pairs(f, samples, "q formula"):
        for n in ns:
            assert q_matrix(y, x, n).rows == _q_formula(y, x, n), (y, x, n)


def test_d_matrix_examples():
    f5 = GF(5)
    assert d_matrix(f5.element(4), 3) == from_ints(f5, [[1, 0, 0], [0, 4, 0], [0, 0, 1]])
    assert d_matrix(f5.element(1), 4) == identity(f5, 4)
    f7 = GF(7)
    assert d_matrix(f7.element(4), 2) == from_ints(f7, [[1, 0], [0, 4]])
    assert d_matrix(f5.zero(), 3) == from_ints(f5, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])


@pytest.mark.parametrize("field", [GF(3), GF(5), make_extension_field(2, 2)])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_q_specializations_exhaustive(holds, field, n):
    holds(check_q_specializations, field, n)


def test_constructors_upper_triangular(holds):
    for field in (GF(5), make_extension_field(2, 3), QQ):
        for n in (1, 4, 6):
            holds(check_upper_triangular, field, n, 4)


def test_matrix_mul_example():
    f3 = GF(3)
    m = from_ints(f3, [[1, 1], [0, 1]])
    assert m @ m == from_ints(f3, [[1, 2], [0, 1]])


def test_matrix_pow():
    f5 = GF(5)
    q = q_matrix(f5.element(1), f5.element(2), 3)
    assert q**2 == identity(f5, 3)
    assert q**0 == identity(f5, 3)
    assert q**5 == q @ q @ q @ q @ q
    # the shared square-and-multiply against repeated products, on every field kind
    for spec in ("gf:5", "gf:3^2:m=2,2,1", "qq"):
        f = parse_field_spec(spec)
        y, x = _pairs(f, 1, "pow")[0]
        q = q_matrix(y, x, 3)
        power = identity(f, 3)
        for e in range(7):
            assert q**e == power, (spec, e)
            power = power @ q
        with pytest.raises(ValueError):
            q**-1


def test_matrix_rank():
    f5 = GF(5)
    assert from_ints(f5, [[1, 1], [0, 0]]).rank() == 1
    assert from_ints(QQ, [[1, 1], [0, 0]]).rank() == 1
    assert identity(f5, 4).rank() == 4
    assert from_ints(f5, [[0, 0], [0, 0]]).rank() == 0
    # second row is 4 * first row mod 5
    assert from_ints(f5, [[0, 2, 4], [0, 3, 1], [0, 0, 0]]).rank() == 1
    f2 = GF(2)
    assert from_ints(f2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]]).rank() == 2


def test_matrix_errors():
    f5, f7 = GF(5), GF(7)
    a = identity(f5, 2)
    with pytest.raises(MixedFields):
        a @ identity(f7, 2)
    with pytest.raises(DimensionMismatch):
        a @ identity(f5, 3)
    with pytest.raises(MixedFields):
        SquareMatrix(f5, [[f5.one(), f7.one()], [f5.zero(), f5.one()]])
    with pytest.raises(DimensionMismatch):
        SquareMatrix(f5, [[f5.one()], [f5.zero(), f5.one()]])


def test_matrix_apply_and_column():
    f5 = GF(5)
    q = q_matrix(f5.element(1), f5.element(2), 3)
    v = q.column(1)
    assert v == (f5.element(2), f5.element(4), f5.element(0))
    assert q.apply(identity(f5, 3).column(0)) == q.column(0)


def test_matrix_to_json_example():
    payload = matrix_to_json(identity(GF(5), 2))
    assert payload == {"field": "gf:5", "n": 2, "rows": [["1", "0"], ["0", "1"]]}
