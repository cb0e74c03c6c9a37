"""Factorization, eigenpairs, and the diagonalizability criterion vs oracle."""

from fractions import Fraction

import pytest

from zhangliu import (
    Decomposition,
    NotTriangular,
    SingularParameter,
    SquareMatrix,
    ZeroParameter,
    d_matrix,
    diagonalizable_oracle,
    eigenpairs,
    factorize_q,
    identity,
    is_diagonalizable,
    make_extension_field,
    make_prime_field,
    make_rational_field,
    p1_matrix,
    q_matrix,
    verify_factorization,
    z_parameter,
)
from zhangliu.selftest import check_criterion, check_factorization

GF = make_prime_field
QQ = make_rational_field()


def elems(field, *values):
    return tuple(field.element(v) for v in values)


def test_z_parameter_examples():
    f5 = GF(5)
    assert z_parameter(f5.element(1), f5.element(2)) == f5.element(4)  # 2 * inv(3) = 2 * 2
    f7 = GF(7)
    assert z_parameter(f7.element(3), f7.element(2)) == f7.element(2)  # 6 * inv(3) = 6 * 5
    assert z_parameter(QQ.element(Fraction(1, 2)), QQ.element(3)).value == Fraction(3, 16)
    assert z_parameter(f5.zero(), f5.element(3)).is_zero()


def test_z_parameter_errors():
    f5 = GF(5)
    with pytest.raises(SingularParameter):
        z_parameter(f5.element(1), f5.element(1))
    with pytest.raises(SingularParameter):
        z_parameter(f5.element(1), f5.element(4))  # 4 = -1 mod 5
    with pytest.raises(ZeroParameter):
        z_parameter(f5.element(1), f5.zero())
    # characteristic 2: the only excluded x is 1
    f4 = make_extension_field(2, 2)
    with pytest.raises(SingularParameter):
        z_parameter(f4.one(), f4.one())
    t = f4.element([0, 1])
    assert z_parameter(f4.one(), t) is not None


def test_factorize_examples():
    f5 = GF(5)
    d = factorize_q(f5.element(1), f5.element(2), 3)
    assert d.z == f5.element(4)
    assert d.left == p1_matrix(f5.element(4), 3)
    assert d.middle == d_matrix(f5.element(4), 3)
    assert d.right == p1_matrix(f5.element(1), 3)
    assert verify_factorization(d)

    f7 = GF(7)
    d = factorize_q(f7.element(3), f7.element(2), 2)
    assert d.z == f7.element(2)
    assert [[str(e) for e in row] for row in d.left.rows] == [["1", "2"], ["0", "1"]]
    assert [[str(e) for e in row] for row in d.right.rows] == [["1", "5"], ["0", "1"]]
    assert d.left @ d.middle @ d.right == q_matrix(f7.element(3), f7.element(2), 2)

    d = factorize_q(f5.zero(), f5.element(2), 2)
    assert d.left == identity(f5, 2) and d.right == identity(f5, 2)
    assert d.middle == d_matrix(f5.element(4), 2)


def test_factorize_preconditions():
    f5 = GF(5)
    with pytest.raises(SingularParameter):
        factorize_q(f5.element(1), f5.element(1), 3)
    with pytest.raises(ZeroParameter):
        factorize_q(f5.element(1), f5.zero(), 3)
    with pytest.raises(ValueError):
        factorize_q(f5.element(1), f5.element(2), 1)


def test_verify_rejects_tampered_decomposition():
    f5 = GF(5)
    d = factorize_q(f5.element(1), f5.element(2), 3)
    tampered = Decomposition(d.z, d.left, identity(f5, 3), d.right, d.source_y, d.source_x, d.n)
    assert verify_factorization(d)
    assert not verify_factorization(tampered)
    f7 = GF(7)
    d = factorize_q(f7.zero(), f7.element(3), 4)
    assert d.middle == d_matrix(f7.element(2), 4)  # 3^2 = 2 mod 7
    assert verify_factorization(d)
    flipped = Decomposition(-d.z, p1_matrix(-d.z, 4), d.middle, p1_matrix(d.z, 4), d.source_y, d.source_x, d.n)
    assert verify_factorization(flipped)  # z = 0 here, sign flip is harmless
    d2 = factorize_q(f7.element(1), f7.element(3), 4)
    bad = Decomposition(d2.z, p1_matrix(-d2.z, 4), d2.middle, p1_matrix(d2.z, 4), d2.source_y, d2.source_x, d2.n)
    assert not verify_factorization(bad)


def test_eigenpair_examples():
    f5 = GF(5)
    pairs = eigenpairs(f5.element(1), f5.element(2), 3)
    assert [lam for lam, _ in pairs] == list(elems(f5, 1, 4, 1))
    assert pairs[1][1] == elems(f5, 4, 1, 0)

    f7 = GF(7)
    pairs = eigenpairs(f7.element(3), f7.element(2), 2)
    assert [lam for lam, _ in pairs] == list(elems(f7, 1, 4))
    assert pairs[1][1] == elems(f7, 2, 1)
    q = q_matrix(f7.element(3), f7.element(2), 2)
    lam, v = pairs[1]
    assert q.apply(v) == tuple(lam * c for c in v)

    pairs = eigenpairs(f7.zero(), f7.element(2), 2)
    assert [v for _, v in pairs] == [elems(f7, 1, 0), elems(f7, 0, 1)]


def test_is_diagonalizable_criterion():
    f5 = GF(5)
    assert not is_diagonalizable(f5.element(1), f5.element(1), 2)
    assert not is_diagonalizable(f5.element(1), f5.element(4), 3)
    assert is_diagonalizable(f5.zero(), f5.element(1), 2)
    assert is_diagonalizable(f5.element(1), f5.element(2), 2)
    with pytest.raises(ZeroParameter):
        is_diagonalizable(f5.element(1), f5.zero(), 2)
    with pytest.raises(ValueError):
        is_diagonalizable(f5.element(1), f5.element(2), 1)


def test_diagonalizable_oracle_examples():
    f3 = GF(3)
    assert not diagonalizable_oracle(q_matrix(f3.element(1), f3.element(1), 2))
    assert diagonalizable_oracle(identity(f3, 3))
    f5 = GF(5)
    assert diagonalizable_oracle(q_matrix(f5.element(1), f5.element(2), 3))
    lower = SquareMatrix(f5, [[f5.one(), f5.zero()], [f5.one(), f5.one()]])
    with pytest.raises(NotTriangular):
        diagonalizable_oracle(lower)


@pytest.mark.parametrize("field", [GF(3), GF(5), GF(7), GF(13)])
def test_factorization_exhaustive_over_primes(holds, field):
    for n in (2, 3, 4):
        holds(check_factorization, field, n)


@pytest.mark.parametrize(
    "field",
    [GF(2), GF(3), GF(5), make_extension_field(2, 2), make_extension_field(3, 2)],
)
def test_criterion_agrees_with_oracle(holds, field):
    for n in (2, 3, 4):
        holds(check_criterion, field, n)


def test_decomposition_json():
    f5 = GF(5)
    d = factorize_q(f5.element(1), f5.element(2), 3)
    payload = d.to_json()
    assert payload["field"] == "gf:5" and payload["n"] == 3
    assert payload["y"] == "1" and payload["x"] == "2" and payload["z"] == "4"
    assert payload["verified"] is True
    assert payload["left"] == [["1", "4", "1"], ["0", "1", "3"], ["0", "0", "1"]]
