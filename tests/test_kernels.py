"""The per-kind arithmetic kernels against element-wise references.

``SquareMatrix`` keeps raw values and multiplies them with one call of its
field's kernel ``matmul``, on rows packed into ints over finite fields.
The references here are written with FieldElement operators, entry by
entry, so every matrix operation is checked against a second path through
the field arithmetic.  Over GF(p^k) both paths reduce by the modulus in
the kernel's one reduction; tests/test_invariants.py and the carry test
below check it against ``_naive_ext_mul``, which shares no code with it.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zhangliu import (
    DivisionByZero,
    SquareMatrix,
    make_rational_field,
    parse_field_spec,
)
from zhangliu.selftest import _naive_ext_mul

QQ = make_rational_field()
SPECS = ["gf:2", "gf:7", "gf:251", "gf:2^4", "gf:3^3", "gf:3^2:m=2,2,1", "gf:13^4", "gf:7^5", "gf:2^12", "qq"]
FIELDS = {spec: parse_field_spec(spec) for spec in SPECS}


# ---------------------------------------------------------------------------
# element-wise references


def ref_matmul(a, b):
    f, n = a.field, a.n
    return tuple(tuple(sum((a[i, k] * b[k, j] for k in range(n)), f.zero()) for j in range(n)) for i in range(n))


def ref_apply(a, v):
    return tuple(sum((a[i, k] * v[k] for k in range(a.n)), a.field.zero()) for i in range(a.n))


def ref_sub(a, b):
    minus_one = -a.field.one()
    return tuple(tuple(a[i, j] + minus_one * b[i, j] for j in range(a.n)) for i in range(a.n))


def ref_inverse(e):
    f = e.field
    if f.is_finite:
        return e ** (f.order - 2)
    return f.element(1 / e.value)


def ref_rank(m):
    f, n = m.field, m.n
    rows = [list(r) for r in m.rows]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col] != f.zero()), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = ref_inverse(rows[rank][col])
        for r in range(rank + 1, n):
            scale = -(rows[r][col] * inv)
            rows[r] = [a + scale * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def ref_is_identity(m):
    f = m.field
    return all(m[i, j] == (f.one() if i == j else f.zero()) for i in range(m.n) for j in range(m.n))


# ---------------------------------------------------------------------------
# hypothesis-drawn matrices


@st.composite
def elements(draw, f):
    # a zero one time in three: the kernels skip zero terms
    if draw(st.integers(0, 2)) == 0:
        return f.zero()
    if f.kind == "rational":
        return f.element(Fraction(draw(st.integers(-50, 50)), draw(st.integers(1, 30))))
    p = f.characteristic
    if f.kind == "prime":
        return f.element(draw(st.integers(0, p - 1)))
    return f.element(draw(st.lists(st.integers(0, p - 1), min_size=f.extension_degree, max_size=f.extension_degree)))


@st.composite
def matrices(draw, count=1, n_max=5):
    f = FIELDS[draw(st.sampled_from(SPECS))]
    n = draw(st.integers(1, n_max))
    out = [SquareMatrix(f, [[draw(elements(f)) for _ in range(n)] for _ in range(n)]) for _ in range(count)]
    return f, out


@settings(max_examples=100, derandomize=True, deadline=None)
@given(matrices(count=2))
def test_matmul_sub_and_eq_match_the_elementwise_reference(drawn):
    f, (a, b) = drawn
    assert (a @ b).rows == ref_matmul(a, b)
    assert (a - b).rows == ref_sub(a, b)
    assert a == SquareMatrix(f, a.rows) and hash(a) == hash(SquareMatrix(f, a.rows))
    assert (a == b) == (a.rows == b.rows)
    changed = [list(r) for r in a.rows]
    changed[-1][0] = changed[-1][0] + f.one()
    assert a != SquareMatrix(f, changed)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(matrices(), st.data())
def test_rank_apply_and_is_identity_match_the_elementwise_reference(drawn, data):
    f, (a,) = drawn
    assert a.rank() == ref_rank(a)
    v = [data.draw(elements(f)) for _ in range(a.n)]
    assert a.apply(v) == ref_apply(a, v)
    assert a.is_identity() == ref_is_identity(a)
    eye = SquareMatrix(f, [[f.one() if i == j else f.zero() for j in range(a.n)] for i in range(a.n)])
    assert eye.is_identity() and eye.rank() == a.n
    assert (a @ eye) == a == (eye @ a)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(1, 6), st.data())
def test_dense_rational_matrices_match_the_elementwise_reference(n, data):
    def entry():
        return QQ.element(Fraction(data.draw(st.integers(-(10**6), 10**6)), data.draw(st.integers(1, 10**4))))

    def dense():
        return SquareMatrix(QQ, [[entry() for _ in range(n)] for _ in range(n)])

    a, b = dense(), dense()
    assert (a @ b).rows == ref_matmul(a, b)
    assert (a @ b @ a).rows == ref_matmul(SquareMatrix(QQ, ref_matmul(a, b)), a)
    assert a.rank() == ref_rank(a)
    assert all(type(e.value) is Fraction for row in (a @ b).rows for e in row)


def is_canonical(f, v):
    if f.kind == "prime":
        return type(v) is int and 0 <= v < f.characteristic
    if f.kind == "extension":
        k, p = f.extension_degree, f.characteristic
        return type(v) is tuple and len(v) == k and all(type(c) is int and 0 <= c < p for c in v)
    return type(v) is Fraction and v.denominator > 0 and math.gcd(v.numerator, v.denominator) == 1


# the largest characteristics: products over gf:1099511627689 need slots wider
# than 64 bits, and gf:1048573^2, the largest p of an extension, fits 64-bit slots
WIDE_SPECS = ["gf:1048573^2", "gf:1099511627689"]


@pytest.mark.parametrize("spec", SPECS + WIDE_SPECS)
def test_dense_products_match_the_elementwise_reference(spec):
    f = parse_field_spec(spec)
    rng = random.Random(spec)
    for n in range(1, 17):
        a, b = (SquareMatrix(f, [[f.random_element(rng) for _ in range(n)] for _ in range(n)]) for _ in range(2))
        v = [f.random_element(rng) for _ in range(n)]
        product, image = a @ b, a.apply(v)
        assert product.rows == ref_matmul(a, b), n
        assert image == ref_apply(a, v), n
        assert all(is_canonical(f, x) for row in product.values for x in row)
        assert all(is_canonical(f, x.value) for x in image)


# ---------------------------------------------------------------------------
# worst-case carries: every coefficient p - 1, so the unreduced slots of a
# packed row reach their bound n*k*(p-1)^2; gf:2^40 has the most slots.  The
# modulus acts only after the slots are unpacked and taken mod p, so the bound
# does not depend on it; the dense moduli of gf:3^2:m=2,2,1 and gf:5^2:m=1,1,1
# make the one reduction subtract every low term of the modulus


@pytest.mark.parametrize("n", [1, 16])
@pytest.mark.parametrize(
    "spec", ["gf:2^12", "gf:13^4", "gf:7^5", "gf:3^2:m=2,2,1", "gf:5^2:m=1,1,1", "gf:2^40", "gf:251", *WIDE_SPECS]
)
def test_all_max_coefficients_do_not_carry(spec, n):
    f = parse_field_spec(spec)
    p = f.characteristic
    top = f.element([p - 1] * f.extension_degree) if f.kind == "extension" else f.element(p - 1)
    a = SquareMatrix(f, [[top] * n for _ in range(n)])
    assert (a @ a).rows == ref_matmul(a, a)
    assert a.apply([top] * n) == ref_apply(a, [top] * n)
    # n * top^2 in every entry, top^2 checked against the oracle over GF(p^k)
    square = top * top
    if f.kind == "extension":
        assert square == _naive_ext_mul(top, top)
    assert (a @ a)[0, 0] == sum([square] * n, f.zero())


# ---------------------------------------------------------------------------
# extension-field inverse by extended Euclid


@pytest.mark.parametrize("spec", ["gf:2^4", "gf:3^3", "gf:5^2:m=2,1,1"])
def test_inverse_of_every_nonzero_element(spec):
    f = parse_field_spec(spec)
    for a in f.nonzero_elements():
        assert a * a.inv() == f.one(), a


def test_inverse_equals_fermat_power_in_gf_2_40():
    f = parse_field_spec("gf:2^40")
    rng = random.Random(40)
    for _ in range(20):
        a = f.random_element(rng, nonzero=True)
        assert a.inv() == a ** (f.order - 2)


@pytest.mark.parametrize("spec", ["gf:7", "gf:2^4", "gf:3^2:m=2,2,1", "qq"])
def test_inverse_of_zero_raises(spec):
    f = parse_field_spec(spec)
    with pytest.raises(DivisionByZero):
        f.zero().inv()
    with pytest.raises(DivisionByZero):
        f.one() / f.zero()


# ---------------------------------------------------------------------------
# what each kernel owns besides arithmetic: building, enumerating, drawing
# and naming its values

FINITE_SPECS = ["gf:5", "gf:2^3", "gf:3^2:m=2,2,1"]


@pytest.mark.parametrize("spec", FINITE_SPECS)
def test_elements_are_distinct_and_rebuild_from_their_values(spec):
    f = parse_field_spec(spec)
    elements = list(f.elements())
    assert len(set(elements)) == len(elements) == f.order
    for a in elements:
        assert f.element(a.value) == a


def test_rational_field_refuses_enumeration_at_the_call():
    with pytest.raises(ValueError) as info:
        QQ.elements()
    assert str(info.value) == "the rational field is not enumerable"


@pytest.mark.parametrize(
    "spec,value,message",
    [
        ("gf:5", Fraction(1, 2), "prime-field element expects int, got Fraction"),
        ("qq", 0.5, "rational element expects int or Fraction, got float"),
    ],
)
def test_element_refuses_a_value_of_the_wrong_type(spec, value, message):
    with pytest.raises(TypeError) as info:
        parse_field_spec(spec).element(value)
    assert str(info.value) == message


# the seeded selftest domains are drawn with random_element, so these draws must not shift
DRAWS = {
    "gf:5": ([2, 1, 3, 0, 0], [2, 1, 3, 4, 2]),
    "gf:2^3": (
        [(1, 0, 1), (0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 0)],
        [(1, 0, 1), (1, 0, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0)],
    ),
    "gf:3^2:m=2,2,1": ([(1, 0), (1, 2), (0, 0), (2, 0), (1, 2)], [(1, 0), (1, 2), (2, 0), (1, 2), (0, 2)]),
    "qq": (
        [Fraction(0), Fraction(5, 2), Fraction(-8, 9), Fraction(-7, 6), Fraction(17, 2)],
        [Fraction(5, 2), Fraction(-8, 9), Fraction(-7, 6), Fraction(17, 2), Fraction(12, 7)],
    ),
}


@pytest.mark.parametrize("spec", DRAWS)
def test_first_seeded_draws(spec):
    f = parse_field_spec(spec)
    for nonzero, expected in zip((False, True), DRAWS[spec]):
        rng = random.Random(7)
        assert [f.random_element(rng, nonzero=nonzero).value for _ in range(5)] == expected
