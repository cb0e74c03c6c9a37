"""Field construction, exact arithmetic, element orders, text forms."""

import subprocess
import sys
from fractions import Fraction

import pytest

from zhangliu import (
    DivisionByZero,
    Field,
    FieldTooLarge,
    MixedFields,
    NotPrime,
    OrderResult,
    ParseError,
    Reducible,
    ZeroElement,
    factor_integer,
    make_extension_field,
    make_prime_field,
    make_rational_field,
    multiplicative_order,
    parse_element,
    parse_field_spec,
)
from zhangliu.selftest import check_element_orders

GF = make_prime_field
QQ = make_rational_field()


def test_make_prime_field():
    f = GF(5)
    assert f.kind == "prime" and f.characteristic == 5
    assert GF(2).characteristic == 2
    with pytest.raises(NotPrime):
        GF(6)
    with pytest.raises(NotPrime):
        GF(1)
    with pytest.raises(FieldTooLarge):
        GF(2**41 + 1)


def test_make_extension_field_explicit_modulus():
    f = make_extension_field(3, 2, [1, 0, 1])
    assert f.modulus == (1, 0, 1) and f.order == 9
    with pytest.raises(Reducible):
        make_extension_field(3, 2, [0, 0, 1])  # t^2 = t * t
    with pytest.raises(NotPrime):
        make_extension_field(4, 2)
    with pytest.raises(ValueError):
        make_extension_field(3, 1)
    with pytest.raises(ValueError):
        make_extension_field(3, 2, [1, 0, 2])  # not monic


@pytest.mark.parametrize(
    "args,error,message",
    [
        # an unknown kind used to get the rational kernel while reporting order 5
        (("bogus", 5), ValueError, "no 'bogus' field has characteristic 5, degree 1 and modulus None"),
        # a composite characteristic used to give a ring with zero divisors
        (("prime", 4), NotPrime, "4 is not prime"),
        (("prime", 2**41 + 1), FieldTooLarge, f"field order {2**41 + 1} exceeds ceiling {2**40}"),
        (("prime", 5, 2), ValueError, "no 'prime' field has characteristic 5, degree 2 and modulus None"),
        (("prime", 5, 1, (1, 1)), ValueError, "no 'prime' field has characteristic 5, degree 1 and modulus (1, 1)"),
        (("rational", 5), ValueError, "no 'rational' field has characteristic 5, degree 1 and modulus None"),
        (("extension", 3, 1), ValueError, "extension degree must be >= 2, got 1"),
        (("extension", 4, 2), NotPrime, "4 is not prime"),
        (("extension", 2, 41), FieldTooLarge, f"field order 2^41 exceeds ceiling {2**40}"),
        (("extension", 3, 2, (1, 0)), ValueError, "modulus must be monic of degree 2 (ascending, 3 coefficients)"),
        (("extension", 3, 2, (0, 0, 1)), Reducible, "modulus [0, 0, 1] factors over GF(3)"),
    ],
)
def test_field_constructor_validates_like_the_make_functions(args, error, message):
    with pytest.raises(error) as info:
        Field(*args)
    assert type(info.value) is error and str(info.value) == message


def test_field_constructor_builds_what_the_make_functions_build():
    assert Field("prime", 5) == GF(5)
    assert Field("extension", 3, 2) == make_extension_field(3, 2) == Field("extension", 3, 2, [4, 0, 1])
    assert Field("rational", 0) == QQ


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("gf:2^40", "gf:2^40:m=1,"),
        # p = 2^61 - 1 is prime, so trial division would run for hours
        ("gf:2305843009213693951^2", "exceeds ceiling"),
        ("gf:3^20000000", "exceeds ceiling"),
        # 2 * 549755813881, just under the cap: composite, found by trial division
        ("gf:1099511627762", "1099511627762 is not prime"),
    ],
)
def test_specs_at_and_over_the_size_cap_resolve_fast(spec, expected):
    # the cap promises fast construction or fast rejection; a subprocess bounds the wait
    code = (
        "import sys\n"
        "from zhangliu import ParseError, parse_field_spec\n"
        "try:\n    print(parse_field_spec(sys.argv[1]).spec())\n"
        "except ParseError as e:\n    print(e)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, spec], capture_output=True, text=True, timeout=5)
    assert expected in proc.stdout


def test_auto_modulus_is_deterministic_lexicographic():
    assert make_extension_field(2, 2).modulus == (1, 1, 1)  # unique monic irreducible quadratic
    assert make_extension_field(3, 2).modulus == (1, 0, 1)
    assert make_extension_field(2, 2) == make_extension_field(2, 2)


def test_auto_modulus_matches_exhaustive_divisor_scan():
    # independent irreducibility oracle: no monic divisor of degree 1..k-1
    def divides(div, f, p):
        f = list(f)
        while len(f) >= len(div):
            c = f[-1]
            if c:
                shift = len(f) - len(div)
                for i, d in enumerate(div):
                    f[shift + i] = (f[shift + i] - c * d) % p
            f.pop()
        return not any(f)

    import itertools

    for p, k in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        field = make_extension_field(p, k)
        first = None
        for tail in itertools.product(range(p), repeat=k):
            f = list(tail) + [1]
            reducible = False
            for d in range(1, k):
                for dtail in itertools.product(range(p), repeat=d):
                    if divides(list(dtail) + [1], f, p):
                        reducible = True
                        break
                if reducible:
                    break
            if not reducible:
                first = tuple(f)
                break
        assert field.modulus == first


def test_rational_field_singleton():
    f = make_rational_field()
    assert f.characteristic == 0
    assert make_rational_field() == f


def test_prime_field_arithmetic():
    f = GF(5)
    a, b = f.element(3), f.element(4)
    assert (a + b).value == 2
    assert (a - b).value == 4
    assert (a * b).value == 2
    assert (-a).value == 2
    assert a.inv() == f.element(2)  # 3 * 2 = 6 = 1 mod 5
    assert a / b == a * b.inv()


def test_extension_field_arithmetic():
    f = make_extension_field(3, 2, [1, 0, 1])
    t = f.element([0, 1])
    assert t * t == f.element(2)  # t^2 = -1 = 2
    assert (t + t).value == (0, 2)
    assert t.inv() * t == f.one()
    assert (t + f.element([1, 2])).value == (1, 0)


def test_rational_arithmetic_is_exact():
    half = QQ.element(Fraction(1, 2))
    third = QQ.element(Fraction(1, 3))
    assert (half + third).value == Fraction(5, 6)
    assert (half * third).value == Fraction(1, 6)
    assert half.inv().value == 2
    big = QQ.element(10**30)
    assert (big * big).value == 10**60


def test_pow_convention_zero_to_the_zero():
    for f in (GF(5), make_extension_field(2, 2), QQ):
        assert f.zero() ** 0 == f.one()
        assert f.element(1) ** 0 == f.one()


def test_pow_negative_exponents():
    f = GF(7)
    a = f.element(3)
    assert a**-1 == a.inv()
    assert a**-3 == (a**3).inv()
    with pytest.raises(DivisionByZero):
        f.zero() ** -1
    with pytest.raises(DivisionByZero):
        f.zero().inv()


def test_mixed_fields_rejected():
    with pytest.raises(MixedFields):
        GF(5).element(1) + GF(7).element(1)
    with pytest.raises(MixedFields):
        GF(5).element(1) * QQ.element(1)


def test_factor_integer():
    assert factor_integer(1) == []
    assert factor_integer(12) == [2, 2, 3]
    assert factor_integer(48) == [2, 2, 2, 2, 3]  # q - 1 for GF(49)
    assert factor_integer(97) == [97]
    with pytest.raises(ValueError):
        factor_integer(0)


def test_multiplicative_order_examples():
    assert multiplicative_order(GF(5).element(4)) == OrderResult.finite(2)
    assert multiplicative_order(GF(7).element(4)) == OrderResult.finite(3)
    assert multiplicative_order(QQ.element(4)) == OrderResult.infinite()
    assert multiplicative_order(QQ.element(1)) == OrderResult.finite(1)
    assert multiplicative_order(QQ.element(-1)) == OrderResult.finite(2)
    with pytest.raises(ZeroElement):
        multiplicative_order(GF(5).zero())


@pytest.mark.parametrize("field", [GF(7), GF(13), make_extension_field(2, 3), make_extension_field(3, 2)])
def test_multiplicative_order_divides_and_minimal(holds, field):
    holds(check_element_orders, field)


def test_field_spec_round_trip():
    for f in (GF(5), GF(2), make_extension_field(2, 2), make_extension_field(3, 2, [2, 2, 1]), QQ):
        assert parse_field_spec(f.spec()) == f
    assert parse_field_spec("gf:7").characteristic == 7
    assert parse_field_spec("gf:3^2:m=1,0,1").modulus == (1, 0, 1)
    assert parse_field_spec("qq") == QQ


@pytest.mark.parametrize(
    "bad",
    ["gf", "gf:", "gf:abc", "zz", "gf:5^", "gf:5:m=1,1", "gf:6", "gf:3^2:m=0,0,1", "", "gf:0", "gf:-5", "gf:1099511627762"],
)
def test_field_spec_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_field_spec(bad)


def test_element_text_round_trip():
    assert parse_element("7", GF(5)) == GF(5).element(2)
    assert parse_element("-1", GF(5)) == GF(5).element(4)
    assert parse_element("[1, 2]", make_extension_field(3, 2)).value == (1, 2)
    assert parse_element("-3/6", QQ).value == Fraction(-1, 2)


def test_element_parse_errors():
    with pytest.raises(ParseError):
        parse_element("x", GF(5))
    with pytest.raises(ParseError):
        parse_element("1,2", make_extension_field(3, 2))  # brackets required
    with pytest.raises(ParseError):
        parse_element("[1,2,3]", make_extension_field(3, 2))  # too many coefficients
    with pytest.raises(ParseError):
        parse_element("1/0", QQ)


def test_elements_enumeration():
    assert len(list(GF(7).elements())) == 7
    assert len(list(make_extension_field(2, 3).elements())) == 8
    assert len(list(make_extension_field(2, 3).nonzero_elements())) == 7
    with pytest.raises(ValueError):
        list(QQ.elements())


def test_field_element_immutable_and_hashable():
    a = GF(5).element(2)
    with pytest.raises(AttributeError):
        a.value = 3
    assert len({a, GF(5).element(2), GF(5).element(3)}) == 2
