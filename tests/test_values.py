"""Value classes: equality, hashing, immutability, repr and copies; text round trips."""

import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from zhangliu import (
    Decomposition,
    Field,
    OrderResult,
    Reducible,
    factorize_q,
    identity,
    make_extension_field,
    make_prime_field,
    parse_element,
    parse_field_spec,
)
from zhangliu.census import CensusRows, census_rows

F5 = make_prime_field(5)


def _decomposition_parts():
    d = factorize_q(F5.element(1), F5.element(2), 3)
    return [d.z, d.left, d.middle, d.right, d.source_y, d.source_x, d.n]


def _census_parts():
    rows = census_rows(F5, 2)
    return [rows.field, rows.n, rows.ys, rows.xs, rows.table, iter(rows)]


# class, attribute names, components, and for each component a different value
CASES = {
    "Field": (
        Field,
        ["kind", "characteristic", "extension_degree", "modulus"],
        ["extension", 3, 2, (1, 0, 1)],
        ["prime", 7, 3, (2, 2, 1)],
    ),
    "OrderResult": (OrderResult, ["kind", "value"], ["finite", 4], ["exceeded", 5]),
    "Decomposition": (
        Decomposition,
        ["z", "left", "middle", "right", "source_y", "source_x", "n"],
        _decomposition_parts(),
        [F5.zero(), identity(F5, 3), identity(F5, 3), identity(F5, 3), F5.zero(), F5.element(3), 4],
    ),
    "CensusRows": (
        CensusRows,
        ["field", "n", "ys", "xs", "table", "blocks"],
        _census_parts(),
        [make_prime_field(7), 3, ["0"], ["1"], {}, iter(())],
    ),
}


# components that cannot change alone: a field's kind and degree must fit its modulus
REFUSED = {("Field", "kind"), ("Field", "extension_degree")}


def _changed(name, i):
    """The value of CASES[name] with component i changed, or None where the
    constructor refuses that change with a ValueError."""
    cls, attrs, parts, others = CASES[name]
    args = (*parts[:i], others[i], *parts[i + 1 :])
    if (name, attrs[i]) not in REFUSED:
        return cls(*args)
    with pytest.raises(ValueError):
        cls(*args)


@pytest.mark.parametrize("name", CASES)
def test_equality_holds_exactly_when_the_components_match(name):
    cls, attrs, parts, others = CASES[name]
    a, b = cls(*parts), cls(*parts)
    assert a == b and not a != b
    assert a == cls(**dict(zip(attrs, parts)))
    assert [getattr(a, attr) for attr in attrs] == parts
    for i in range(len(others)):
        changed = _changed(name, i)
        assert changed is None or (changed != a and not changed == a)
    assert a != tuple(parts) and a != list(parts)


@pytest.mark.parametrize("name", ["Field", "OrderResult", "Decomposition"])
def test_hash_agrees_with_equality(name):
    cls, _, parts, others = CASES[name]
    a, b = cls(*parts), cls(*parts)
    assert hash(a) == hash(b)
    assert {a: "a"}[b] == "a"
    variants = [_changed(name, i) for i in range(len(others))]
    variants = {v for v in variants if v is not None}
    assert len({a, b} | variants) == 1 + len(variants) >= 3


def test_census_rows_are_unhashable():
    # they hold lists, a dict and an iterator
    cls, _, parts, _ = CASES["CensusRows"]
    with pytest.raises(TypeError):
        hash(cls(*parts))


@pytest.mark.parametrize("name", CASES)
def test_assignment_raises_attribute_error(name):
    cls, attrs, parts, others = CASES[name]
    a = cls(*parts)
    for attr, other in zip(attrs, others):
        with pytest.raises(AttributeError):
            setattr(a, attr, other)
        with pytest.raises(AttributeError):
            delattr(a, attr)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert [getattr(a, attr) for attr in attrs] == parts


@pytest.mark.parametrize("name", CASES)
def test_repr_names_every_component(name):
    cls, attrs, parts, _ = CASES[name]
    fields = ", ".join(f"{attr}={part!r}" for attr, part in zip(attrs, parts))
    assert repr(cls(*parts)) == f"{name}({fields})"


@pytest.mark.parametrize("name", CASES)
def test_copies_are_equal(name):
    cls, _, parts, _ = CASES[name]
    a = cls(*parts)
    assert copy.copy(a) == a
    if name in ("Field", "OrderResult"):  # the others hold elements, which do not pickle
        assert copy.deepcopy(a) == a
        assert pickle.loads(pickle.dumps(a)) == a


def test_repr_text_is_unchanged():
    assert repr(make_prime_field(5)) == "Field(kind='prime', characteristic=5, extension_degree=1, modulus=None)"
    assert (
        repr(make_extension_field(3, 2))
        == "Field(kind='extension', characteristic=3, extension_degree=2, modulus=(1, 0, 1))"
    )
    assert repr(OrderResult.finite(4)) == "OrderResult(kind='finite', value=4)"
    assert repr(OrderResult.infinite()) == "OrderResult(kind='infinite', value=None)"


def test_field_is_immutable_and_hashable_as_documented():
    assert "immutable and hashable" in " ".join(Field.__doc__.split())
    f = make_extension_field(2, 3)
    with pytest.raises(AttributeError):
        f.modulus = (1, 1, 0, 1)
    assert {f: 1}[make_extension_field(2, 3)] == 1
    assert len({f, make_extension_field(2, 3), make_prime_field(2), make_prime_field(2)}) == 2


# ---------------------------------------------------------------------------
# text round trips

PRIMES = [2, 3, 5, 7, 13, 251, 383, 65537, 2**31 - 1]


def _explicit_modulus_fields():
    out = []
    for p, k in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)):
        for tail in itertools.product(range(p), repeat=k):
            try:
                out.append(make_extension_field(p, k, [*tail, 1]))
            except Reducible:
                pass
    return out


fields = st.one_of(st.sampled_from(PRIMES).map(make_prime_field), st.sampled_from(_explicit_modulus_fields()))


@st.composite
def field_and_element(draw):
    f = draw(fields)
    p = f.characteristic
    if f.kind == "prime":
        return f, f.element(draw(st.integers(0, p - 1)))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=f.extension_degree, max_size=f.extension_degree))
    return f, f.element(coeffs)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(fields)
def test_field_spec_round_trip_property(f):
    assert parse_field_spec(f.spec()) == f


@settings(max_examples=200, derandomize=True, deadline=None)
@given(field_and_element())
def test_element_text_round_trip_property(fe):
    f, e = fe
    assert parse_element(str(e), f) == e
