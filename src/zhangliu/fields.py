"""Exact arithmetic in prime fields GF(p), extension fields GF(p^k) and the rationals.

A ``Field`` is an immutable descriptor of one of the three families; a
``FieldElement`` pairs a field with a canonical representation:

* prime field: an integer in ``[0, p)``,
* extension field: a coefficient tuple of length ``k`` (ascending powers of
  the generator, entries in ``[0, p)``) reduced modulo a monic irreducible
  modulus polynomial,
* rationals: a reduced ``fractions.Fraction``.

Elements are immutable and support ``+ - * / ** ==``; all arithmetic is
exact.  ``a ** 0`` is one for every ``a`` including zero.  Text forms are
canonical: ``str(element)`` round-trips through ``parse_element``.

Field spec grammar: ``gf:p`` | ``gf:p^k`` (auto modulus) |
``gf:p^k:m=c0,c1,...,ck`` (explicit ascending modulus) | ``qq``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import (
    DivisionByZero,
    FieldTooLarge,
    MixedFields,
    NotPrime,
    ParseError,
    Reducible,
    ZeroElement,
)
from .records import Record

PRIME = "prime"
EXTENSION = "extension"
RATIONAL = "rational"

# Fields larger than this are rejected at construction: factoring q - 1 by
# trial division and scanning for irreducible moduli must stay fast.
MAX_FIELD_ORDER = 2**40


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factor_integer(m: int) -> list[int]:
    """Prime factors of m >= 1 with multiplicity, in ascending order.

    Trial division; fine for the desk-scale inputs this library accepts
    (field orders are capped at MAX_FIELD_ORDER).
    """
    if m < 1:
        raise ValueError(f"factor_integer requires m >= 1, got {m}")
    out: list[int] = []
    d = 2
    while d * d <= m:
        while m % d == 0:
            out.append(d)
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), coefficient lists in ascending order


def _poly_trim(a: Sequence[int]) -> list[int]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_rem(a: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    # remainder of a modulo f (f nonzero, trimmed)
    a = [c % p for c in a]
    lead_inv = pow(f[-1], -1, p)
    df = len(f) - 1
    while len(_poly_trim(a)) - 1 >= df:
        a = _poly_trim(a)
        shift = len(a) - 1 - df
        c = a[-1] * lead_inv % p
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - c * fi) % p
    return _poly_trim(a)


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_rem(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _poly_powmod(base: Sequence[int], e: int, f: Sequence[int], p: int) -> list[int]:
    result = [1]
    base = _poly_rem(base, f, p)
    while e:
        if e & 1:
            result = _poly_rem(_poly_mul(result, base, p), f, p)
        base = _poly_rem(_poly_mul(base, base, p), f, p)
        e >>= 1
    return result


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Rabin test: x^(p^k) = x mod f, and gcd(x^(p^(k/l)) - x, f) = 1 for
    every prime l dividing k."""
    f = _poly_trim([c % p for c in f])
    k = len(f) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    x = [0, 1]
    for ell in sorted(set(factor_integer(k))):
        h = _poly_powmod(x, p ** (k // ell), f, p)
        diff = _poly_trim([(hc - xc) % p for hc, xc in itertools.zip_longest(h, x, fillvalue=0)])
        if len(_poly_gcd(diff, f, p)) != 1:
            return False
    h = _poly_powmod(x, p**k, f, p)
    return _poly_trim([(hc - xc) % p for hc, xc in itertools.zip_longest(h, x, fillvalue=0)]) == []


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    # scan monic degree-k polynomials in lexicographic order of (c0,...,c_{k-1});
    # c0 = 0 is skipped: t divides those, so none is irreducible for k >= 2
    for tail in itertools.product(range(1, p), *[range(p)] * (k - 1)):
        f = list(tail) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # cannot happen


def _mulmod(a: tuple[int, ...], b: tuple[int, ...], modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    # product of two length-k coefficient tuples reduced by the monic modulus
    k = len(a)
    conv = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] = (conv[i + j] + ai * bj) % p
    for d in range(2 * k - 2, k - 1, -1):
        c = conv[d]
        if c:
            conv[d] = 0
            off = d - k
            for t in range(k):
                conv[off + t] = (conv[off + t] - c * modulus[t]) % p
    return tuple(conv[:k])


# ---------------------------------------------------------------------------


class Field(Record):
    """Descriptor of an exact field: GF(p), GF(p^k), or the rationals.

    Two fields compare equal iff kind, characteristic, degree and modulus
    all match.  Instances are immutable and hashable.
    """

    __slots__ = ("kind", "characteristic", "extension_degree", "modulus")

    def __init__(
        self, kind: str, characteristic: int, extension_degree: int = 1, modulus: tuple[int, ...] | None = None
    ):
        super().__init__(kind, characteristic, extension_degree, modulus)

    @property
    def order(self) -> int | None:
        """Number of elements, or None for the rationals."""
        if self.kind == RATIONAL:
            return None
        return self.characteristic**self.extension_degree

    @property
    def is_finite(self) -> bool:
        return self.kind != RATIONAL

    def zero(self) -> FieldElement:
        return self.element(0)

    def one(self) -> FieldElement:
        return self.element(1)

    def element(self, value) -> FieldElement:
        """Build an element from an int, a coefficient sequence (extension
        fields), or a Fraction (rationals)."""
        if self.kind == PRIME:
            if not isinstance(value, int):
                raise TypeError(f"prime-field element expects int, got {type(value).__name__}")
            return FieldElement(self, value % self.characteristic)
        if self.kind == EXTENSION:
            p = self.characteristic
            k = self.extension_degree
            if isinstance(value, int):
                coeffs = (value % p,) + (0,) * (k - 1)
            else:
                coeffs = tuple(int(c) % p for c in value)
                if len(coeffs) > k:
                    raise ValueError(f"at most {k} coefficients expected, got {len(coeffs)}")
                coeffs = coeffs + (0,) * (k - len(coeffs))
            return FieldElement(self, coeffs)
        if isinstance(value, Fraction):
            return FieldElement(self, value)
        if isinstance(value, int):
            return FieldElement(self, Fraction(value))
        raise TypeError(f"rational element expects int or Fraction, got {type(value).__name__}")

    def elements(self) -> Iterator[FieldElement]:
        """All elements of a finite field, in natural (coefficient) order."""
        if self.kind == PRIME:
            p = self.characteristic
            return (FieldElement(self, v) for v in range(p))
        if self.kind == EXTENSION:
            p, k = self.characteristic, self.extension_degree
            return (FieldElement(self, t) for t in itertools.product(range(p), repeat=k))
        raise ValueError("the rational field is not enumerable")

    def nonzero_elements(self) -> Iterator[FieldElement]:
        return (a for a in self.elements() if not a.is_zero())

    def random_element(self, rng, nonzero: bool = False) -> FieldElement:
        """Uniform random element (finite fields) or a small random fraction."""
        while True:
            if self.kind == PRIME:
                a = FieldElement(self, rng.randrange(self.characteristic))
            elif self.kind == EXTENSION:
                p, k = self.characteristic, self.extension_degree
                a = FieldElement(self, tuple(rng.randrange(p) for _ in range(k)))
            else:
                a = FieldElement(self, Fraction(rng.randint(-20, 20), rng.randint(1, 20)))
            if not (nonzero and a.is_zero()):
                return a

    def spec(self) -> str:
        """Canonical field spec text (parse_field_spec inverts this)."""
        if self.kind == PRIME:
            return f"gf:{self.characteristic}"
        if self.kind == EXTENSION:
            mod = ",".join(str(c) for c in self.modulus)
            return f"gf:{self.characteristic}^{self.extension_degree}:m={mod}"
        return "qq"

    def __str__(self) -> str:
        return self.spec()


def make_prime_field(p: int) -> Field:
    """The prime field GF(p)."""
    if p > MAX_FIELD_ORDER:
        raise FieldTooLarge(f"field order {p} exceeds ceiling {MAX_FIELD_ORDER}")
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return Field(PRIME, p)


def make_extension_field(p: int, k: int, modulus: Sequence[int] | None = None) -> Field:
    """GF(p^k), k >= 2.

    With no modulus the lexicographically smallest monic irreducible of
    degree k over GF(p) is chosen, so repeated calls agree.  A supplied
    modulus (ascending coefficients, length k+1, monic) is validated for
    irreducibility.
    """
    if k < 2:
        raise ValueError(f"extension degree must be >= 2, got {k}")
    # bound p and k before p**k and the primality test, which grow with them
    if p > MAX_FIELD_ORDER or k > MAX_FIELD_ORDER.bit_length() or p**k > MAX_FIELD_ORDER:
        raise FieldTooLarge(f"field order {p}^{k} exceeds ceiling {MAX_FIELD_ORDER}")
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if modulus is None:
        mod = _smallest_irreducible(p, k)
    else:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != k + 1 or mod[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {k} (ascending, {k + 1} coefficients)")
        if not _is_irreducible(mod, p):
            raise Reducible(f"modulus {list(mod)} factors over GF({p})")
    return Field(EXTENSION, p, k, mod)


_RATIONAL_FIELD = Field(RATIONAL, 0)


def make_rational_field() -> Field:
    """The field of rational numbers (characteristic 0)."""
    return _RATIONAL_FIELD


class FieldElement:
    """An element of a specific Field, in canonical representation."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, val):
        raise AttributeError("FieldElement is immutable")

    def _same_field(self, other: FieldElement) -> None:
        if not isinstance(other, FieldElement):
            raise TypeError(f"FieldElement expected, got {type(other).__name__}")
        if self.field != other.field:
            raise MixedFields(f"operands in different fields: {self.field} vs {other.field}")

    def is_zero(self) -> bool:
        if self.field.kind == EXTENSION:
            return not any(self.value)
        return self.value == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.field, self.value))

    def __add__(self, other: FieldElement) -> FieldElement:
        self._same_field(other)
        f = self.field
        if f.kind == PRIME:
            return FieldElement(f, (self.value + other.value) % f.characteristic)
        if f.kind == EXTENSION:
            p = f.characteristic
            return FieldElement(f, tuple((a + b) % p for a, b in zip(self.value, other.value)))
        return FieldElement(f, self.value + other.value)

    def __sub__(self, other: FieldElement) -> FieldElement:
        self._same_field(other)
        f = self.field
        if f.kind == PRIME:
            return FieldElement(f, (self.value - other.value) % f.characteristic)
        if f.kind == EXTENSION:
            p = f.characteristic
            return FieldElement(f, tuple((a - b) % p for a, b in zip(self.value, other.value)))
        return FieldElement(f, self.value - other.value)

    def __neg__(self) -> FieldElement:
        f = self.field
        if f.kind == PRIME:
            return FieldElement(f, -self.value % f.characteristic)
        if f.kind == EXTENSION:
            p = f.characteristic
            return FieldElement(f, tuple(-c % p for c in self.value))
        return FieldElement(f, -self.value)

    def __mul__(self, other: FieldElement) -> FieldElement:
        self._same_field(other)
        f = self.field
        if f.kind == PRIME:
            return FieldElement(f, self.value * other.value % f.characteristic)
        if f.kind == EXTENSION:
            return FieldElement(f, _mulmod(self.value, other.value, f.modulus, f.characteristic))
        return FieldElement(f, self.value * other.value)

    def inv(self) -> FieldElement:
        if self.is_zero():
            raise DivisionByZero("multiplicative inverse of zero")
        f = self.field
        if f.kind == PRIME:
            return FieldElement(f, pow(self.value, -1, f.characteristic))
        if f.kind == EXTENSION:
            return self ** (f.order - 2)
        return FieldElement(f, 1 / self.value)

    def __truediv__(self, other: FieldElement) -> FieldElement:
        self._same_field(other)
        return self * other.inv()

    def __pow__(self, e: int) -> FieldElement:
        if not isinstance(e, int):
            raise TypeError("exponent must be an int")
        f = self.field
        if e == 0:
            return f.one()  # 0^0 = 1 by convention
        if e < 0:
            return self.inv() ** (-e)
        if f.kind == PRIME:
            return FieldElement(f, pow(self.value, e, f.characteristic))
        if f.kind == RATIONAL:
            return FieldElement(f, self.value**e)
        result = f.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __str__(self) -> str:
        if self.field.kind == EXTENSION:
            return "[" + ",".join(str(c) for c in self.value) + "]"
        return str(self.value)

    def __repr__(self) -> str:
        return f"FieldElement({self}, {self.field})"


def multiplicative_order(a: FieldElement) -> OrderResult:
    """Least m >= 1 with a^m = 1, or infinite.

    Finite fields: m divides q - 1; starting from q - 1 each prime factor
    is divided out while the power still equals one.  Rationals: only 1 and
    -1 have finite order.
    """
    if a.is_zero():
        raise ZeroElement("zero has no multiplicative order")
    f = a.field
    one = f.one()
    if f.kind == RATIONAL:
        if a == one:
            return OrderResult.finite(1)
        if a == -one:
            return OrderResult.finite(2)
        return OrderResult.infinite()
    m = f.order - 1
    for ell in sorted(set(factor_integer(m))):
        while m % ell == 0 and a ** (m // ell) == one:
            m //= ell
    return OrderResult.finite(m)


class OrderResult(Record):
    """Multiplicative order of an element or matrix.

    kind is "finite" (value = the order), "infinite", or "exceeded"
    (value = the search cap a brute-force scan gave up at).
    """

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: int | None = None):
        super().__init__(kind, value)

    @classmethod
    def finite(cls, m: int) -> OrderResult:
        if m < 1:
            raise ValueError(f"finite order must be >= 1, got {m}")
        return cls("finite", m)

    @classmethod
    def infinite(cls) -> OrderResult:
        return cls("infinite")

    @classmethod
    def exceeded(cls, cap: int) -> OrderResult:
        return cls("exceeded", cap)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def is_infinite(self) -> bool:
        return self.kind == "infinite"

    @property
    def is_exceeded(self) -> bool:
        return self.kind == "exceeded"

    def to_json(self) -> dict:
        if self.kind == "finite":
            return {"order": self.value}
        if self.kind == "infinite":
            return {"order": "infinite"}
        return {"order": "exceeded", "cap": self.value}

    def __str__(self) -> str:
        if self.kind == "finite":
            return str(self.value)
        if self.kind == "infinite":
            return "infinite"
        return f"exceeded({self.value})"


# ---------------------------------------------------------------------------
# text forms


def parse_field_spec(text: str) -> Field:
    """Parse "gf:p", "gf:p^k", "gf:p^k:m=c0,c1,...,ck" or "qq"."""
    s = text.strip().lower()
    if s == "qq":
        return make_rational_field()
    if not s.startswith("gf:"):
        raise ParseError(f"unrecognized field spec {text!r}")
    parts = s[3:].split(":")
    base = parts[0]
    try:
        if "^" in base:
            p_text, k_text = base.split("^", 1)
            p, k = int(p_text), int(k_text)
        else:
            p, k = int(base), 1
    except ValueError:
        raise ParseError(f"bad field size in spec {text!r}") from None
    modulus: list[int] | None = None
    if len(parts) == 2:
        if not parts[1].startswith("m="):
            raise ParseError(f"expected m=... modulus clause in {text!r}")
        try:
            modulus = [int(c) for c in parts[1][2:].split(",")]
        except ValueError:
            raise ParseError(f"bad modulus coefficients in {text!r}") from None
    elif len(parts) > 2:
        raise ParseError(f"too many ':' sections in field spec {text!r}")
    if k == 1 and modulus is not None:
        raise ParseError(f"modulus given for a prime field in {text!r}")
    try:
        if k == 1:
            return make_prime_field(p)
        return make_extension_field(p, k, modulus)
    except (NotPrime, Reducible, FieldTooLarge, ValueError) as e:
        raise ParseError(f"invalid field spec {text!r}: {e}") from e


def parse_element(text: str, field: Field) -> FieldElement:
    """Parse the canonical element grammar for the given field.

    Prime fields take a decimal integer, extension fields a bracketed
    coefficient list like "[1,0]", the rationals "a" or "a/b".
    """
    s = text.strip()
    if field.kind == PRIME:
        try:
            return field.element(int(s))
        except ValueError:
            raise ParseError(f"bad prime-field element {text!r}") from None
    if field.kind == EXTENSION:
        if not (s.startswith("[") and s.endswith("]")):
            raise ParseError(f"extension element must be a bracketed list, got {text!r}")
        body = s[1:-1].strip()
        try:
            coeffs = [int(c) for c in body.split(",")] if body else [0]
        except ValueError:
            raise ParseError(f"bad coefficient in {text!r}") from None
        try:
            return field.element(coeffs)
        except ValueError as e:
            raise ParseError(f"bad extension element {text!r}: {e}") from None
    try:
        return field.element(Fraction(s))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational element {text!r}") from None
