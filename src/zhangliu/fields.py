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

Each field holds one kernel for its kind, which owns those raw values.
It builds, enumerates, draws, names and parses them: ``element(value)``
(from an int, a coefficient sequence or a Fraction), ``elements()``,
``random(rng)``, ``spec()`` and ``parse(text)``.  It does their arithmetic:
``zero``, ``one``, ``add``, ``sub``, ``neg``, ``mul``, ``inv``, ``pow``,
``scale`` (by an int), ``text`` and ``matmul(A, B)`` on rows of values.
Values are canonical, so ``v == zero`` decides zero.  ``Field`` and
FieldElement unwrap, call the kernel and wrap the result; the matrix layer
calls it on raw rows:

* prime: ints reduced by ``% p``; ``matmul`` packs each row of B into one
  int, so row i of A*B is one sum of a_ik * packed(B_k), unpacked once.
* extension: schoolbook products reduced by the modulus; the inverse by
  extended Euclid in GF(p)[t]; ``matmul`` packs rows the same way, unpacks
  each entry's unreduced product once and reduces it as ``mul`` does (see
  ``_ExtensionKernel``).
* rational: ``Fraction`` arithmetic; ``matmul`` multiplies integer rows
  over one common denominator per operand.

Field spec grammar: ``gf:p`` | ``gf:p^k`` (auto modulus) |
``gf:p^k:m=c0,c1,...,ck`` (explicit ascending modulus) | ``qq``.
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
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


def _poly_xgcd(a: Sequence[int], f: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """(g, s) with g a gcd of a and f and s*a = g mod f, by extended Euclid
    on the rows (r, s) of s*a = r mod f."""
    r0, s0 = _poly_trim(f), []
    r1, s1 = _poly_trim(a), [1]
    while r1:
        lead_inv = pow(r1[-1], -1, p)
        while len(r0) >= len(r1):
            c = r0[-1] * lead_inv % p
            shift = len(r0) - len(r1)
            for i, v in enumerate(r1):
                r0[shift + i] = (r0[shift + i] - c * v) % p
            s0 += [0] * (shift + len(s1) - len(s0))
            for i, v in enumerate(s1):
                s0[shift + i] = (s0[shift + i] - c * v) % p
            r0 = _poly_trim(r0)
        r0, s0, r1, s1 = r1, s1, r0, s0
    return r0, _poly_trim(s0)


def _power(a, e: int, one, mul):
    """a^e for an int e >= 0 by square-and-multiply, with ``one`` as a^0."""
    result = one
    while e:
        if e & 1:
            result = mul(result, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return result


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Rabin test for a monic f of degree k >= 2 with coefficients in [0, p):
    x^(p^k) = x mod f, and gcd(x^(p^(k/l)) - x, f) = 1 for every prime l
    dividing k.  The powers are taken in GF(p)[t]/(f)."""
    k = len(f) - 1
    ring = _ExtensionKernel(p, f)
    x = (0, 1) + (0,) * (k - 2)
    for ell in sorted(set(factor_integer(k))):
        gcd, _ = _poly_xgcd(ring.sub(ring.pow(x, p ** (k // ell)), x), f, p)
        if len(gcd) != 1:
            return False
    return ring.pow(x, p**k) == x


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    # scan monic degree-k polynomials in lexicographic order of (c0,...,c_{k-1});
    # c0 = 0 is skipped: t divides those, so none is irreducible for k >= 2
    for tail in itertools.product(range(1, p), *[range(p)] * (k - 1)):
        f = list(tail) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # cannot happen


# ---------------------------------------------------------------------------
# packed rows: ints in [0, 2**w), w bits each in one int, so that one big-int product does the
# work of many small ones.  Slot width in bits -> little-endian struct code, wider slots go one by one.
_TYPECODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _slot_width(bound: int) -> int:
    """Bits per slot for values up to ``bound``: a power of two >= 8, so that up to 64 bits packing runs in C."""
    return 1 << max(3, (bound.bit_length() - 1).bit_length())


def _pack(values, w: int) -> int:
    """The int holding the i-th of ``values`` in bits [w*i, w*(i+1))."""
    if w in _TYPECODES:
        return int.from_bytes(struct.pack(f"<{len(values)}{_TYPECODES[w]}", *values), "little")
    return int.from_bytes(b"".join(v.to_bytes(w // 8, "little") for v in values), "little")


def _unpack(s: int, count: int, w: int):
    """The ``count`` slots of a packed int, lowest first."""
    data = s.to_bytes(count * w // 8, "little")
    if w in _TYPECODES:
        return struct.unpack(f"<{count}{_TYPECODES[w]}", data)
    return [int.from_bytes(data[i : i + w // 8], "little") for i in range(0, len(data), w // 8)]


# ---------------------------------------------------------------------------
# kernels: one per field kind, owning the raw values FieldElement.value holds.
# Field, FieldElement's operators and the matrix layer all call them.


class _PrimeKernel:
    """GF(p) on ints in [0, p)."""

    __slots__ = ("p",)
    zero, one = 0, 1
    text = str

    def __init__(self, p: int):
        self.p = p

    def element(self, value) -> int:
        if not isinstance(value, int):
            raise TypeError(f"prime-field element expects int, got {type(value).__name__}")
        return value % self.p

    def elements(self) -> range:
        return range(self.p)

    def random(self, rng) -> int:
        return rng.randrange(self.p)

    def spec(self) -> str:
        return f"gf:{self.p}"

    def parse(self, text: str) -> int:
        try:
            return int(text) % self.p
        except ValueError:
            raise ParseError(f"bad prime-field element {text!r}") from None

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        return pow(a, -1, self.p)

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self.p)

    scale = mul

    def matmul(self, A, B) -> tuple[tuple[int, ...], ...]:
        p, m = self.p, len(B[0])
        w = _slot_width(len(B) * (p - 1) ** 2)  # a slot of sum_k a_ik * packed(B_k) sums len(B) products
        packed = [_pack(row, w) for row in B]
        return tuple(tuple([v % p for v in _unpack(sum([a * b for a, b in zip(r, packed) if a]), m, w)]) for r in A)


class _RationalKernel:
    """QQ on reduced Fractions."""

    __slots__ = ()
    zero, one = Fraction(0), Fraction(1)
    text = str
    add, sub, neg, mul, pow, scale = operator.add, operator.sub, operator.neg, operator.mul, operator.pow, operator.mul

    def element(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"rational element expects int or Fraction, got {type(value).__name__}")

    def elements(self):
        raise ValueError("the rational field is not enumerable")

    def random(self, rng) -> Fraction:
        return Fraction(rng.randint(-20, 20), rng.randint(1, 20))

    def spec(self) -> str:
        return "qq"

    def parse(self, text: str) -> Fraction:
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational element {text!r}") from None

    def inv(self, a: Fraction) -> Fraction:
        return 1 / a

    def matmul(self, A, B) -> tuple[tuple[Fraction, ...], ...]:
        # integer rows over one common denominator per operand, one Fraction per entry
        da, db = (math.lcm(*[v.denominator for row in M for v in row]) for M in (A, B))
        ia = [[v.numerator * (da // v.denominator) for v in row] for row in A]
        cols = list(zip(*[[v.numerator * (db // v.denominator) for v in row] for row in B]))
        return tuple(tuple(Fraction(sum(map(operator.mul, r, c)), da * db) for c in cols) for r in ia)


class _ExtensionKernel:
    """GF(p)[t]/(f) for a monic f of degree k, on length-k coefficient tuples.

    Every product is reduced by f in ``_reduce``, the one place that knows
    how.  ``matmul`` packs each row of B into one int, each entry a block of
    2k-1 slots with its k coefficients at the bottom, and each entry of A
    alike.  Row i of A*B is then sum_k a_ik * packed(B_k), every slot at
    most n*k*(p-1)**2, so slots as wide as that bound never carry; each
    block is unpacked, taken mod p and passed to ``_reduce``.
    """

    __slots__ = ("p", "k", "modulus", "zero", "one", "low_terms")

    def __init__(self, p: int, modulus: Sequence[int]):
        k = len(modulus) - 1
        self.p, self.k, self.modulus = p, k, tuple(modulus)
        self.zero = (0,) * k
        self.one = (1,) + self.zero[1:]
        self.low_terms = tuple((t, c) for t, c in enumerate(self.modulus[:k]) if c)

    def element(self, value) -> tuple[int, ...]:
        p, k = self.p, self.k
        if isinstance(value, int):
            return (value % p,) + self.zero[1:]
        coeffs = tuple(int(c) % p for c in value)
        if len(coeffs) > k:
            raise ValueError(f"at most {k} coefficients expected, got {len(coeffs)}")
        return coeffs + self.zero[len(coeffs) :]

    def elements(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(range(self.p), repeat=self.k)

    def random(self, rng) -> tuple[int, ...]:
        p = self.p
        return tuple(rng.randrange(p) for _ in range(self.k))

    def spec(self) -> str:
        return f"gf:{self.p}^{self.k}:m=" + ",".join(map(str, self.modulus))

    def parse(self, text: str) -> tuple[int, ...]:
        s = text.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ParseError(f"extension element must be a bracketed list, got {text!r}")
        body = s[1:-1].strip()
        try:
            coeffs = [int(c) for c in body.split(",")] if body else [0]
        except ValueError:
            raise ParseError(f"bad coefficient in {text!r}") from None
        try:
            return self.element(coeffs)
        except ValueError as e:
            raise ParseError(f"bad extension element {text!r}: {e}") from None

    def text(self, a) -> str:
        return "[" + ",".join(map(str, a)) + "]"

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        p = self.p
        conv = [0] * (2 * self.k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] = (conv[i + j] + ai * bj) % p
        return self._reduce(conv)

    def _reduce(self, conv: list[int]) -> tuple[int, ...]:
        # conv: 2k - 1 coefficients in [0, p), reduced by the monic modulus in place
        p, k, low_terms = self.p, self.k, self.low_terms
        for d in range(2 * k - 2, k - 1, -1):
            c = conv[d]
            if c:
                off = d - k
                for t, m in low_terms:
                    conv[off + t] = (conv[off + t] - c * m) % p
        return tuple(conv[:k])

    def scale(self, a, c: int):
        return tuple(v * c % self.p for v in a)

    def inv(self, a):
        gcd, s = _poly_xgcd(a, self.modulus, self.p)  # gcd is a nonzero constant
        c = pow(gcd[0], -1, self.p)
        return tuple(v * c % self.p for v in s) + self.zero[len(s) :]

    def pow(self, a, e: int):
        # e >= 0: FieldElement.__pow__ turns a negative exponent into one of the inverse
        return _power(a, e, self.one, self.mul)

    def matmul(self, A, B):
        p, k, zero, reduce = self.p, self.k, self.zero, self._reduce
        span, m, pad = 2 * k - 1, len(B[0]), zero[1:]
        w = _slot_width(len(B) * k * (p - 1) ** 2)  # a slot of sum_k a_ik * packed(B_k) sums len(B) * k products
        packed = [_pack([*itertools.chain(*map(operator.add, row, itertools.repeat(pad)))], w) for row in B]
        out = []
        for row in A:
            slots = _unpack(sum([_pack(a, w) * b for a, b in zip(row, packed) if a != zero]), m * span, w)
            out.append(tuple([reduce([v % p for v in slots[j : j + span]]) for j in range(0, m * span, span)]))
        return tuple(out)


# ---------------------------------------------------------------------------


class Field(Record):
    """Descriptor of an exact field: GF(p), GF(p^k), or the rationals.

    Two fields compare equal iff kind, characteristic, degree and modulus
    all match.  Instances are immutable and hashable.  Each holds the
    kernel of its kind, which owns its values and their arithmetic; it is
    built from those four and not part of equality, hashing or repr.  It
    validates as ``make_*_field`` document, and a kind it does not know, or
    a degree or modulus that does not fit the kind, raises ValueError.
    """

    __slots__ = ("kind", "characteristic", "extension_degree", "modulus", "_kernel")

    def __init__(
        self, kind: str, characteristic: int, extension_degree: int = 1, modulus: Sequence[int] | None = None
    ):
        p, k = characteristic, extension_degree
        if kind == RATIONAL and (p, k, modulus) == (0, 1, None):
            kernel = _RationalKernel()
        elif kind == PRIME and (k, modulus) == (1, None) or kind == EXTENSION:
            if kind == EXTENSION and k < 2:
                raise ValueError(f"extension degree must be >= 2, got {k}")
            # bound p and k before p**k and the primality test, which grow with them
            if p > MAX_FIELD_ORDER or k > MAX_FIELD_ORDER.bit_length() or p**k > MAX_FIELD_ORDER:
                raise FieldTooLarge(f"field order {p if k == 1 else f'{p}^{k}'} exceeds ceiling {MAX_FIELD_ORDER}")
            if not (p >= 2 and factor_integer(p) == [p]):
                raise NotPrime(f"{p} is not prime")
            if kind == EXTENSION and modulus is None:
                modulus = _smallest_irreducible(p, k)
            elif kind == EXTENSION:
                modulus = tuple(int(c) % p for c in modulus)
                if len(modulus) != k + 1 or modulus[-1] != 1:
                    raise ValueError(f"modulus must be monic of degree {k} (ascending, {k + 1} coefficients)")
                if not _is_irreducible(modulus, p):
                    raise Reducible(f"modulus {list(modulus)} factors over GF({p})")
            kernel = _ExtensionKernel(p, modulus) if kind == EXTENSION else _PrimeKernel(p)
        else:
            raise ValueError(f"no {kind!r} field has characteristic {p}, degree {k} and modulus {modulus}")
        super().__init__(kind, p, k, modulus)
        object.__setattr__(self, "_kernel", kernel)

    @property
    def order(self) -> int | None:
        """Number of elements, or None for the rationals (characteristic 0)."""
        return self.characteristic**self.extension_degree if self.characteristic else None

    @property
    def is_finite(self) -> bool:
        return self.characteristic != 0

    def zero(self) -> FieldElement:
        return FieldElement(self, self._kernel.zero)

    def one(self) -> FieldElement:
        return FieldElement(self, self._kernel.one)

    def element(self, value) -> FieldElement:
        """Build an element from an int, a coefficient sequence (extension
        fields), or a Fraction (rationals)."""
        return FieldElement(self, self._kernel.element(value))

    def elements(self) -> Iterator[FieldElement]:
        """All elements of a finite field, in natural (coefficient) order."""
        return (FieldElement(self, v) for v in self._kernel.elements())

    def nonzero_elements(self) -> Iterator[FieldElement]:
        return (a for a in self.elements() if not a.is_zero())

    def random_element(self, rng, nonzero: bool = False) -> FieldElement:
        """Uniform random element (finite fields) or a small random fraction."""
        kernel = self._kernel
        while True:
            v = kernel.random(rng)
            if not (nonzero and v == kernel.zero):
                return FieldElement(self, v)

    def spec(self) -> str:
        """Canonical field spec text (parse_field_spec inverts this)."""
        return self._kernel.spec()

    def __str__(self) -> str:
        return self.spec()


def make_prime_field(p: int) -> Field:
    """The prime field GF(p)."""
    return Field(PRIME, p)


def make_extension_field(p: int, k: int, modulus: Sequence[int] | None = None) -> Field:
    """GF(p^k), k >= 2.

    With no modulus the lexicographically smallest monic irreducible of
    degree k over GF(p) is chosen, so repeated calls agree.  A supplied
    modulus (ascending coefficients, length k+1, monic) is validated for
    irreducibility.
    """
    return Field(EXTENSION, p, k, modulus)


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

    def _kernel_with(self, other: FieldElement):
        # the kernel of the field both operands share
        if not isinstance(other, FieldElement):
            raise TypeError(f"FieldElement expected, got {type(other).__name__}")
        f = self.field
        if other.field is not f and other.field != f:
            raise MixedFields(f"operands in different fields: {f} vs {other.field}")
        return f._kernel

    def is_zero(self) -> bool:
        return self.value == self.field._kernel.zero

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.field, self.value))

    def __add__(self, other: FieldElement) -> FieldElement:
        return FieldElement(self.field, self._kernel_with(other).add(self.value, other.value))

    def __sub__(self, other: FieldElement) -> FieldElement:
        return FieldElement(self.field, self._kernel_with(other).sub(self.value, other.value))

    def __neg__(self) -> FieldElement:
        return FieldElement(self.field, self.field._kernel.neg(self.value))

    def __mul__(self, other: FieldElement) -> FieldElement:
        return FieldElement(self.field, self._kernel_with(other).mul(self.value, other.value))

    def inv(self) -> FieldElement:
        if self.is_zero():
            raise DivisionByZero("multiplicative inverse of zero")
        return FieldElement(self.field, self.field._kernel.inv(self.value))

    def __truediv__(self, other: FieldElement) -> FieldElement:
        self._kernel_with(other)
        return self * other.inv()

    def __pow__(self, e: int) -> FieldElement:
        if not isinstance(e, int):
            raise TypeError("exponent must be an int")
        if e < 0:
            return self.inv() ** (-e)
        return FieldElement(self.field, self.field._kernel.pow(self.value, e))  # a ** 0 = 1, also for 0

    def __str__(self) -> str:
        return self.field._kernel.text(self.value)

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
    if not f.is_finite:
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
    return FieldElement(field, field._kernel.parse(text))
