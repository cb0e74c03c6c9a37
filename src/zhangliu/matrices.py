"""Dense exact square matrices and the four generalized Pascal families.

Entry formulas (1-based indices i, j, upper triangle j >= i, zero below):

* first kind   ``p1_matrix(y, n)``:  y^(j-i) * C(j-1, i-1)
* second kind  ``p2_matrix(x, n)``:  x^(j+i-2) * C(j-1, i-1),  x != 0
* Zhang-Liu    ``q_matrix(y, x, n)``: y^(j-i) * x^(j+i-2) * C(j-1, i-1)
* diagonal     ``d_matrix(alpha, n)``: alpha^(i-1) on the diagonal

With the 0^0 = 1 convention every family has a well-defined diagonal for
every parameter value.  Matrices are immutable; ``@`` multiplies, ``**``
powers, ``==`` compares entrywise, ``rank()`` runs exact Gaussian
elimination over the field.

A matrix stores its rows as raw values (``FieldElement.value``: an int
mod p, a coefficient tuple, or a Fraction).  The builders, ``@``, ``-``,
``==``, ``rank`` and the other whole-matrix operations run on them through
the field's arithmetic kernel (see ``fields``); ``@`` and ``apply`` are one
kernel ``matmul`` each, which over a finite field packs each row into one int.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

from .errors import DimensionMismatch, MixedFields, check_params
from .fields import Field, FieldElement, _power, parse_element, parse_field_spec


def binomial(m: int, r: int, field: Field) -> FieldElement:
    """Image of C(m, r) in the field; zero when r < 0 or r > m.

    The integer C(m, r) is mapped into the field by Z -> F, which is exact
    for every field kind (in characteristic p it reduces mod p).
    """
    if m < 0:
        raise ValueError(f"binomial requires m >= 0, got {m}")
    if r < 0 or r > m:
        return field.zero()
    return field.element(math.comb(m, r))


class SquareMatrix:
    """Immutable dense n x n matrix over one field.

    ``values`` holds the rows as raw values; ``rows``, ``m[i, j]``,
    ``column``, ``diagonal`` and ``apply`` hand out FieldElements.
    """

    __slots__ = ("field", "n", "values")

    def __init__(self, field: Field, rows: Sequence[Sequence[FieldElement]]):
        n = len(rows)
        check_params(n, minimum=1)
        for row in rows:
            if len(row) != n:
                raise DimensionMismatch(f"expected {n} columns, got {len(row)}")
            for e in row:
                if e.field != field:
                    raise MixedFields("matrix entries must share the parent field")
        self._set(field, tuple(tuple(e.value for e in row) for row in rows))

    @classmethod
    def from_values(cls, field: Field, values: tuple[tuple, ...]) -> SquareMatrix:
        """A matrix on rows of canonical raw values of ``field``, taken as they are."""
        check_params(len(values), minimum=1)
        m = object.__new__(cls)
        m._set(field, values)
        return m

    def _set(self, field: Field, values: tuple[tuple, ...]) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", len(values))
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, val):
        raise AttributeError("SquareMatrix is immutable")

    @property
    def rows(self) -> tuple[tuple[FieldElement, ...], ...]:
        f = self.field
        return tuple(tuple(FieldElement(f, v) for v in row) for row in self.values)

    def __getitem__(self, key: tuple[int, int]) -> FieldElement:
        i, j = key
        return FieldElement(self.field, self.values[i][j])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.field == other.field and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.field, self.values))

    def _compatible(self, other: SquareMatrix) -> None:
        if not isinstance(other, SquareMatrix):
            raise TypeError(f"SquareMatrix expected, got {type(other).__name__}")
        if self.field != other.field:
            raise MixedFields("matrix operands in different fields")
        if self.n != other.n:
            raise DimensionMismatch(f"dimensions {self.n} and {other.n} differ")

    def __matmul__(self, other: SquareMatrix) -> SquareMatrix:
        self._compatible(other)
        return SquareMatrix.from_values(self.field, self.field._kernel.matmul(self.values, other.values))

    def __sub__(self, other: SquareMatrix) -> SquareMatrix:
        self._compatible(other)
        sub = self.field._kernel.sub
        return SquareMatrix.from_values(
            self.field, tuple(tuple(map(sub, ra, rb)) for ra, rb in zip(self.values, other.values))
        )

    def __pow__(self, e: int) -> SquareMatrix:
        if not isinstance(e, int) or e < 0:
            raise ValueError("matrix exponent must be an integer >= 0")
        return _power(self, e, identity(self.field, self.n), operator.matmul)

    def column(self, j: int) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, row[j]) for row in self.values)

    def apply(self, vector: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
        """Matrix-vector product."""
        if len(vector) != self.n:
            raise DimensionMismatch(f"vector length {len(vector)} != {self.n}")
        f = self.field
        product = f._kernel.matmul(self.values, tuple((v.value,) for v in vector))
        return tuple(FieldElement(f, v) for (v,) in product)

    def is_identity(self) -> bool:
        kernel = self.field._kernel
        one, zero = kernel.one, kernel.zero
        return all(v == (one if i == j else zero) for i, row in enumerate(self.values) for j, v in enumerate(row))

    def is_upper_triangular(self) -> bool:
        zero = self.field._kernel.zero
        return all(self.values[i][j] == zero for i in range(self.n) for j in range(i))

    def diagonal(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, self.values[i][i]) for i in range(self.n))

    def rank(self) -> int:
        """Rank by exact Gaussian elimination over the field."""
        kernel = self.field._kernel
        zero, mul, sub = kernel.zero, kernel.mul, kernel.sub
        rows = list(self.values)
        n = self.n
        rank = 0
        for col in range(n):
            pivot = next((r for r in range(rank, n) if rows[r][col] != zero), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            top = rows[rank]
            inv = kernel.inv(top[col])
            for r in range(rank + 1, n):
                factor = rows[r][col]
                if factor == zero:
                    continue
                scale = mul(factor, inv)
                rows[r] = tuple(sub(a, mul(scale, b)) for a, b in zip(rows[r], top))
            rank += 1
        return rank

    def texts(self) -> list[list[str]]:
        """The canonical text of every entry, row by row."""
        text = self.field._kernel.text
        return [list(map(text, row)) for row in self.values]

    def row_texts(self) -> list[str]:
        return ["[" + ", ".join(row) + "]" for row in self.texts()]

    def __str__(self) -> str:
        return "\n".join(self.row_texts())

    def __repr__(self) -> str:
        return f"SquareMatrix({self.field}, n={self.n})"


def identity(field: Field, n: int) -> SquareMatrix:
    kernel = field._kernel
    one, zero = kernel.one, kernel.zero
    return SquareMatrix.from_values(field, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))


def _powers(kernel, a, count: int) -> list:
    # raw [a^0, a^1, ..., a^(count-1)] with a^0 = 1 even for a = 0
    out = [kernel.one]
    for _ in range(count - 1):
        out.append(kernel.mul(out[-1], a))
    return out


def p1_matrix(y: FieldElement, n: int) -> SquareMatrix:
    """Generalized Pascal matrix of the first kind, q_matrix(y, 1, n); unit upper triangular."""
    return q_matrix(y, y.field.one(), n)


def p2_matrix(x: FieldElement, n: int) -> SquareMatrix:
    """Pascal matrix of the second kind, q_matrix(1, x, n); requires x != 0."""
    return q_matrix(x.field.one(), x, n)


def q_matrix(y: FieldElement, x: FieldElement, n: int) -> SquareMatrix:
    """Zhang-Liu matrix; specializes to p1 (x=1), p2 (y=1) and d (y=0)."""
    check_params(n, x, minimum=1, y=y)
    f = x.field
    kernel, char = f._kernel, f.characteristic
    mul, scale, zero = kernel.mul, kernel.scale, kernel.zero
    comb = (lambda j, i: math.comb(j, i) % char) if char else math.comb
    # entry (i, j) is C(j, i) * (xy)^(j-i) * (x^2)^i, 0-based; C(j, i) = 0 for j < i
    xypow = _powers(kernel, mul(x.value, y.value), n)
    x2pow = _powers(kernel, mul(x.value, x.value), n)
    rows = tuple(
        tuple(scale(mul(xypow[j - i], x2pow[i]), c) if (c := comb(j, i)) else zero for j in range(n)) for i in range(n)
    )
    return SquareMatrix.from_values(f, rows)


def d_matrix(alpha: FieldElement, n: int) -> SquareMatrix:
    """Diagonal matrix with entries alpha^(i-1); the (1,1) entry is always 1."""
    check_params(n, minimum=1)
    f = alpha.field
    kernel = f._kernel
    apow = _powers(kernel, alpha.value, n)
    return SquareMatrix.from_values(
        f, tuple(tuple(apow[i] if i == j else kernel.zero for j in range(n)) for i in range(n))
    )


def matrix_to_json(m: SquareMatrix) -> dict:
    """JSON-ready dict: field spec, dimension, rows of element texts."""
    return {
        "field": m.field.spec(),
        "n": m.n,
        "rows": m.texts(),
    }


def matrix_from_json(obj: dict) -> SquareMatrix:
    """Inverse of matrix_to_json."""
    field = parse_field_spec(obj["field"])
    n = int(obj["n"])
    rows = obj["rows"]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionMismatch("rows do not form an n x n matrix")
    return SquareMatrix(field, [[parse_element(t, field) for t in row] for row in rows])
