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
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import DimensionMismatch, MixedFields, ZeroParameter
from .fields import Field, FieldElement, parse_element, parse_field_spec


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
    """Immutable dense n x n matrix of FieldElements sharing one field."""

    __slots__ = ("field", "n", "rows")

    def __init__(self, field: Field, rows: Sequence[Sequence[FieldElement]]):
        n = len(rows)
        if n < 1:
            raise ValueError("matrix dimension must be >= 1")
        frozen = []
        for row in rows:
            if len(row) != n:
                raise DimensionMismatch(f"expected {n} columns, got {len(row)}")
            for e in row:
                if e.field != field:
                    raise MixedFields("matrix entries must share the parent field")
            frozen.append(tuple(row))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(frozen))

    def __setattr__(self, name, val):
        raise AttributeError("SquareMatrix is immutable")

    def __getitem__(self, key: tuple[int, int]) -> FieldElement:
        i, j = key
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.field, self.rows))

    def _compatible(self, other: SquareMatrix) -> None:
        if not isinstance(other, SquareMatrix):
            raise TypeError(f"SquareMatrix expected, got {type(other).__name__}")
        if self.field != other.field:
            raise MixedFields("matrix operands in different fields")
        if self.n != other.n:
            raise DimensionMismatch(f"dimensions {self.n} and {other.n} differ")

    def __matmul__(self, other: SquareMatrix) -> SquareMatrix:
        self._compatible(other)
        n = self.n
        zero = self.field.zero()
        brows = other.rows
        out = []
        for arow in self.rows:
            orow = []
            for j in range(n):
                acc = zero
                for k in range(n):
                    aik = arow[k]
                    if aik.is_zero():
                        continue
                    bkj = brows[k][j]
                    if bkj.is_zero():
                        continue
                    acc = acc + aik * bkj
                orow.append(acc)
            out.append(orow)
        return SquareMatrix(self.field, out)

    def __sub__(self, other: SquareMatrix) -> SquareMatrix:
        self._compatible(other)
        return SquareMatrix(
            self.field,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __pow__(self, e: int) -> SquareMatrix:
        if not isinstance(e, int) or e < 0:
            raise ValueError("matrix exponent must be an integer >= 0")
        result = identity(self.field, self.n)
        base = self
        while e:
            if e & 1:
                result = result @ base
            e >>= 1
            if e:
                base = base @ base
        return result

    def column(self, j: int) -> tuple[FieldElement, ...]:
        return tuple(row[j] for row in self.rows)

    def apply(self, vector: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
        """Matrix-vector product."""
        if len(vector) != self.n:
            raise DimensionMismatch(f"vector length {len(vector)} != {self.n}")
        zero = self.field.zero()
        out = []
        for row in self.rows:
            acc = zero
            for a, v in zip(row, vector):
                if not (a.is_zero() or v.is_zero()):
                    acc = acc + a * v
            out.append(acc)
        return tuple(out)

    def is_identity(self) -> bool:
        one = self.field.one()
        for i, row in enumerate(self.rows):
            for j, e in enumerate(row):
                if i == j:
                    if e != one:
                        return False
                elif not e.is_zero():
                    return False
        return True

    def is_upper_triangular(self) -> bool:
        return all(self.rows[i][j].is_zero() for i in range(self.n) for j in range(i))

    def diagonal(self) -> tuple[FieldElement, ...]:
        return tuple(self.rows[i][i] for i in range(self.n))

    def rank(self) -> int:
        """Rank by exact Gaussian elimination over the field."""
        rows = [list(r) for r in self.rows]
        n = self.n
        rank = 0
        for col in range(n):
            pivot = next((r for r in range(rank, n) if not rows[r][col].is_zero()), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            inv = rows[rank][col].inv()
            for r in range(rank + 1, n):
                factor = rows[r][col]
                if factor.is_zero():
                    continue
                scale = factor * inv
                rows[r] = [a - scale * b for a, b in zip(rows[r], rows[rank])]
            rank += 1
        return rank

    def row_texts(self) -> list[str]:
        return ["[" + ", ".join(str(e) for e in row) + "]" for row in self.rows]

    def __str__(self) -> str:
        return "\n".join(self.row_texts())

    def __repr__(self) -> str:
        return f"SquareMatrix({self.field}, n={self.n})"


def identity(field: Field, n: int) -> SquareMatrix:
    one, zero = field.one(), field.zero()
    return SquareMatrix(field, [[one if i == j else zero for j in range(n)] for i in range(n)])


def _powers(a: FieldElement, count: int) -> list[FieldElement]:
    # [a^0, a^1, ..., a^(count-1)] with a^0 = 1 even for a = 0
    out = [a.field.one()]
    for _ in range(count - 1):
        out.append(out[-1] * a)
    return out


def p1_matrix(y: FieldElement, n: int) -> SquareMatrix:
    """Generalized Pascal matrix of the first kind, q_matrix(y, 1, n); unit upper triangular."""
    return q_matrix(y, y.field.one(), n)


def p2_matrix(x: FieldElement, n: int) -> SquareMatrix:
    """Pascal matrix of the second kind, q_matrix(1, x, n); requires x != 0."""
    return q_matrix(x.field.one(), x, n)


def q_matrix(y: FieldElement, x: FieldElement, n: int) -> SquareMatrix:
    """Zhang-Liu matrix; specializes to p1 (x=1), p2 (y=1) and d (y=0)."""
    if x.is_zero():
        raise ZeroParameter("x must be nonzero")
    if n < 1:
        raise ValueError("n must be >= 1")
    if y.field != x.field:
        raise MixedFields("y and x must share a field")
    f = x.field
    zero = f.zero()
    ypow = _powers(y, n)
    xpow = _powers(x, 2 * n - 1)
    rows = [
        [ypow[j - i] * xpow[j + i] * binomial(j, i, f) if j >= i else zero for j in range(n)]
        for i in range(n)
    ]
    return SquareMatrix(f, rows)


def d_matrix(alpha: FieldElement, n: int) -> SquareMatrix:
    """Diagonal matrix with entries alpha^(i-1); the (1,1) entry is always 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    f = alpha.field
    zero = f.zero()
    apow = _powers(alpha, n)
    return SquareMatrix(f, [[apow[i] if i == j else zero for j in range(n)] for i in range(n)])


def matrix_to_json(m: SquareMatrix) -> dict:
    """JSON-ready dict: field spec, dimension, rows of element texts."""
    return {
        "field": m.field.spec(),
        "n": m.n,
        "rows": [[str(e) for e in row] for row in m.rows],
    }


def matrix_from_json(obj: dict) -> SquareMatrix:
    """Inverse of matrix_to_json."""
    field = parse_field_spec(obj["field"])
    n = int(obj["n"])
    rows = obj["rows"]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionMismatch("rows do not form an n x n matrix")
    return SquareMatrix(field, [[parse_element(t, field) for t in row] for row in rows])
