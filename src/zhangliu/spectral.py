"""Eigen-decomposition of the Zhang-Liu family and the diagonalizability test.

For x outside {1, -1} the matrix q_matrix(y, x, n) is similar to the
diagonal d_matrix(x^2, n) via the unit upper-triangular p1_matrix(z, n)
with z = y*x / (x^2 - 1); the inverse of p1_matrix(z, n) is
p1_matrix(-z, n).  ``factorize_q`` constructs that triple, and
``eigenpairs`` reads it off: the eigenvalues (x^2)^(j-1) are the diagonal
of the middle factor and the eigenvectors are the columns of the left one.
``is_diagonalizable`` implements the closed-form criterion (x^2 != 1 or
y = 0) that ``diagonalizable_oracle`` double-checks by rank computations.

The two-sided test x^2 != 1 is used instead of comparing x against 1 and
-1 separately; in characteristic 2 the pair collapses to the single value
1 and the squared test handles that automatically.
"""

from __future__ import annotations

from .errors import NotTriangular, SingularParameter, check_params
from .fields import FieldElement
from .matrices import SquareMatrix, d_matrix, p1_matrix, q_matrix
from .records import Record


def z_parameter(y: FieldElement, x: FieldElement) -> FieldElement:
    """The similarity parameter y*x / (x^2 - 1); requires x != 0, x^2 != 1."""
    check_params(x=x, y=y)
    one = x.field.one()
    x2 = x * x
    if x2 == one:
        raise SingularParameter("x^2 = 1: y*x/(x^2 - 1) does not exist")
    return y * x * (x2 - one).inv()


class Decomposition(Record):
    """The similarity triple left * middle * right for q_matrix(y, x, n).

    left = p1_matrix(z, n), middle = d_matrix(x^2, n),
    right = p1_matrix(-z, n) = left^-1.
    """

    __slots__ = ("z", "left", "middle", "right", "source_y", "source_x", "n")

    def __init__(
        self,
        z: FieldElement,
        left: SquareMatrix,
        middle: SquareMatrix,
        right: SquareMatrix,
        source_y: FieldElement,
        source_x: FieldElement,
        n: int,
    ):
        super().__init__(z, left, middle, right, source_y, source_x, n)

    def to_json(self) -> dict:
        return {
            "field": self.z.field.spec(),
            "n": self.n,
            "y": str(self.source_y),
            "x": str(self.source_x),
            "z": str(self.z),
            "left": self.left.texts(),
            "middle": self.middle.texts(),
            "right": self.right.texts(),
            "verified": verify_factorization(self),
        }


def factorize_q(y: FieldElement, x: FieldElement, n: int) -> Decomposition:
    """Eigen-decomposition of q_matrix(y, x, n); requires x^2 != 1, n >= 2."""
    check_params(n)  # z_parameter checks x and y
    z = z_parameter(y, x)
    return Decomposition(
        z=z,
        left=p1_matrix(z, n),
        middle=d_matrix(x * x, n),
        right=p1_matrix(-z, n),
        source_y=y,
        source_x=x,
        n=n,
    )


def verify_factorization(d: Decomposition) -> bool:
    """True iff left*middle*right recomposes the source matrix exactly and
    left*right is the identity.  False signals an implementation bug."""
    if not (d.left @ d.right).is_identity():
        return False
    return d.left @ d.middle @ d.right == q_matrix(d.source_y, d.source_x, d.n)


def eigenpairs(
    y: FieldElement, x: FieldElement, n: int
) -> list[tuple[FieldElement, tuple[FieldElement, ...]]]:
    """The n exact eigenpairs of q_matrix(y, x, n) for x^2 != 1.

    Read off factorize_q: pair j (1-based) is entry j of the diagonal
    d_matrix(x^2, n), which is (x^2)^(j-1), with column j of p1_matrix(z, n).
    Eigenvalues repeat when the order of x^2 is below n; the vectors are
    columns of a unit upper-triangular matrix, hence always independent.
    """
    d = factorize_q(y, x, n)
    return [(lam, d.left.column(j)) for j, lam in enumerate(d.middle.diagonal())]


def is_diagonalizable(y: FieldElement, x: FieldElement, n: int) -> bool:
    """Closed-form criterion: x^2 != 1 or y = 0.  No matrix is built."""
    check_params(n, x, y=y)
    return x * x != x.field.one() or y.is_zero()


def diagonalizable_oracle(m: SquareMatrix) -> bool:
    """Rank-based diagonalizability check for an upper-triangular matrix.

    The eigenvalues are the diagonal entries; the matrix is diagonalizable
    iff the geometric multiplicities n - rank(M - lambda*I) summed over the
    distinct diagonal values reach n.
    """
    if not m.is_upper_triangular():
        raise NotTriangular("oracle requires an upper-triangular matrix")
    sub = m.field._kernel.sub
    total = 0
    for lam in dict.fromkeys(m.values[i][i] for i in range(m.n)):
        shifted = tuple(
            tuple(sub(v, lam) if i == j else v for j, v in enumerate(row)) for i, row in enumerate(m.values)
        )
        total += m.n - SquareMatrix.from_values(m.field, shifted).rank()
    return total == m.n
