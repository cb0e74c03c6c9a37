"""Exact eigen-decomposition and orders of generalized Pascal matrix families.

Builds the first-kind (p1), second-kind (p2), Zhang-Liu (q) and diagonal
(d) matrix families over GF(p), GF(p^k) and the rationals; factorizes
q_matrix(y, x, n) as p1(z) * d(x^2) * p1(-z); decides diagonalizability;
and computes matrix orders by closed formula with an independent
brute-force oracle.
"""

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    FieldTooLarge,
    InfiniteField,
    MixedFields,
    NotPrime,
    NotTriangular,
    OutOfRange,
    ParseError,
    Reducible,
    SingularParameter,
    ZeroElement,
    ZeroParameter,
    ZhangLiuError,
)
from .fields import (
    Field,
    FieldElement,
    OrderResult,
    factor_integer,
    make_extension_field,
    make_prime_field,
    make_rational_field,
    multiplicative_order,
    parse_element,
    parse_field_spec,
)
from .matrices import (
    SquareMatrix,
    binomial,
    d_matrix,
    identity,
    matrix_from_json,
    matrix_to_json,
    p1_matrix,
    p2_matrix,
    q_matrix,
)
from .orders import oracle_agrees, p1_order, p2_order, q_order, q_order_bruteforce
from .spectral import (
    Decomposition,
    diagonalizable_oracle,
    eigenpairs,
    factorize_q,
    is_diagonalizable,
    verify_factorization,
    z_parameter,
)

__version__ = "0.1.0"

__all__ = [
    "Decomposition",
    "DimensionMismatch",
    "DivisionByZero",
    "Field",
    "FieldElement",
    "FieldTooLarge",
    "InfiniteField",
    "MixedFields",
    "NotPrime",
    "NotTriangular",
    "OrderResult",
    "OutOfRange",
    "ParseError",
    "Reducible",
    "SingularParameter",
    "SquareMatrix",
    "ZeroElement",
    "ZeroParameter",
    "ZhangLiuError",
    "binomial",
    "d_matrix",
    "diagonalizable_oracle",
    "eigenpairs",
    "factor_integer",
    "factorize_q",
    "identity",
    "is_diagonalizable",
    "make_extension_field",
    "make_prime_field",
    "make_rational_field",
    "matrix_from_json",
    "matrix_to_json",
    "multiplicative_order",
    "oracle_agrees",
    "p1_matrix",
    "p1_order",
    "p2_matrix",
    "p2_order",
    "parse_element",
    "parse_field_spec",
    "q_matrix",
    "q_order",
    "q_order_bruteforce",
    "verify_factorization",
    "z_parameter",
]
