"""The library's invariants, each written once, and the ``selftest`` command.

Contract of a check: every function named ``check_*`` is one invariant.  It
takes its domain as arguments (a field, a dimension n, a sample count or an
upper bound) and yields one ``(ok, detail)`` pair per comparison it makes:
``ok`` is a bool, and ``detail`` is a tuple that locates the comparison.
Sampled inputs come from a random generator seeded by the field and the
dimension but not the count, so every run draws the same inputs and a
larger count draws the smaller count's inputs first.

``SUITES`` lists the desk-scale domains that ``zhangliu selftest`` runs (under a
second); ``tests/test_invariants.py`` runs the same functions on larger ones.
The oracles ``_naive_ext_mul``, ``_lucas`` and ``_q_formula`` share no code with what they check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

from .census import CSV_HEADER, census_csv, census_json, census_rows
from .errors import SingularParameter
from .fields import factor_integer, make_extension_field, make_prime_field, make_rational_field
from .fields import multiplicative_order, parse_element, parse_field_spec
from .matrices import binomial, d_matrix, identity, matrix_from_json, matrix_to_json, p1_matrix, p2_matrix, q_matrix
from .orders import oracle_agrees, p1_order, p2_order, q_order, q_order_bruteforce
from .spectral import diagonalizable_oracle, eigenpairs, factorize_q, is_diagonalizable, verify_factorization
from .spectral import z_parameter


class SuiteReport:
    """The comparisons one suite made, and a line of text for each that failed."""

    def __init__(self, name: str):
        self.name, self.checks, self.failures = name, 0, []

    def run(self, check, *domain) -> None:
        """Run one check on one domain and count its comparisons."""
        for ok, detail in check(*domain):
            self.checks += 1
            if not ok:
                args = ", ".join(map(str, domain))
                self.failures.append(f"{check.__name__}({args}): fails at {', '.join(map(str, detail))}")


def _elements(field, samples=None, *seed) -> list:
    """Every element of a finite field, or ``samples`` seeded random ones."""
    if samples is None:
        return list(field.elements())
    rng = random.Random(f"{field.spec()}/{seed}")
    return [field.random_element(rng) for _ in range(samples)]


def _pairs(field, samples=None, *seed) -> list:
    """Every (y, x) with x != 0 of a finite field, or ``samples`` seeded random ones."""
    if samples is None:
        return [(y, x) for y in field.elements() for x in field.nonzero_elements()]
    rng = random.Random(f"{field.spec()}/{seed}")
    return [(field.random_element(rng), field.random_element(rng, nonzero=True)) for _ in range(samples)]


def _refused(fn, *args) -> bool:
    """Whether fn(*args) raises SingularParameter, as it must where x^2 = 1."""
    try:
        fn(*args)
    except SingularParameter:
        return True
    return False


def _naive_ext_mul(a, b):
    """Independent extension-field product: integer convolution, then long division by the modulus."""
    f = a.field
    p, k, mod = f.characteristic, f.extension_degree, list(f.modulus)
    conv = [0] * (2 * k - 1)
    for i, ai in enumerate(a.value):
        for j, bj in enumerate(b.value):
            conv[i + j] += ai * bj
    conv = [c % p for c in conv]
    while len(conv) > k:
        lead = conv[-1]
        shift = len(conv) - 1 - k
        for t in range(k + 1):
            conv[shift + t] = (conv[shift + t] - lead * mod[t]) % p
        conv.pop()
    return f.element(conv)


def _q_formula(y, x, n):
    """The rows of q(y, x) from its entries C(j, i) * y^(j-i) * x^(i+j), 0-based, with 0^0 = 1."""
    f = x.field
    entry = lambda i, j: binomial(j, i, f) * y ** (j - i) * x ** (i + j) if j >= i else f.zero()  # noqa: E731
    return tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))


def _lucas(m, r, p):
    """Binomial coefficient mod p by the base-p digit product."""
    out = 1
    while m or r:
        mi, ri = m % p, r % p
        if ri > mi:
            return 0
        out = out * math.comb(mi, ri) % p
        m //= p
        r //= p
    return out


def check_element_orders(field):
    """For every a != 0 with m = ord(a): a^m = 1, m divides q - 1, m/l fails
    for each prime l dividing m, and inv(a) * a = 1."""
    one = field.one()
    for a in field.nonzero_elements():
        m = (res := multiplicative_order(a)).value
        yield res.is_finite and a**m == one and (field.order - 1) % m == 0, ("order", a, m)
        yield all(a ** (m // ell) != one for ell in set(factor_integer(m))), ("not minimal", a, m)
        yield a.inv() * a == one, ("inverse", a)


def check_pow_laws(field, samples):
    """0^0 = 1, and a^(e1 + e2) = a^e1 * a^e2 for sampled a != 0 and -10 <= e1, e2 <= 10."""
    yield field.zero() ** 0 == field.one(), ("0^0",)
    rng = random.Random(f"{field.spec()}/pow")
    for _ in range(samples):
        a, e1, e2 = field.random_element(rng, nonzero=True), rng.randint(-10, 10), rng.randint(-10, 10)
        yield a ** (e1 + e2) == a**e1 * a**e2, (a, e1, e2)


def check_extension_mul(field, samples=None):
    """Every product of two (sampled) elements of GF(p^k) equals the convolution-and-long-division oracle."""
    elems = _elements(field, samples, "mul")
    for a in elems:
        for b in elems:
            yield a * b == _naive_ext_mul(a, b), (a, b)


def check_text_round_trip(field, samples=None):
    """The field spec and every element text (sampled over qq) parse back to equal values."""
    yield parse_field_spec(field.spec()) == field, (field.spec(),)
    for a in _elements(field, samples, "text"):
        yield parse_element(str(a), field) == a, (a,)


def check_factor_integer(limit):
    """For 1 <= m <= limit the factors multiply to m and each is prime."""
    for m in range(1, limit + 1):
        factors = factor_integer(m)
        yield math.prod(factors) == m and all(factor_integer(p) == [p] for p in factors), (m, factors)


def check_binomial_recurrence(field, m_max):
    """C(m, r) = C(m-1, r-1) + C(m-1, r) in the field for 1 <= m <= m_max and 0 <= r <= m."""
    for m in range(1, m_max + 1):
        for r in range(m + 1):
            yield binomial(m, r, field) == binomial(m - 1, r - 1, field) + binomial(m - 1, r, field), (m, r)


def check_binomial_lucas(field, samples):
    """Over GF(p), C(m, r) is Lucas' digit product for sampled 0 <= r <= m <= 200."""
    rng = random.Random(f"{field.spec()}/lucas")
    for m in (rng.randint(0, 200) for _ in range(samples)):
        r = rng.randint(0, m)
        yield binomial(m, r, field) == field.element(_lucas(m, r, field.characteristic)), (m, r)


def check_p1_group_law(field, n, samples=None):
    """p1(a) p1(b) = p1(a + b) for every pair of (sampled) elements, and p1(a) p1(-a) = I."""
    elems = _elements(field, samples, "p1", n)
    eye = identity(field, n)
    for a in elems:
        for b in elems:
            yield p1_matrix(a, n) @ p1_matrix(b, n) == p1_matrix(a + b, n), ("additive law", a, b)
        yield p1_matrix(a, n) @ p1_matrix(-a, n) == eye, ("inverse", a)


def check_d_matrix(field, n):
    """d(a) d(b) = d(ab) for every pair, and d(a)^m = d(a^m) for 0 <= m <= 5."""
    for a in field.elements():
        for b in field.elements():
            yield d_matrix(a, n) @ d_matrix(b, n) == d_matrix(a * b, n), ("product", a, b)
        for m in range(6):
            yield d_matrix(a, n) ** m == d_matrix(a**m, n), ("power", a, m)


def check_q_specializations(field, n):
    """p1(y) and p2(x) are the entry formula of q(y, 1) and q(1, x); q(0, x) = d(x^2); q(1, -1) = p1(-1)."""
    one, zero = field.one(), field.zero()
    for y in field.elements():
        yield p1_matrix(y, n).rows == _q_formula(y, one, n), ("q(y, 1)", y)
    for x in field.nonzero_elements():
        yield p2_matrix(x, n).rows == _q_formula(one, x, n), ("q(1, x)", x)
        yield q_matrix(zero, x, n) == d_matrix(x * x, n), ("q(0, x)", x)
    yield q_matrix(one, -one, n) == p1_matrix(-one, n), ("q(1, -1)",)


def check_upper_triangular(field, n, samples=None):
    """p1(y), p2(x), q(y, x) and d(y) are upper triangular."""
    for y, x in _pairs(field, samples, "triangular", n):
        mats = (p1_matrix(y, n), p2_matrix(x, n), q_matrix(y, x, n), d_matrix(y, n))
        yield all(mat.is_upper_triangular() for mat in mats), (y, x)


def check_matrix_json(field, n, samples=None):
    """p1(y) and q(y, x) survive matrix_to_json, JSON text and matrix_from_json."""
    for y, x in _pairs(field, samples, "json", n):
        for mat in (p1_matrix(y, n), q_matrix(y, x, n)):
            yield matrix_from_json(json.loads(json.dumps(matrix_to_json(mat)))) == mat, (y, x)


def check_factorization(field, n, samples=None):
    """Where x^2 != 1, p1(z) d(x^2) p1(-z) recomposes q(y, x) exactly and
    p1(z) p1(-z) = I (``verify_factorization``); where x^2 = 1 it is refused."""
    for y, x in _pairs(field, samples, "factorize", n):
        if x * x == field.one():
            yield _refused(factorize_q, y, x, n), ("x^2 = 1 not refused", y, x)
        else:
            yield verify_factorization(factorize_q(y, x, n)), (y, x)


def check_eigenpairs(field, n, samples=None):
    """Where x^2 != 1, q(y, x) v = lambda v for each of the n eigenpairs, and
    the eigenvectors, the columns of p1(z), have rank n; where x^2 = 1 they are refused."""
    for y, x in _pairs(field, samples, "eigen", n):
        if x * x == field.one():
            yield _refused(eigenpairs, y, x, n), ("x^2 = 1 not refused", y, x)
            continue
        q = q_matrix(y, x, n)
        for j, (lam, vec) in enumerate(eigenpairs(y, x, n)):
            yield q.apply(vec) == tuple(lam * v for v in vec), ("eigenpair", j + 1, y, x)
        yield p1_matrix(z_parameter(y, x), n).rank() == n, ("rank", y, x)


def check_criterion(field, n):
    """The closed-form criterion (x^2 != 1 or y = 0) equals the rank oracle for every (y, x)."""
    for y, x in _pairs(field):
        yield is_diagonalizable(y, x, n) == diagonalizable_oracle(q_matrix(y, x, n)), (y, x)


def check_z_parameter(field, samples=None):
    """Where x^2 != 1, z(y, x) = -z(-y, x) and z(0, x) = 0."""
    for y, x in _pairs(field, samples, "z"):
        if x * x != field.one():
            yield z_parameter(y, x) == -z_parameter(-y, x) and z_parameter(field.zero(), x).is_zero(), (y, x)


def check_order_formula(field, n):
    """For every (y, x) the closed-form order m equals the brute-force order
    (the least m with Q^m = I), and Q^(m/l) != I for each prime l dividing m."""
    for y, x in _pairs(field):
        formula, brute = q_order(y, x, n), q_order_bruteforce(y, x, n)
        m, mat = formula.value, q_matrix(y, x, n)
        yield formula == brute, (formula, brute, y, x)
        yield all(not (mat ** (m // ell)).is_identity() for ell in set(factor_integer(m))), ("minimal", m, y, x)


def check_dimension_independence(field, samples=None):
    """The closed-form order is the same for n = 2 .. 6, and brute force at n = 5 agrees."""
    for y, x in _pairs(field, samples, "dim"):
        base = q_order(y, x, 2)
        yield all(q_order(y, x, n) == base for n in range(3, 7)), ("formula", y, x)
        yield q_order_bruteforce(y, x, 5) == base, ("brute force", y, x)


def check_specialized_orders(field, n):
    """p1_order(y) is the brute-force order of q(y, 1) = p1(y); p2_order(x) is
    that of q(1, x) = p2(x); and where x^2 != 1 it is the order of x^2 and the
    brute-force order of q(0, x)."""
    one = field.one()
    for y in field.elements():
        yield p1_order(y, n) == q_order_bruteforce(y, one, n), ("p1", y)
    for x in field.nonzero_elements():
        order = p2_order(x, n)
        yield order == q_order_bruteforce(one, x, n), ("p2", x)
        if x * x != one:
            yield order == multiplicative_order(x * x) == q_order_bruteforce(field.zero(), x, n), ("order of x^2", x)


def check_rational_orders(cap):
    """Over qq, q(y, x) for three y != 0 has infinite order and the scan
    reports exceeded(cap), which agrees; q(0, 1) and q(0, -1) are I, order 1."""
    qq = make_rational_field()
    one, zero = qq.one(), qq.zero()
    for y, x in [(one, qq.element(2)), (one / qq.element(2), qq.element(3)), (qq.element(2), -qq.element(2))]:
        formula, brute = q_order(y, x, 2), q_order_bruteforce(y, x, 2, cap)
        yield formula.is_infinite and brute.is_exceeded and brute.value == cap, (formula, brute, y, x)
        yield oracle_agrees(formula, brute), ("disagree", y, x)
    for x in (one, -one):
        yield q_order(zero, x, 3) == q_order_bruteforce(zero, x, 3, cap) and q_order(zero, x, 3).value == 1, (x,)


def check_census_formats(field, n):
    """A verified census finds no mismatch; its CSV and JSON carry the same
    rows; a second run gives the same CSV bytes."""

    def render(write, rows) -> str:
        buf = io.StringIO()
        write(rows, buf)
        return buf.getvalue()

    mismatches: list[str] = []
    csv_text = render(census_csv, census_rows(field, n, mismatches))
    yield not mismatches, ("verify", *mismatches[:3])
    rows = json.loads(render(census_json, census_rows(field, n)))["rows"]
    lines = list(csv.reader(io.StringIO(csv_text)))
    yield lines[0] == CSV_HEADER and len(lines) - 1 == len(rows) == field.order * (field.order - 1), ("shape",)
    for line, row in zip(lines[1:], rows):
        diag = "true" if row["diagonalizable"] else "false"
        yield line == [field.spec(), str(n), row["y"], row["x"], str(row["order"]), diag], ("csv/json", line)
    yield render(census_csv, census_rows(field, n)) == csv_text, ("second run differs",)


_gf, _ext, _qq = make_prime_field, make_extension_field, make_rational_field()
_SMALL = [_gf(3), _gf(5), _gf(7), _ext(2, 2), _ext(3, 2)]

# (check, *domain) runs of ``zhangliu selftest``, by suite
SUITES = {
    "field-core": [
        *((check_element_orders, f) for f in _SMALL),
        *((check_pow_laws, f, 20) for f in _SMALL + [_qq]),
        *((check_extension_mul, f) for f in (_ext(3, 2), _ext(2, 3))),
        *((check_text_round_trip, f) for f in _SMALL), (check_text_round_trip, _qq, 20),
        (check_factor_integer, 150),
    ],
    "pascal-core": [
        *((check_p1_group_law, f, n) for f in (_gf(5), _ext(2, 2)) for n in (2, 4)),
        *((check_p1_group_law, _qq, n, 3) for n in (2, 3)),
        (check_d_matrix, _gf(5), 3),
        *((check_q_specializations, f, n) for f in (_gf(5), _ext(2, 2)) for n in (2, 3)),
        *((check_binomial_recurrence, f, 11) for f in _SMALL + [_qq]),
        *((check_binomial_lucas, _gf(p), 40) for p in (3, 7)),
        *((check_upper_triangular, f, 4) for f in (_gf(5), _ext(3, 2))),
    ],
    "spectral": [
        *((check_factorization, f, n) for f in (_gf(5), _gf(7)) for n in (2, 3, 5)),
        *((check, f, n, 5) for check in (check_factorization, check_eigenpairs)
          for f in (_ext(3, 2), _ext(2, 2), _qq) for n in (2, 5)),
        *((check_criterion, f, n) for f in (_gf(3), _gf(5), _ext(2, 2)) for n in (2, 3, 4)),
        (check_z_parameter, _gf(7)),
        (check_z_parameter, _qq, 10),
    ],
    "order-engine": [
        *((check_order_formula, f, n) for f in (_gf(2), _gf(3), _gf(5), _ext(2, 2)) for n in (2, 3, 4)),
        (check_dimension_independence, _gf(7)),
        *((check_specialized_orders, f, 3) for f in (_gf(5), _ext(2, 2))),
        (check_rational_orders, 50),
    ],
    "interfaces": [
        *((check_matrix_json, f, n, 3) for f in (_gf(5), _ext(3, 2), _qq) for n in (1, 3, 5)),
        *((check_census_formats, f, 2) for f in (_gf(3), _ext(2, 2))),
    ],
}


def run_all() -> list[SuiteReport]:
    reports = [SuiteReport(name) for name in SUITES]
    for rep in reports:
        for check, *domain in SUITES[rep.name]:
            rep.run(check, *domain)
    return reports
