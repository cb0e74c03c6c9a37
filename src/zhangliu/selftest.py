"""Packaged invariant suites behind the ``selftest`` CLI command.

Each suite replays the library's algebraic invariants on small default
domains: field axioms and element orders, the Pascal-family identities,
the factorization and its rank oracle, order formula vs brute force, and
the text/JSON interfaces.  Deterministic (fixed seeds), desk-scale (a few
seconds total).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field as dataclass_field

from .census import census_csv, census_json, census_rows
from .fields import (
    factor_integer,
    make_extension_field,
    make_prime_field,
    make_rational_field,
    multiplicative_order,
    parse_element,
    parse_field_spec,
)
from .matrices import (
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
    diagonalizable_oracle,
    eigenpairs,
    factorize_q,
    is_diagonalizable,
    verify_factorization,
    z_parameter,
)


@dataclass
class SuiteReport:
    name: str
    checks: int = 0
    failures: list[str] = dataclass_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, cond: bool, message: str) -> None:
        self.checks += 1
        if not cond:
            self.failures.append(message)


def _gf(p):
    return make_prime_field(p)


def _small_fields():
    return [_gf(3), _gf(5), _gf(7), make_extension_field(2, 2), make_extension_field(3, 2)]


def _naive_ext_mul(a, b):
    """Independent extension-field product: integer convolution, then long
    division by the modulus."""
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


def field_suite() -> SuiteReport:
    rep = SuiteReport("field-core")
    rng = random.Random(101)
    qq = make_rational_field()

    for f in _small_fields():
        one = f.one()
        q = f.order
        for a in f.nonzero_elements():
            res = multiplicative_order(a)
            m = res.value
            rep.check(res.is_finite and a**m == one, f"{f}: {a}^{m} != 1")
            rep.check((q - 1) % m == 0, f"{f}: order {m} of {a} does not divide {q - 1}")
            for ell in set(factor_integer(m)):
                rep.check(a ** (m // ell) != one, f"{f}: order of {a} not minimal at {m}//{ell}")
            rep.check(a.inv() * a == one, f"{f}: inv({a}) * {a} != 1")

    for f in _small_fields() + [qq]:
        rep.check((f.zero() ** 0) == f.one(), f"{f}: 0^0 != 1")
        for _ in range(20):
            a = f.random_element(rng, nonzero=True)
            e1, e2 = rng.randint(-10, 10), rng.randint(-10, 10)
            rep.check(a ** (e1 + e2) == a**e1 * a**e2, f"{f}: pow additivity fails for {a}, {e1}, {e2}")

    for f in [make_extension_field(3, 2), make_extension_field(2, 3)]:
        for _ in range(40):
            a, b = f.random_element(rng), f.random_element(rng)
            rep.check(a * b == _naive_ext_mul(a, b), f"{f}: {a} * {b} disagrees with convolution oracle")

    for f in _small_fields():
        rep.check(parse_field_spec(f.spec()) == f, f"spec round trip fails for {f}")
        for a in f.elements():
            rep.check(parse_element(str(a), f) == a, f"{f}: text round trip fails for {a}")
    for _ in range(20):
        a = qq.random_element(rng)
        rep.check(parse_element(str(a), qq) == a, f"qq: text round trip fails for {a}")

    for m in range(1, 150):
        factors = factor_integer(m)
        rep.check(math.prod(factors) == m, f"factor_integer({m}) product wrong")
        rep.check(all(factor_integer(p) == [p] for p in set(factors)), f"factor_integer({m}) non-prime factor")
    return rep


def pascal_suite() -> SuiteReport:
    rep = SuiteReport("pascal-core")
    rng = random.Random(202)
    qq = make_rational_field()

    for f in [_gf(5), make_extension_field(2, 2)]:
        for n in (2, 4):
            eye = identity(f, n)
            for a in f.elements():
                for b in f.elements():
                    rep.check(
                        p1_matrix(a, n) @ p1_matrix(b, n) == p1_matrix(a + b, n),
                        f"{f}: additive law fails at ({a}, {b}), n={n}",
                    )
                rep.check(p1_matrix(a, n) @ p1_matrix(-a, n) == eye, f"{f}: inverse identity fails at {a}")

    for n in (2, 3):
        for _ in range(10):
            a, b = qq.random_element(rng), qq.random_element(rng)
            rep.check(p1_matrix(a, n) @ p1_matrix(b, n) == p1_matrix(a + b, n), f"qq: additive law ({a}, {b})")

    f5 = _gf(5)
    for alpha in f5.elements():
        for beta in f5.elements():
            rep.check(
                d_matrix(alpha, 3) @ d_matrix(beta, 3) == d_matrix(alpha * beta, 3),
                f"d multiplicativity fails at ({alpha}, {beta})",
            )
        for m in (0, 1, 2, 5):
            rep.check(d_matrix(alpha, 3) ** m == d_matrix(alpha**m, 3), f"d power fails at {alpha}^{m}")

    for f in [f5, make_extension_field(2, 2)]:
        one = f.one()
        for n in (2, 3):
            for y in f.elements():
                rep.check(q_matrix(y, one, n) == p1_matrix(y, n), f"{f}: q(y,1) != p1(y) at {y}")
            for x in f.nonzero_elements():
                rep.check(q_matrix(one, x, n) == p2_matrix(x, n), f"{f}: q(1,x) != p2(x) at {x}")
                rep.check(q_matrix(f.zero(), x, n) == d_matrix(x * x, n), f"{f}: q(0,x) != d(x^2) at {x}")

    for f in _small_fields() + [qq]:
        for m in range(1, 12):
            for r in range(m + 1):
                rep.check(
                    binomial(m, r, f) == binomial(m - 1, r - 1, f) + binomial(m - 1, r, f),
                    f"{f}: Pascal recurrence fails at ({m}, {r})",
                )

    for p in (3, 7):
        f = _gf(p)
        for _ in range(40):
            m = rng.randint(0, 200)
            r = rng.randint(0, 200)
            expect = _lucas(m, r, p) if r <= m else 0
            rep.check(binomial(m, r, f) == f.element(expect), f"GF({p}): binomial({m},{r}) != Lucas value")

    for f in [f5, make_extension_field(3, 2)]:
        for x in f.nonzero_elements():
            y = f.random_element(rng)
            for mat in (p1_matrix(y, 4), p2_matrix(x, 4), q_matrix(y, x, 4), d_matrix(x, 4)):
                rep.check(mat.is_upper_triangular(), f"{f}: constructor not upper triangular at ({y}, {x})")
    return rep


def spectral_suite() -> SuiteReport:
    rep = SuiteReport("spectral")
    rng = random.Random(303)
    qq = make_rational_field()

    for f in [_gf(5), _gf(7)]:
        one = f.one()
        for n in (2, 3, 5):
            for y in f.elements():
                for x in f.nonzero_elements():
                    if x * x == one:
                        continue
                    rep.check(verify_factorization(factorize_q(y, x, n)), f"{f}: factorization fails at ({y}, {x}, {n})")

    for f in [make_extension_field(3, 2), make_extension_field(2, 2), qq]:
        for _ in range(15):
            n = rng.randint(2, 5)
            y = f.random_element(rng)
            x = f.random_element(rng, nonzero=True)
            if x * x == f.one():
                continue
            d = factorize_q(y, x, n)
            rep.check(verify_factorization(d), f"{f}: factorization fails at ({y}, {x}, {n})")
            q = q_matrix(y, x, n)
            for lam, vec in eigenpairs(y, x, n):
                rep.check(q.apply(vec) == tuple(lam * v for v in vec), f"{f}: eigenpair fails at ({y}, {x}, {n})")
            rep.check(d.left.rank() == n, f"{f}: eigenvector matrix singular at ({y}, {x}, {n})")

    for f in [_gf(3), _gf(5), make_extension_field(2, 2)]:
        for n in (2, 3, 4):
            for y in f.elements():
                for x in f.nonzero_elements():
                    rep.check(
                        is_diagonalizable(y, x, n) == diagonalizable_oracle(q_matrix(y, x, n)),
                        f"{f}: criterion/oracle disagree at ({y}, {x}, {n})",
                    )

    for f in [_gf(7), qq]:
        for _ in range(10):
            y = f.random_element(rng)
            x = f.random_element(rng, nonzero=True)
            if x * x == f.one():
                continue
            rep.check(z_parameter(y, x) == -z_parameter(-y, x), f"{f}: z antisymmetry fails at ({y}, {x})")
            rep.check(z_parameter(f.zero(), x).is_zero(), f"{f}: z(0, x) != 0 at {x}")
    return rep


def order_suite() -> SuiteReport:
    rep = SuiteReport("order-engine")
    qq = make_rational_field()

    for f in [_gf(2), _gf(3), _gf(5), make_extension_field(2, 2)]:
        for n in (2, 3, 4):
            for y in f.elements():
                for x in f.nonzero_elements():
                    formula = q_order(y, x, n)
                    brute = q_order_bruteforce(y, x, n)
                    rep.check(formula == brute, f"{f}: formula {formula} != brute {brute} at ({y}, {x}, {n})")
                    m = formula.value
                    mat = q_matrix(y, x, n)
                    rep.check((mat**m).is_identity(), f"{f}: Q^{m} != I at ({y}, {x}, {n})")
                    for ell in set(factor_integer(m)):
                        rep.check(not (mat ** (m // ell)).is_identity(), f"{f}: order {m} not minimal at ({y}, {x}, {n})")

    f7 = _gf(7)
    for y in f7.elements():
        for x in f7.nonzero_elements():
            base = q_order(y, x, 2)
            for n in (3, 4, 5):
                rep.check(q_order(y, x, n) == base, f"dimension dependence at ({y}, {x}, {n})")
            rep.check(q_order_bruteforce(y, x, 5) == base, f"brute dimension dependence at ({y}, {x})")

    for f in [_gf(5), make_extension_field(2, 2)]:
        one = f.one()
        for y in f.elements():
            rep.check(p1_order(y, 3) == q_order(y, one, 3), f"{f}: p1_order != q_order(., 1) at {y}")
        for x in f.nonzero_elements():
            rep.check(p2_order(x, 3) == q_order(one, x, 3), f"{f}: p2_order != q_order(1, .) at {x}")

    one = qq.one()
    half = qq.element(1) / qq.element(2)
    cases = [(one, qq.element(2)), (half, qq.element(3)), (qq.element(2), -qq.element(2))]
    for y, x in cases:
        rep.check(q_order(y, x, 2).is_infinite, f"qq: expected infinite order at ({y}, {x})")
        brute = q_order_bruteforce(y, x, 2, cap=50)
        rep.check(brute.is_exceeded and brute.value == 50, f"qq: expected exceeded(50) at ({y}, {x})")
        rep.check(oracle_agrees(q_order(y, x, 2), brute), f"qq: oracle_agrees false at ({y}, {x})")
    for x in (one, -one):
        rep.check(q_order(qq.zero(), x, 3) == q_order_bruteforce(qq.zero(), x, 3, cap=5), f"qq: identity case at x={x}")
        rep.check(q_order(qq.zero(), x, 3).value == 1, f"qq: Q(0, {x}) should have order 1")
    return rep


def interface_suite() -> SuiteReport:
    rep = SuiteReport("interfaces")
    rng = random.Random(404)
    qq = make_rational_field()

    for f in [_gf(5), make_extension_field(3, 2), qq]:
        for _ in range(8):
            n = rng.randint(1, 5)
            y = f.random_element(rng)
            x = f.random_element(rng, nonzero=True)
            for mat in (p1_matrix(y, n), q_matrix(y, x, n)):
                rebuilt = matrix_from_json(json.loads(json.dumps(matrix_to_json(mat))))
                rep.check(rebuilt == mat, f"{f}: matrix JSON round trip fails (n={n})")

    import csv as csv_mod
    import io

    def render(write, rows) -> str:
        buf = io.StringIO()
        write(rows, buf)
        return buf.getvalue()

    for f, n in [(_gf(3), 2), (make_extension_field(2, 2), 2)]:
        mismatches: list[str] = []
        csv_text = render(census_csv, census_rows(f, n, mismatches))
        rep.check(not mismatches, f"census verify mismatches over {f}: {mismatches[:3]}")
        json_rows = json.loads(render(census_json, census_rows(f, n)))["rows"]
        parsed = list(csv_mod.reader(io.StringIO(csv_text)))
        rep.check(parsed[0] == ["field", "n", "y", "x", "order", "diagonalizable"], "csv header wrong")
        rep.check(len(parsed) - 1 == len(json_rows), f"csv/json row count differs over {f}")
        for line, jrow in zip(parsed[1:], json_rows):
            same = (
                line[2] == jrow["y"]
                and line[3] == jrow["x"]
                and int(line[4]) == jrow["order"]
                and (line[5] == "true") == jrow["diagonalizable"]
            )
            rep.check(same, f"csv/json data differs over {f}: {line} vs {jrow}")
        again = render(census_csv, census_rows(f, n))
        rep.check(again == csv_text, f"census not deterministic across runs over {f}")
    return rep


ALL_SUITES = [field_suite, pascal_suite, spectral_suite, order_suite, interface_suite]


def run_all() -> list[SuiteReport]:
    return [suite() for suite in ALL_SUITES]
