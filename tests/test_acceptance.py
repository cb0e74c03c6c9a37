"""Acceptance suite.

Every criterion is an exact algebraic identity checked with zero tolerance
at desk scale; each test prints one PASS/FAIL line (run with ``pytest -s``
to see them).  A1/A2 sweep the factorization and eigenpairs exhaustively
over prime fields, A3 pits the closed-form diagonalizability criterion
against the rank oracle, A4/A5 pit the order formula against brute force,
A6 covers characteristic zero, A7 dimension independence, and A8 the CLI
census byte-for-byte.
"""

import csv
import io
import json
import random
import time
from fractions import Fraction

from zhangliu import (
    OrderResult,
    diagonalizable_oracle,
    eigenpairs,
    factor_integer,
    factorize_q,
    identity,
    is_diagonalizable,
    make_extension_field,
    make_prime_field,
    make_rational_field,
    multiplicative_order,
    p1_matrix,
    p2_matrix,
    p2_order,
    q_matrix,
    q_order,
    q_order_bruteforce,
)
from zhangliu.cli import main as cli_main

GF = make_prime_field
QQ = make_rational_field()

PRIME_FIELDS = [GF(3), GF(5), GF(7), GF(13)]
ALL_FINITE_FIELDS = [
    GF(2),
    GF(3),
    GF(5),
    GF(7),
    GF(13),
    make_extension_field(2, 2),
    make_extension_field(2, 3),
    make_extension_field(3, 2),
]


def _report(label, failures, elapsed=None, bound=None):
    ok = not failures and (bound is None or elapsed < bound)
    timing = f" [{elapsed:.2f}s < {bound}s]" if bound is not None else ""
    print(f"{'PASS' if ok else 'FAIL'}  {label}{timing}")
    for f in failures[:5]:
        print(f"      {f}")
    assert not failures, f"{label}: {len(failures)} failures, first: {failures[0]}"
    if bound is not None:
        assert elapsed < bound, f"{label}: took {elapsed:.2f}s, bound {bound}s"


def test_a1_factorization_recomposes_exactly():
    start = time.perf_counter()
    failures = []
    cases = 0
    for field in PRIME_FIELDS:
        one = field.one()
        for n in range(2, 9):
            for y in field.elements():
                for x in field.nonzero_elements():
                    if x * x == one:
                        continue
                    cases += 1
                    d = factorize_q(y, x, n)
                    if d.left @ d.middle @ d.right != q_matrix(y, x, n):
                        failures.append(f"recomposition fails at {field}, y={y}, x={x}, n={n}")
    assert cases > 0
    _report("A1 exact factorization over prime fields", failures, time.perf_counter() - start, 10.0)


def test_a2_eigenpairs_and_p1_inverse():
    failures = []
    for field in PRIME_FIELDS:
        one = field.one()
        for n in range(2, 9):
            for y in field.elements():
                for x in field.nonzero_elements():
                    if x * x == one:
                        continue
                    q = q_matrix(y, x, n)
                    for j, (lam, vec) in enumerate(eigenpairs(y, x, n)):
                        if q.apply(vec) != tuple(lam * c for c in vec):
                            failures.append(f"eigenpair {j + 1} fails at {field}, y={y}, x={x}, n={n}")
        for n in range(1, 9):
            eye = identity(field, n)
            for y in field.elements():
                if p1_matrix(y, n) @ p1_matrix(-y, n) != eye:
                    failures.append(f"p1 inverse identity fails at {field}, y={y}, n={n}")
    _report("A2 exact eigenpairs and p1(y) * p1(-y) = I", failures)


def test_a3_criterion_agrees_with_rank_oracle():
    failures = []
    for field in ALL_FINITE_FIELDS:
        for n in range(2, 7):
            for y in field.elements():
                for x in field.nonzero_elements():
                    if is_diagonalizable(y, x, n) != diagonalizable_oracle(q_matrix(y, x, n)):
                        failures.append(f"criterion/oracle mismatch at {field}, y={y}, x={x}, n={n}")
    _report("A3 diagonalizability criterion == rank oracle (incl. char 2)", failures)


def test_a4_order_formula_agrees_with_bruteforce():
    start = time.perf_counter()
    failures = []
    for field in ALL_FINITE_FIELDS:
        for n in range(2, 7):
            for y in field.elements():
                for x in field.nonzero_elements():
                    formula = q_order(y, x, n)
                    brute = q_order_bruteforce(y, x, n)
                    if formula != brute:
                        failures.append(f"order mismatch at {field}, y={y}, x={x}, n={n}: {formula} vs {brute}")
                        continue
                    m = formula.value
                    mat = q_matrix(y, x, n)
                    for ell in set(factor_integer(m)):
                        if (mat ** (m // ell)).is_identity():
                            failures.append(f"order {m} not minimal at {field}, y={y}, x={x}, n={n}")

    # anchors
    f5, f7 = GF(5), GF(7)
    if q_order(f5.element(1), f5.element(2), 2) != OrderResult.finite(2):
        failures.append("anchor: order of q(1,2) over gf:5 should be 2")
    if q_order(f7.element(3), f7.element(2), 2) != OrderResult.finite(3):
        failures.append("anchor: order of q(3,2) over gf:7 should be 3")
    for p in (2, 3, 5, 7):
        f = GF(p)
        if q_order(f.element(1), f.element(1), 2) != OrderResult.finite(p):
            failures.append(f"anchor: order of q(1,1) over gf:{p} should be {p}")
    _report("A4 order formula == brute force, orders minimal", failures, time.perf_counter() - start, 30.0)


def test_a5_second_kind_order_equals_order_of_x_squared():
    failures = []
    for p in (5, 7, 11, 13):
        field = GF(p)
        one = field.one()
        for n in range(2, 6):
            for x in field.nonzero_elements():
                if x * x == one:
                    continue
                expect = multiplicative_order(x * x)
                if p2_order(x, n) != expect:
                    failures.append(f"p2 order != |x^2| at gf:{p}, x={x}, n={n}")
                if q_order_bruteforce(one, x, n) != expect:
                    failures.append(f"p2 brute force != |x^2| at gf:{p}, x={x}, n={n}")
                if not (p2_matrix(x, n) ** expect.value).is_identity():
                    failures.append(f"p2(x)^|x^2| != I at gf:{p}, x={x}, n={n}")
    _report("A5 second-kind order equals |x^2| (no size hypothesis)", failures)


def test_a6_characteristic_zero():
    failures = []
    cases = [
        (QQ.element(1), QQ.element(2)),
        (QQ.element(Fraction(1, 2)), QQ.element(3)),
        (QQ.element(2), QQ.element(-2)),
    ]
    for y, x in cases:
        if not q_order(y, x, 2).is_infinite:
            failures.append(f"expected infinite order at y={y}, x={x}")
        brute = q_order_bruteforce(y, x, 2, cap=1000)
        if brute != OrderResult.exceeded(1000):
            failures.append(f"expected exceeded(1000) at y={y}, x={x}, got {brute}")
    for x in (QQ.one(), -QQ.one()):
        if q_order(QQ.zero(), x, 2) != OrderResult.finite(1):
            failures.append(f"expected order 1 at y=0, x={x}")
    _report("A6 characteristic zero: infinite orders and the identity cases", failures)


def test_a7_order_is_dimension_independent():
    failures = []
    rng = random.Random(2024)
    for _ in range(100):
        field = rng.choice(ALL_FINITE_FIELDS)
        y = field.random_element(rng)
        x = field.random_element(rng, nonzero=True)
        orders = {q_order(y, x, n) for n in range(2, 7)}
        if len(orders) != 1:
            failures.append(f"formula varies with n at {field}, y={y}, x={x}")
        if q_order_bruteforce(y, x, 2) != q_order_bruteforce(y, x, 5):
            failures.append(f"brute force varies with n at {field}, y={y}, x={x}")
    _report("A7 order independent of dimension on 100 random inputs", failures)


def test_a8_census_csv_reproducible(capsys):
    failures = []

    def census_csv(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        return code, out

    # gf:3, two runs and --jobs 1 vs 8: byte identical
    outputs = []
    for jobs in ("1", "1", "8"):
        code, out = census_csv("census", "--field", "gf:3", "--n", "2", "--format", "csv", "--jobs", jobs)
        if code != 0:
            failures.append(f"census gf:3 exited {code}")
        outputs.append(out)
    if not (outputs[0] == outputs[1] == outputs[2]):
        failures.append("census gf:3 CSV not byte-identical across runs/--jobs values")
    expected_orders = {("0", "1"): 1, ("1", "1"): 3, ("2", "1"): 3, ("0", "2"): 1, ("1", "2"): 3, ("2", "2"): 3}
    rows = list(csv.reader(io.StringIO(outputs[0])))[1:]
    if {(r[2], r[3]): int(r[4]) for r in rows} != expected_orders:
        failures.append("census gf:3 orders wrong")

    # gf:5: x = 2 rows all have order 2, reproducible across --jobs values
    a = census_csv("census", "--field", "gf:5", "--n", "2", "--format", "csv", "--jobs", "1")[1]
    b = census_csv("census", "--field", "gf:5", "--n", "2", "--format", "csv", "--jobs", "6")[1]
    if a != b:
        failures.append("census gf:5 CSV not byte-identical across --jobs values")
    x2 = [r for r in list(csv.reader(io.StringIO(a)))[1:] if r[3] == "2"]
    if len(x2) != 5 or any(int(r[4]) != 2 for r in x2):
        failures.append("census gf:5 x=2 rows should all have order 2")

    # rationals are rejected with exit 5
    code = cli_main(["census", "--field", "qq", "--n", "2"])
    capsys.readouterr()
    if code != 5:
        failures.append(f"census qq should exit 5, got {code}")

    with capsys.disabled():
        _report("A8 census CSV byte-reproducible; qq census rejected", failures)
