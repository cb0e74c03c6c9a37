"""Acceptance suite: the paper's claims on their desk-scale domains.

A1/A2 check the factorization and the eigenpairs over prime fields, A3 pits
the closed-form diagonalizability criterion against the rank oracle, A4/A5
pit the order formula against brute force, A6 covers characteristic zero,
A7 dimension independence, and A8 the CLI census byte-for-byte.  A1-A7 run
the invariant checks of ``zhangliu.selftest``; ``test_invariants.py`` runs
the same checks on the union of all pytest domains, with the wall-time
bounds of A1 (10 s) and A4 (30 s).
"""

from zhangliu import make_extension_field, make_prime_field
from zhangliu.cli import main as cli_main
from zhangliu.selftest import (
    check_criterion,
    check_dimension_independence,
    check_eigenpairs,
    check_factorization,
    check_order_formula,
    check_rational_orders,
    check_specialized_orders,
)

GF = make_prime_field

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


def test_a1_factorization_recomposes_exactly(holds):
    for field in PRIME_FIELDS:
        for n in range(2, 9):
            holds(check_factorization, field, n)


def test_a2_eigenpairs_and_p1_inverse(holds):
    # p1(z) p1(-z) = I is part of check_factorization (A1), for every z
    for field in PRIME_FIELDS:
        for n in range(2, 9):
            holds(check_eigenpairs, field, n)


def test_a3_criterion_agrees_with_rank_oracle(holds):
    for field in ALL_FINITE_FIELDS:
        for n in range(2, 7):
            holds(check_criterion, field, n)


def test_a4_order_formula_agrees_with_bruteforce(holds):
    for field in ALL_FINITE_FIELDS:
        for n in range(2, 7):
            holds(check_order_formula, field, n)


def test_a5_second_kind_order_equals_order_of_x_squared(holds):
    for p in (5, 7, 11, 13):
        for n in range(2, 6):
            holds(check_specialized_orders, GF(p), n)


def test_a6_characteristic_zero(holds):
    holds(check_rational_orders, 1000)


def test_a7_order_is_dimension_independent(holds):
    for field in ALL_FINITE_FIELDS:
        holds(check_dimension_independence, field, 12)


def test_a8_census_csv_reproducible(capsys):
    # the census values and the rejection of qq are checked in test_cli.py
    for field, jobs in (("gf:3", ("1", "1", "8")), ("gf:5", ("1", "6"))):
        outputs = set()
        for j in jobs:
            assert cli_main(["census", "--field", field, "--n", "2", "--format", "csv", "--jobs", j]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1, f"census {field} CSV differs across runs and --jobs values"
