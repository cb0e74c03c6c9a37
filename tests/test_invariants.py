"""Every invariant in ``zhangliu.selftest``, on the union of the pytest domains.

``zhangliu selftest`` runs the same check functions on its smaller domains.
The sweep of a check here contains every domain that another test in this
directory, or a selftest suite, runs it on; a sampled domain draws the same
first inputs whatever its sample count, so a larger count contains a
smaller one.  Every sweep here runs in full, whatever other tests ran
before it, so the wall-time bounds on the factorization and the order
formula, those of acceptance criteria A1 and A4, time the whole sweep.
"""

import math
import time

import pytest

from zhangliu import make_extension_field, make_prime_field, make_rational_field, parse_field_spec
from zhangliu import selftest as st

GF, EXT, QQ = make_prime_field, make_extension_field, make_rational_field()
PRIMES = [GF(3), GF(5), GF(7), GF(13)]
EXTENSIONS = [EXT(2, 2), EXT(2, 3), EXT(3, 2)]
FINITE = [GF(2), *PRIMES, *EXTENSIONS]

# exhaustive over the prime fields and GF(4), sampled over larger fields
SPECTRAL = [
    *((f, n) for f in PRIMES + [EXT(2, 2)] for n in range(2, 9)),
    *((f, n, 10) for f in (EXT(2, 3), EXT(3, 2)) for n in range(2, 9)),
    *((QQ, n, 15) for n in range(2, 7)),
]

# check -> the domains it runs on, each a tuple of its arguments
SWEEPS = {
    st.check_element_orders: [(f,) for f in PRIMES + EXTENSIONS],
    st.check_pow_laws: [(f, 30) for f in FINITE + [QQ]],
    st.check_extension_mul: [
        *((f,) for f in (EXT(2, 3), EXT(3, 2), EXT(5, 2))),
        # sampled: test_kernels.py checks matmul over these against a reference that shares this product
        *((parse_field_spec(spec), 20) for spec in ("gf:2^12", "gf:7^5", "gf:13^4", "gf:3^2:m=2,2,1", "gf:2^40")),
    ],
    st.check_text_round_trip: [*((f,) for f in FINITE), (QQ, 50)],
    st.check_factor_integer: [(300,)],
    st.check_binomial_recurrence: [(f, 14) for f in FINITE + [QQ]],
    st.check_binomial_lucas: [(GF(p), 60) for p in (2, 3, 5, 7, 13)],
    st.check_p1_group_law: [
        *((f, n) for f in PRIMES + [EXT(2, 2), EXT(3, 2)] for n in range(1, 9)),
        *((QQ, n, 4) for n in (2, 3)),
    ],
    st.check_d_matrix: [(GF(5), 3), (GF(7), 4)],
    st.check_q_specializations: [(f, n) for f in (GF(3), GF(5), EXT(2, 2)) for n in (2, 3, 5)],
    st.check_upper_triangular: [
        *((f, n) for f in (GF(5), EXT(2, 3), EXT(3, 2)) for n in (1, 4, 6)),
        *((QQ, n, 10) for n in (1, 4, 6)),
    ],
    st.check_matrix_json: [(f, n, 10) for f in (GF(5), EXT(3, 2), QQ) for n in (1, 3, 5)],
    st.check_factorization: SPECTRAL,
    st.check_eigenpairs: SPECTRAL,
    st.check_criterion: [(f, n) for f in FINITE for n in range(2, 7)],
    st.check_z_parameter: [(GF(7),), (GF(13),), (EXT(3, 2),), (QQ, 20)],
    st.check_order_formula: [(f, n) for f in FINITE for n in range(2, 7)],
    st.check_dimension_independence: [(f,) for f in FINITE],
    st.check_specialized_orders: [
        *((f, n) for f in (GF(3), EXT(2, 2)) for n in (2, 3)),
        *((GF(p), n) for p in (5, 7, 11, 13) for n in range(2, 6)),
    ],
    st.check_rational_orders: [(1000,)],
    st.check_census_formats: [(GF(3), 2), (EXT(2, 2), 2)],
}

# wall-time bounds, in seconds, on the whole sweep of a check
BOUNDS = {st.check_factorization: 10.0, st.check_order_formula: 30.0}


@pytest.mark.parametrize("check", SWEEPS, ids=lambda check: check.__name__)
def test_invariant(check, holds):
    start = time.perf_counter()
    for domain in SWEEPS[check]:
        holds(check, *domain)
    elapsed = time.perf_counter() - start
    assert elapsed < BOUNDS.get(check, math.inf), f"{check.__name__} took {elapsed:.2f} s"


def test_every_check_runs_in_selftest_and_here():
    checks = {f for name, f in vars(st).items() if name.startswith("check_")}
    in_selftest = {check for runs in st.SUITES.values() for check, *_ in runs}
    assert sorted(c.__name__ for c in checks - in_selftest) == []
    assert sorted(c.__name__ for c in checks - set(SWEEPS)) == []
