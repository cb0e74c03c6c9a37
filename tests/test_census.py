"""Census: golden output, per-row verification, bounded memory, preconditions."""

import hashlib
import re
import tracemalloc

import pytest

import zhangliu.census as census
from zhangliu import make_prime_field, make_rational_field
from zhangliu.census import census_csv, census_rows
from zhangliu.cli import main
from zhangliu.fields import OrderResult

# sha256 of `zhangliu census --field ... --format ...` stdout, recorded before
# the census streamed its rows; every format must stay byte-identical.
GOLDEN = {
    ("gf:5 --n 3", "csv"): "4a06fe8acc3ad0913e2fec86338024d5d3adc4030190929881c3ba1efe379c3f",
    ("gf:5 --n 3", "json"): "a67b520fffc9a989f8285115bcbbfc0dbbc38348bfe9f313df13041babb1380c",
    ("gf:5 --n 3", "table"): "013c7fe5bd8fe3c9e85cbca8483a1382bab55416da6170d87fc93d76c5031949",
    ("gf:3^2 --n 2 --verify", "csv"): "498dc2007c1e6cfe796921752d73cb9f091583e767b739dac6ac7188495ccc29",
    ("gf:3^2 --n 2 --verify", "json"): "fee0c1783127aca7dd01828bde842cacc881a48b285024341235d611d2e2162a",
    ("gf:3^2 --n 2 --verify", "table"): "c16b3dbf94a1b38d1137ff185673129dea211d0e07c261358b5f1e074c4e2ffc",
    # the spec and the element texts contain commas, so CSV quotes them
    ("gf:2^2:m=1,1,1 --n 2", "csv"): "68b836e9030d79b9196571ecbc8a61968dff08359ecbe213d362a23f12fc782f",
    ("gf:2^2:m=1,1,1 --n 2", "json"): "fb33eb511f2de26b186be04ebf6541afe0e45ebefced6871ddc16869f6a70011",
    ("gf:2^2:m=1,1,1 --n 2", "table"): "4bc5124da85a90d78291870cc2e34e3d0e85d26cef888ee3486051d592390644",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case,fmt", sorted(GOLDEN))
def test_census_output_matches_golden_digest(capsys, case, fmt):
    field, *rest = case.split()
    code, out, err = run_cli(capsys, "census", "--field", field, *rest, "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[case, fmt]


@pytest.mark.parametrize(
    "name,wrong,label",
    [
        ("q_order", lambda order: OrderResult.finite(order.value + 1), "order mismatch"),
        ("is_diagonalizable", lambda diag: not diag, "diagonalizability mismatch"),
    ],
)
def test_verify_checks_the_printed_value_of_every_row(capsys, monkeypatch, name, wrong, label):
    right = getattr(census, name)

    def patched(y, x, n):
        value = right(y, x, n)
        return wrong(value) if str(x) == "2" else value

    monkeypatch.setattr(census, name, patched)
    code, out, err = run_cli(capsys, "census", "--field", "gf:5", "--n", "2", "--format", "csv", "--verify")
    assert code == 1
    named = [re.fullmatch(rf"error: {label} at \(y=(\d), x=(\d)\).*", line).groups() for line in err.splitlines()]
    assert named == [(y, "2") for y in "01234"]
    printed = [row.split(",") for row in out.splitlines()[1:] if row.split(",")[3] == "2"]
    column, value = (4, "3") if name == "q_order" else (5, "false")
    assert len(printed) == 5 and all(row[column] == value for row in printed)


def test_verify_runs_both_oracles_on_every_row(capsys, monkeypatch):
    calls = {}
    for name in ("q_order", "is_diagonalizable", "q_order_bruteforce", "diagonalizable_oracle"):

        def counted(*args, _fn=getattr(census, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(census, name, counted)
    code, _, _ = run_cli(capsys, "census", "--verify", "--field", "gf:5", "--n", "2")
    assert code == 0
    # 5 * 4 rows; the closed forms run once per x at y = 0 and at y = 1
    assert calls == {"q_order": 8, "is_diagonalizable": 8, "q_order_bruteforce": 20, "diagonalizable_oracle": 20}


class LineCounter:
    """A text stream that counts lines and keeps no copy of the text."""

    def __init__(self):
        self.lines = 0

    def write(self, s):
        self.lines += s.count("\n")
        return len(s)


def test_census_csv_memory_is_bounded():
    field = make_prime_field(251)
    sink = LineCounter()
    tracemalloc.start()
    try:
        census_csv(census_rows(field, 2), sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.lines == 1 + 251 * 250
    assert peak < 2_000_000


@pytest.mark.parametrize(
    "field,n,kwargs",
    [
        (make_rational_field(), 2, {}),
        (make_prime_field(5), 1, {}),
        (make_prime_field(5), 2, {"mismatches": [], "cap": 0}),
    ],
)
def test_census_rows_checks_preconditions_at_the_call(field, n, kwargs):
    with pytest.raises(ValueError):
        census_rows(field, n, **kwargs)
