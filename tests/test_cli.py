"""CLI contract: output formats, exit codes, reproducible census output."""

import csv
import io
import json
import subprocess
import sys

import pytest

from zhangliu import matrix_from_json
from zhangliu.cli import EXIT_CODES, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_q_example(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--field", "gf:5", "--kind", "q", "--params", "1,2", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["[1, 2, 4]", "[0, 4, 1]", "[0, 0, 1]"]


def test_matrix_p1_zero_is_identity(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--field", "gf:5", "--kind", "p1", "--params", "0", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["[1, 0, 0]", "[0, 1, 0]", "[0, 0, 1]"]


def test_matrix_zero_x_is_precondition_violation(capsys):
    code, _, err = run_cli(capsys, "matrix", "--field", "gf:7", "--kind", "p2", "--params", "0", "--n", "2")
    assert code == 3
    assert "x must be nonzero" in err


def test_matrix_parse_failures(capsys):
    code, _, err = run_cli(capsys, "matrix", "--field", "gf:6", "--kind", "p1", "--params", "1", "--n", "2")
    assert code == 2 and "gf:6" in err
    code, _, err = run_cli(capsys, "matrix", "--field", "gf:5", "--kind", "p1", "--params", "x", "--n", "2")
    assert code == 2
    code, _, err = run_cli(capsys, "matrix", "--field", "gf:5", "--kind", "q", "--params", "1", "--n", "2")
    assert code == 2 and "2 parameter" in err


def test_matrix_extension_params(capsys):
    code, out, _ = run_cli(
        capsys, "matrix", "--field", "gf:3^2:m=1,0,1", "--kind", "q", "--params", "[0,1],[1,1]", "--n", "2"
    )
    assert code == 0
    assert out.splitlines()[0].startswith("[[1,0],")


def test_matrix_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "matrix", "--field", "qq", "--kind", "q", "--params", "1/2,3", "--n", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["field"] == "qq" and payload["n"] == 3
    mat = matrix_from_json(payload)
    assert str(mat.rows[0][1]) == "3/2"


def test_matrix_csv_quotes_extension_elements(capsys):
    code, out, _ = run_cli(
        capsys, "matrix", "--field", "gf:2^2", "--kind", "d", "--params", "[0,1]", "--n", "2", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["[1,0]", "[0,0]"], ["[0,0]", "[0,1]"]]


def test_factorize_table(capsys):
    code, out, _ = run_cli(capsys, "factorize", "--field", "gf:5", "--y", "1", "--x", "2", "--n", "3")
    assert code == 0
    assert "z = 4" in out
    assert "verified=true" in out


def test_factorize_not_diagonalizable(capsys):
    code, _, err = run_cli(capsys, "factorize", "--field", "gf:3", "--y", "1", "--x", "1", "--n", "2")
    assert code == 4
    assert "not diagonalizable" in err
    # y = 0 with x^2 = 1 is diagonal already, but the factorization is still refused
    code, _, err = run_cli(capsys, "factorize", "--field", "gf:3", "--y", "0", "--x", "2", "--n", "2")
    assert code == 4
    assert "not diagonalizable" not in err


def test_factorize_rational(capsys):
    code, out, _ = run_cli(capsys, "factorize", "--field", "qq", "--y", "1/2", "--x", "3", "--n", "2")
    assert code == 0
    assert "z = 3/16" in out
    assert "verified=true" in out


def test_factorize_json(capsys):
    code, out, _ = run_cli(
        capsys, "factorize", "--field", "gf:7", "--y", "3", "--x", "2", "--n", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["z"] == "2" and payload["verified"] is True
    assert payload["left"] == [["1", "2"], ["0", "1"]]
    assert payload["right"] == [["1", "5"], ["0", "1"]]


def test_factorize_json_verifies_once(capsys, monkeypatch):
    import zhangliu.cli
    import zhangliu.spectral

    calls = []
    real = zhangliu.spectral.verify_factorization

    def counting(dec):
        calls.append(dec)
        return real(dec)

    for module in (zhangliu.spectral, zhangliu.cli):
        monkeypatch.setattr(module, "verify_factorization", counting)
    code, out, _ = run_cli(
        capsys, "factorize", "--field", "gf:7", "--y", "3", "--x", "2", "--n", "3", "--format", "json"
    )
    assert code == 0 and json.loads(out)["verified"] is True
    assert len(calls) == 1


def test_order_with_oracle(capsys):
    code, out, _ = run_cli(capsys, "order", "--field", "gf:7", "--y", "3", "--x", "2", "--n", "2", "--oracle")
    assert code == 0
    assert out.splitlines() == ["formula=3", "oracle=3"]


def test_order_rational_infinite(capsys):
    code, out, _ = run_cli(capsys, "order", "--field", "qq", "--y", "1", "--x", "2", "--n", "2")
    assert code == 0
    assert out.strip() == "infinite"
    code, out, _ = run_cli(capsys, "order", "--field", "qq", "--y", "1", "--x", "2", "--n", "2", "--oracle", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["formula"] == {"order": "infinite"}
    assert payload["oracle"] == {"order": "exceeded", "cap": 1000}
    assert payload["agree"] is True


def test_order_identity_case(capsys):
    code, out, _ = run_cli(capsys, "order", "--field", "gf:3", "--y", "0", "--x", "2", "--n", "2")
    assert code == 0
    assert out.strip() == "1"


def test_order_zero_x(capsys):
    code, _, err = run_cli(capsys, "order", "--field", "gf:5", "--y", "1", "--x", "0", "--n", "2")
    assert code == 3
    assert "nonzero" in err


def test_census_gf3(capsys):
    code, out, _ = run_cli(capsys, "census", "--field", "gf:3", "--n", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["field", "n", "y", "x", "order", "diagonalizable"]
    assert len(rows) == 7
    orders = {(r[2], r[3]): int(r[4]) for r in rows[1:]}
    assert orders == {
        ("0", "1"): 1,
        ("1", "1"): 3,
        ("2", "1"): 3,
        ("0", "2"): 1,
        ("1", "2"): 3,
        ("2", "2"): 3,
    }


def test_census_gf5_x2_rows(capsys):
    code, out, _ = run_cli(capsys, "census", "--field", "gf:5", "--n", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    x2 = [r for r in rows if r[3] == "2"]
    assert len(x2) == 5
    assert all(int(r[4]) == 2 for r in x2)


def test_census_rejects_rationals(capsys):
    code, _, err = run_cli(capsys, "census", "--field", "qq", "--n", "2")
    assert code == 5
    assert "finite" in err


def test_census_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "census", "--field", "gf:5", "--n", "3", "--verify", "--format", "csv")
    assert code == 0


def test_census_csv_and_json_carry_identical_data(capsys):
    _, csv_out, _ = run_cli(capsys, "census", "--field", "gf:7", "--n", "2", "--format", "csv")
    _, json_out, _ = run_cli(capsys, "census", "--field", "gf:7", "--n", "2", "--format", "json")
    payload = json.loads(json_out)
    csv_rows = list(csv.reader(io.StringIO(csv_out)))[1:]
    assert payload["field"] == "gf:7" and payload["n"] == 2
    assert len(csv_rows) == len(payload["rows"])
    for line, row in zip(csv_rows, payload["rows"]):
        assert line[0] == "gf:7" and line[1] == "2"
        assert line[2] == row["y"] and line[3] == row["x"]
        assert int(line[4]) == row["order"]
        assert (line[5] == "true") == row["diagonalizable"]


def test_census_byte_identical_across_runs_and_jobs(capsys):
    outputs = []
    for jobs in ("1", "1", "4"):
        _, out, _ = run_cli(capsys, "census", "--field", "gf:2^2", "--n", "2", "--format", "csv", "--jobs", jobs)
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_census_table_format(capsys):
    code, out, _ = run_cli(capsys, "census", "--field", "gf:3", "--n", "2")
    assert code == 0
    assert out.splitlines()[0].split() == ["y", "x", "order", "diag"]


@pytest.mark.parametrize(
    "argv",
    [
        ["order", "--field", "gf:5", "--y", "1", "--x", "2", "--n", "2", "--oracle", "--cap", "0"],
        ["order", "--field", "qq", "--y", "1", "--x", "2", "--n", "2", "--oracle", "--cap=-3"],
        ["census", "--field", "gf:5", "--n", "2", "--verify", "--cap", "0"],
        ["census", "--field", "gf:3", "--n", "2", "--verify", "--cap=-1", "--format", "json"],
    ],
)
def test_cap_below_one_is_a_precondition_violation_before_any_output(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == "error: cap must be >= 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["order", "--field", "gf:5", "--y", "1", "--x", "2", "--n", "2", "--cap", "0"],
        ["census", "--field", "gf:3", "--n", "2", "--cap", "0"],
    ],
)
def test_unused_cap_is_not_checked(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out


def test_exit_code_2_for_unknown_flag(capsys):
    assert main(["matrix", "--bogus"]) == 2
    capsys.readouterr()


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "zhangliu", "order", "--field", "gf:5", "--y", "1", "--x", "2", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"


def test_selftest_command(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "selftest: PASS" in out


ORDER = ["order", "--field", "gf:5", "--y", "1", "--x", "2", "--n", "3"]

# argv -> exit code of the argparse error and help paths
ARGPARSE_PATHS = [
    (["order", "--y", "1", "--x", "2", "--n", "3"], 2),  # missing --field
    ([*ORDER, "--format", "xml"], 2),  # bad --format choice
    (["frobnicate"], 2),  # unknown subcommand
    ([], 2),  # no subcommand
    (["--help"], 0),
    (["census", "--help"], 0),
]


def test_main_builds_its_parser_once(capsys, monkeypatch):
    import argparse

    import zhangliu.cli

    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    zhangliu.cli._parser.cache_clear()
    assert main(ORDER) == 0
    assert len(built) == 6  # the top-level parser and one per subcommand
    built.clear()
    for argv, _ in [(ORDER, 0), *ARGPARSE_PATHS]:
        main(list(argv))
    run_cli(capsys, "census", "--field", "gf:3", "--n", "2")
    assert built == []


@pytest.mark.parametrize(
    "argv, code", ARGPARSE_PATHS, ids=["no-field", "bad-format", "unknown", "empty", "help", "sub-help"]
)
def test_argparse_paths_repeat_byte_for_byte(capsys, argv, code):
    first = run_cli(capsys, *argv)
    assert first[0] == code
    assert (first[1] if code == 0 else first[2]).startswith("usage: zhangliu")
    if code == 2:
        assert first[1] == "" and "error:" in first[2]
    for _ in range(2):
        assert run_cli(capsys, *argv) == first
    assert run_cli(capsys, *ORDER) == (0, "2\n", "")


def test_a_patched_handler_is_the_one_that_runs(capsys, monkeypatch):
    import zhangliu.cli

    assert main(ORDER) == 0  # the parser exists before the patch
    seen = []
    monkeypatch.setattr(zhangliu.cli, "cmd_order", lambda args: seen.append(args.x) or 7)
    assert main(ORDER) == 7
    assert seen == ["2"]
    capsys.readouterr()


def test_an_untyped_library_error_is_not_reported_as_a_precondition(capsys, monkeypatch):
    import zhangliu.cli

    def broken(y, x, n):
        raise ValueError("not a precondition")

    monkeypatch.setitem(zhangliu.cli._MATRIX_KINDS, "q", (broken, 2))
    with pytest.raises(ValueError, match="not a precondition"):
        main(["matrix", "--field", "gf:5", "--kind", "q", "--params", "1,2", "--n", "2"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("error", sorted(EXIT_CODES, key=lambda cls: cls.__name__))
def test_each_library_error_class_has_one_exit_code(capsys, monkeypatch, error):
    import zhangliu.cli

    def failing(args):
        raise error("message")

    monkeypatch.setattr(zhangliu.cli, "cmd_order", failing)
    assert main(ORDER) == EXIT_CODES[error]
    assert capsys.readouterr().err == "error: message\n"


def test_importing_the_cli_loads_no_selftest_dataclasses_or_inspect():
    import os

    import zhangliu

    probe = (
        "import sys; before = set(sys.modules); import zhangliu.cli; "
        "print(sorted({'zhangliu.selftest', 'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(zhangliu.__file__)))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"
