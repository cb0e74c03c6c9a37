"""Re-record the golden CLI corpus in tests/cli_golden.json.

Run from the repository root:

    PYTHONPATH=src python tests/record_cli_golden.py

Each case below is one argv; the manifest stores its exit code and the
sha256 of its stdout and stderr.  The replay test never calls this script.
Re-record only for an intended output change, and name the entries whose
digests changed.

The cases cover every subcommand and format, every matrix kind, each
field-spec form, n = 1, 2, 4, 8 and 16, and the exit codes 0, 2, 3, 4 and
5.  Exit code 1 (a failed cross-check) needs a faulty library, so it is
covered by the patched tests in ``test_census.py`` instead.
"""

import json
import os
import shlex
import sys

from test_cli_golden import COLUMNS, MANIFEST, capture

# one field per spec form: gf:p, gf:p^k with the default modulus, gf:p^k
# with an explicit modulus (the default one and another), and qq
FIELDS = {
    "gf:5": ("1", "2"),
    "gf:3^2": ("[1,2]", "[0,1]"),
    "gf:2^2:m=1,1,1": ("[1,1]", "[0,1]"),
    "gf:3^2:m=2,2,1": ("[2,1]", "[1,1]"),
    "qq": ("1/2", "3"),
}
NS = (1, 2, 4, 8, 16)


def cases() -> list[str]:
    out = []
    # matrix: every kind and format on every field kind, then every n
    for field, (y, x) in FIELDS.items():
        for kind, params in (("p1", y), ("p2", x), ("q", f"{y},{x}"), ("d", x)):
            for fmt in ("table", "csv", "json"):
                out.append(f"matrix --field {field} --kind {kind} --params {params} --n 3 --format {fmt}")
        for n in NS:
            out.append(f"matrix --field {field} --kind q --params {y},{x} --n {n}")
        out.append(f"matrix --field {field} --kind p1 --params {y} --n 16 --format json")
    out += [
        "matrix --field gf:2^4 --kind q --params [1,0,1],[0,1,1] --n 16",
        "matrix --field gf:7^2 --kind p2 --params [3,5] --n 8 --format csv",
        "matrix --field gf:5 --kind d --params 0 --n 2",
        "matrix --field gf:7 --kind p2 --params 0 --n 2",
        "matrix --field gf:5 --kind q --params 1,0 --n 2",
        "matrix --field gf:5 --kind q --params 1,2 --n 0",
        "matrix --field gf:5 --kind p1 --params 1 --n -1",
        "matrix --field gf:5 --kind q --params 1 --n 2",
        "matrix --field gf:5 --kind p1 --params x --n 2",
        "matrix --field gf:6 --kind p1 --params 1 --n 2",
        "matrix --field gf:4^30 --kind p1 --params 1 --n 2",
        "matrix --field gf:3^2:m=0,0,1 --kind p1 --params [1] --n 2",
        "matrix --field zz --kind p1 --params 1 --n 2",
        # more than one fault: the order of the checks decides the message
        "matrix --field gf:5 --kind q --params 1,0 --n 0",
        "matrix --field gf:5 --kind p2 --params 0 --n 0",
        "matrix --field gf:6 --kind q --params 1,0 --n 0",
        "matrix --field gf:5 --kind q --params x,0 --n 0",
        "matrix --field gf:5 --kind q --params 1 --n 0",
    ]
    # factorize
    for field, (y, x) in FIELDS.items():
        for fmt in ("table", "json"):
            for n in (2, 3, 8, 16):
                out.append(f"factorize --field {field} --y {y} --x {x} --n {n} --format {fmt}")
    out += [
        "factorize --field gf:5 --y 0 --x 2 --n 4",
        "factorize --field gf:3 --y 1 --x 1 --n 2",
        "factorize --field gf:3 --y 0 --x 2 --n 2",
        "factorize --field gf:2^2:m=1,1,1 --y [1,0] --x [1,0] --n 3 --format json",
        "factorize --field qq --y 0 --x=-1 --n 2",
        "factorize --field gf:5 --y 1 --x 0 --n 2",
        "factorize --field gf:5 --y 1 --x 2 --n 1",
        "factorize --field gf:5 --y 1 --x 2 --n 0",
        "factorize --field gf:5 --y q --x 2 --n 2",
        "factorize --field gf:5 --y 1 --x 0 --n 1",
        "factorize --field gf:5 --y 1 --x 1 --n 1",
        "factorize --field gf:5 --y 1 --x 1 --n 0 --format json",
        "factorize --field gf:5 --y q --x 0 --n 1",
    ]
    # order, with and without the oracle
    for field, (y, x) in FIELDS.items():
        for fmt in ("table", "json"):
            for n in (2, 4, 8, 16):
                out.append(f"order --field {field} --y {y} --x {x} --n {n} --format {fmt}")
            # the default cap over qq is 1000 products of growing rationals
            cap = " --cap 20" if field == "qq" else ""
            out.append(f"order --field {field} --y {y} --x {x} --n 3 --oracle{cap} --format {fmt}")
            one, zero = ("[1]", "[0]") if "^" in field else ("1", "0")
            out.append(f"order --field {field} --y {y} --x {one} --n 2 --oracle{cap} --format {fmt}")
            out.append(f"order --field {field} --y {zero} --x {one} --n 2 --oracle --format {fmt}")
    out += [
        "order --field qq --y 1 --x 2 --n 2 --oracle",
        "order --field qq --y 1 --x 2 --n 2 --oracle --format json",
        "order --field gf:7 --y 3 --x 2 --n 2 --oracle",
        "order --field gf:5 --y 3 --x 2 --n 16 --oracle",
        "order --field gf:2^4 --y [1,1] --x [0,0,1] --n 8 --oracle --format json",
        "order --field gf:3^2:m=2,2,1 --y [1,0] --x [2,0] --n 4 --oracle",
        "order --field gf:5 --y 1 --x 1 --n 2 --oracle --cap 2",
        "order --field gf:5 --y 1 --x 1 --n 2 --oracle --cap 5 --format json",
        "order --field qq --y 1 --x 2 --n 2 --oracle --cap 7",
        "order --field gf:5 --y 1 --x 2 --n 2 --cap 0",
        "order --field gf:5 --y 1 --x 2 --n 2 --oracle --cap 0",
        "order --field qq --y 1 --x 2 --n 2 --oracle --cap=-3",
        "order --field gf:5 --y 1 --x 0 --n 2",
        "order --field gf:5 --y 1 --x 2 --n 1",
        "order --field gf:5 --y 1 --x 2 --n 1 --oracle",
        "order --field gf:5 --y 1/2 --x 2 --n 2",
        "order --field gf:5 --y 1 --x 0 --n 1",
        "order --field gf:5 --y 1 --x 0 --n 2 --oracle --cap 0",
        "order --field gf:5 --y 1 --x 2 --n 1 --oracle --cap 0",
        "order --field gf:5 --y 1 --x 0 --n 1 --oracle --cap 0",
    ]
    # census
    for field in ("gf:3", "gf:5", "gf:2^2:m=1,1,1", "gf:3^2", "gf:3^2:m=2,2,1"):
        for fmt in ("table", "csv", "json"):
            out.append(f"census --field {field} --n 2 --format {fmt}")
            out.append(f"census --field {field} --n 2 --verify --format {fmt}")
    out += [
        "census --field gf:5 --n 3 --verify --format csv",
        "census --field gf:2 --n 1",
        "census --field gf:2 --n 4 --format csv",
        "census --field gf:2 --n 8 --verify",
        "census --field gf:2 --n 16 --verify --format csv",
        "census --field gf:2^2 --n 4 --verify --format json",
        "census --field gf:3 --n 2 --jobs 3 --format csv",
        "census --field gf:3 --n 2 --verify --jobs 4 --format json",
        "census --field gf:5 --n 2 --verify --cap 2",
        "census --field gf:5 --n 2 --cap 0",
        "census --field gf:5 --n 2 --verify --cap 0",
        "census --field gf:5 --n 1",
        "census --field gf:5 --n 0 --format json",
        "census --field qq --n 2",
        "census --field gf:6 --n 2",
        # more than one fault
        "census --field gf:5 --n 1 --verify --cap 0",
        "census --field qq --n 1",
        "census --field qq --n 2 --verify --cap 0",
        "census --field qq --n 1 --verify --cap 0",
    ]
    # argparse rejections and the packaged suites
    out += [
        "matrix --bogus",
        "census --field gf:5 --n two",
        "matrix --field gf:5 --kind z --params 1 --n 2",
        "order --field gf:5 --y 1 --x 2",
        "selftest",
    ]
    # extension fields of degree 4, 5 and 12, where a product unpacks wide
    # rows of 2k - 1 slots per entry and reduces every entry by the modulus:
    # factorize at n = 16, the oracle at n = 4
    out += [
        "factorize --field gf:2^12 --y [1,1,0,1,0,0,1,1,1,0,1,1] --x [0,1,0,1,0,0,0,0,0,0,1,0] --n 16 --format json",
        "factorize --field gf:7^5 --y [3,1,4,1,5] --x [2,6,5,3,5] --n 16 --format json",
        "factorize --field gf:13^4 --y [8,7,11,1] --x [2,1,4,5] --n 16 --format json",
        "order --field gf:2^12 --y [1,1,0,1,0,0,1,1,1,0,1,1] --x [0,1,0,1,0,0,0,0,0,0,1,0] --n 4 --oracle",
        "order --field gf:7^5 --y [3,1,4,1,5] --x [3] --n 4 --oracle",
        "order --field gf:7^5 --y [3,1,4,1,5] --x [6] --n 4 --oracle --format json",
        "order --field gf:13^4 --y [8,7,11,1] --x [2,1,4,5] --n 4 --oracle",
    ]
    return out


def main() -> None:
    os.environ["COLUMNS"] = COLUMNS
    entries = [capture(shlex.split(case)) for case in cases()]
    MANIFEST.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    codes = sorted({e["exit"] for e in entries})
    print(f"wrote {len(entries)} entries to {MANIFEST} (exit codes {codes})", file=sys.stderr)


if __name__ == "__main__":
    main()
