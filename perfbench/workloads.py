"""Workload definitions, the cli-mix request generator and the output checks.

Nothing here imports the library: requests are generated from plain
integers and strings, so the generator cannot warm any cache that a timed
request would later hit.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

# Census workloads: one fixed command each; its output digest was recorded
# at the commit that introduced the benchmark (see expected.json).
CENSUS = {
    "census-prime": {
        "argv": ["census", "--field", "gf:383", "--n", "2", "--format", "json", "--jobs", "2"],
        "marker": '"order":',
        **EXPECTED["census-prime"],
    },
    "census-ext": {
        "argv": ["census", "--field", "gf:3^5", "--n", "4", "--format", "csv", "--jobs", "1"],
        "marker": "\n",
        **EXPECTED["census-ext"],
    },
}

# cli-mix: a closed loop of single requests.  A block sends every
# (kind, field) cell once at each of its n, so every seed sends the same
# mix; the seed draws the order and the elements.
# - Small fields appear twice per block, large extension fields once: the
#   large ones cost 80-300 ms each to build, and with equal weights the
#   median would sit on the gap between the fast and the slow requests.
# - The brute-force oracle runs at n = 4 only.  Its cost is the order of
#   x^2 times an n^3 matmul, so at n = 16 it ranges from 1 ms to 0.5 s with
#   the element drawn, and a few such draws would decide the median.
CLI_MIX = {
    "fields": {"gf:31": 2, "gf:101": 2, "gf:2^4": 2, "qq": 2, "gf:2^12": 1, "gf:3^8": 1, "gf:13^4": 1, "gf:7^5": 1},
    "oracle_fields": ["gf:31", "gf:101", "gf:2^4", "qq"],
    "census_fields": ["gf:11", "gf:2^3", "gf:3^2"],
    "ns": {"matrix": [4, 8, 16], "factorize": [4, 8, 16], "order": [4, 8, 16], "oracle": [4], "census": [4]},
    "qq_cap": 32,
}

WORKLOADS = {
    "census-prime": {"kind": "census", **CENSUS["census-prime"]},
    "census-ext": {"kind": "census", **CENSUS["census-ext"]},
    "cli-mix": {"kind": "cli-mix", **CLI_MIX},
}


# ---------------------------------------------------------------------------
# census output sink


class HashSink:
    """Text stream that hashes what is written and keeps no copy.

    Counts occurrences of ``marker`` (one per census row, plus the CSV
    header line) and records when the last byte arrived.
    """

    CHUNK = 1 << 20

    def __init__(self, marker: str, clock):
        self.marker = marker
        self._clock = clock
        self._hash = hashlib.sha256()
        self._tail = ""
        self.marks = 0
        self.last_write = None

    def write(self, s: str) -> int:
        for i in range(0, len(s), self.CHUNK):
            self._hash.update(s[i : i + self.CHUNK].encode())
        # a marker split across two writes is counted once, at the seam
        m = len(self.marker) - 1
        self.marks += s.count(self.marker) + (self._tail + s[:m]).count(self.marker)
        if m:
            self._tail = (self._tail + s[-m:])[-m:]
        self.last_write = self._clock()
        return len(s)

    def flush(self) -> None:
        pass

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def census_rows_emitted(spec: dict, sink: HashSink) -> int:
    return sink.marks - 1 if spec["marker"] == "\n" else sink.marks


# ---------------------------------------------------------------------------
# cli-mix generation


def _field_size(field: str) -> tuple[int, int]:
    """(p, k) of a "gf:p" or "gf:p^k" spec."""
    body = field[3:]
    p, _, k = body.partition("^")
    return int(p), int(k or 1)


def _element(rng: random.Random, field: str, nonzero: bool = False) -> str:
    while True:
        if field == "qq":
            value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            text, zero = str(value), value == 0
        else:
            p, k = _field_size(field)
            if k == 1:
                v = rng.randrange(p)
                text, zero = str(v), v == 0
            else:
                coeffs = [rng.randrange(p) for _ in range(k)]
                text, zero = "[" + ",".join(map(str, coeffs)) + "]", not any(coeffs)
        if not (nonzero and zero):
            return text


def _block_cells(mix: dict) -> list[tuple[str, str]]:
    cells = []
    for field, copies in mix["fields"].items():
        cells += [(kind, field) for _ in range(copies) for kind in ("matrix", "factorize", "order")]
    cells += [("oracle", field) for field in mix["oracle_fields"]]
    cells += [("census", field) for field in mix["census_fields"]]
    return cells


def request_blocks(mix: dict, seed: int):
    """Endless stream of request blocks; the same seed gives the same stream."""
    rng = random.Random(seed)
    cells = _block_cells(mix)
    while True:
        block = []
        for kind, field in cells:
            for n in mix["ns"][kind]:
                req = {"kind": kind, "field": field, "n": n}
                if kind != "census":
                    req["y"] = _element(rng, field)
                    req["x"] = _element(rng, field, nonzero=True)
                req["argv"] = _argv(req, mix)
                block.append(req)
        rng.shuffle(block)
        yield block


def _argv(req: dict, mix: dict) -> list[str]:
    kind, field, n = req["kind"], req["field"], str(req["n"])
    if kind == "census":
        return ["census", "--field", field, "--n", n, "--verify", "--format", "csv"]
    y, x = req["y"], req["x"]
    if kind == "matrix":
        return ["matrix", "--field", field, "--kind", "q", f"--params={y},{x}", "--n", n]
    if kind == "factorize":
        return ["factorize", "--field", field, f"--y={y}", f"--x={x}", "--n", n, "--format", "json"]
    argv = ["order", "--field", field, f"--y={y}", f"--x={x}", "--n", n]
    if kind == "oracle":
        argv += ["--oracle", "--format", "json"]
        if field == "qq":
            argv += ["--cap", str(mix["qq_cap"])]
    return argv


def field_spec_repeats(requests: list[dict]) -> int:
    """Requests whose field spec already appeared earlier in the stream."""
    seen, repeats = set(), 0
    for req in requests:
        repeats += req["field"] in seen
        seen.add(req["field"])
    return repeats


# ---------------------------------------------------------------------------
# cli-mix checks, independent of the library


def _parse_value(field: str, text: str):
    if field == "qq":
        return Fraction(text)
    p, k = _field_size(field)
    if k == 1:
        return int(text) % p
    return tuple(int(c) for c in text.strip("[]").split(","))


def _is_zero(field: str, text: str) -> bool:
    v = _parse_value(field, text)
    return not any(v) if isinstance(v, tuple) else v == 0


def _is_one(field: str, text: str) -> bool:
    v = _parse_value(field, text)
    return v[0] == 1 and not any(v[1:]) if isinstance(v, tuple) else v == 1


def _square_is_one(field: str, x: str) -> bool:
    """x^2 = 1 exactly when x is 1 or -1, in any field."""
    v = _parse_value(field, x)
    if field == "qq":
        return abs(v) == 1
    p, _ = _field_size(field)
    if isinstance(v, tuple):
        return v[0] in (1, p - 1) and not any(v[1:])
    return v in (1, p - 1)


def _expected_order(req: dict):
    """The closed-form order of q(y, x), computed without the library where
    that is cheap; over GF(p^k) with x^2 != 1 only a check function."""
    field, y, x = req["field"], req["y"], req["x"]
    if _square_is_one(field, x):
        if _is_zero(field, y):
            return 1
        return "infinite" if field == "qq" else _field_size(field)[0]
    if field == "qq":
        return "infinite"
    p, k = _field_size(field)
    if k > 1:
        return lambda m: isinstance(m, int) and m >= 2 and (p**k - 1) % m == 0
    x2 = _parse_value(field, x) ** 2 % p
    m, a = 1, x2
    while a != 1:
        a, m = a * x2 % p, m + 1
    return m


def _order_matches(req: dict, value) -> bool:
    expected = _expected_order(req)
    return expected(value) if callable(expected) else value == expected


def check_request(req: dict, code: int, out: str) -> bool:
    """True when the exit code and the output are what the request must give."""
    kind, field, n = req["kind"], req["field"], req["n"]
    if kind == "census":
        p, k = _field_size(field)
        q = p**k
        lines = out.splitlines()
        return code == 0 and len(lines) == 1 + q * (q - 1) and lines[0] == "field,n,y,x,order,diagonalizable"
    if kind == "factorize" and _square_is_one(field, req["x"]):
        return code == 4 and out == ""
    if code != 0:
        return False
    if kind == "matrix":
        rows = [line[1:-1].split(", ") for line in out.splitlines()]
        return (
            len(rows) == n
            and all(len(r) == n for r in rows)
            and _is_one(field, rows[0][0])
            and all(_is_zero(field, rows[i][j]) for i in range(n) for j in range(i))
        )
    if kind == "factorize":
        doc = json.loads(out)
        return doc["verified"] is True and len(doc["left"]) == n
    if kind == "order":
        text = out.strip()
        return _order_matches(req, int(text) if text.isdigit() else text)
    doc = json.loads(out)
    return doc["agree"] is True and _order_matches(req, doc["formula"]["order"])
