"""Census sweeps: order and diagonalizability for every (y, x) over a field.

Rows are enumerated for all y in F and x in F^x, sorted by the canonical
text forms of (y, x) so output is byte-reproducible across runs and
platforms.
"""

from __future__ import annotations

import csv
import io
import json

from .fields import Field
from .orders import oracle_agrees, q_order, q_order_bruteforce
from .spectral import diagonalizable_oracle, is_diagonalizable
from .matrices import q_matrix

CSV_HEADER = ["field", "n", "y", "x", "order", "diagonalizable"]


def census_rows(
    field: Field,
    n: int,
    verify: bool = False,
    cap: int | None = None,
) -> tuple[list[dict], list[str]]:
    """All census rows plus verification mismatches (empty unless verify).

    Each row is {"y": text, "x": text, "order": int, "diagonalizable": bool}.
    With verify=True every row is checked against the brute-force order
    oracle and the rank-based diagonalizability oracle.
    """
    if not field.is_finite:
        raise ValueError("census requires a finite field")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    ys = sorted(field.elements(), key=str)
    xs = sorted(field.nonzero_elements(), key=str)
    rows: list[dict] = []
    mismatches: list[str] = []
    for y in ys:
        for x in xs:
            order = q_order(y, x, n)
            diag = is_diagonalizable(y, x, n)
            if verify:
                brute = q_order_bruteforce(y, x, n, cap)
                if not oracle_agrees(order, brute):
                    mismatches.append(f"order mismatch at (y={y}, x={x}): formula={order}, oracle={brute}")
                if diag != diagonalizable_oracle(q_matrix(y, x, n)):
                    mismatches.append(f"diagonalizability mismatch at (y={y}, x={x}): criterion={diag}")
            rows.append({"y": str(y), "x": str(x), "order": order.value, "diagonalizable": diag})
    return rows, mismatches


def census_csv(field: Field, n: int, rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    spec = field.spec()
    for r in rows:
        writer.writerow([spec, n, r["y"], r["x"], r["order"], "true" if r["diagonalizable"] else "false"])
    return buf.getvalue()


def census_json(field: Field, n: int, rows: list[dict]) -> str:
    return json.dumps({"field": field.spec(), "n": n, "rows": rows}, indent=2)


def census_table(field: Field, n: int, rows: list[dict]) -> str:
    head = ["y", "x", "order", "diag"]
    cells = [[r["y"], r["x"], str(r["order"]), "true" if r["diagonalizable"] else "false"] for r in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) if cells else len(h) for i, h in enumerate(head)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(head, widths))]
    for c in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(c, widths)))
    return "\n".join(lines)
