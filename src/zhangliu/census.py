"""Census sweeps: order and diagonalizability for every (y, x) over a field.

Rows cover all y in F and x in F^x, sorted by the canonical text forms of
(y, x) so output is byte-reproducible across runs and platforms.

By the closed forms in ``orders`` and ``spectral``, the order and the
diagonalizability of q_matrix(y, x, n) depend on y only through the test
y = 0.  ``census_rows`` therefore builds a per-x table when it is called:
``q_order`` and ``is_diagonalizable`` run for each x once at y = 0 and once
at y = 1, which is 2(q - 1) evaluations instead of q(q - 1), and every row
takes its values from that table.  The rows themselves are produced
lazily, one block per y, and each renderer writes one chunk per block, so
memory grows with q rather than q^2.

Verification takes no such shortcut: with a ``mismatches`` list, every row
runs the brute-force order oracle and the rank-based diagonalizability
oracle, and each is compared with the table entry that the row prints.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterator
from typing import TextIO

from .errors import InfiniteField, check_cap, check_params
from .fields import Field, OrderResult
from .matrices import q_matrix
from .orders import oracle_agrees, q_order, q_order_bruteforce
from .records import Record
from .spectral import diagonalizable_oracle, is_diagonalizable

CSV_HEADER = ["field", "n", "y", "x", "order", "diagonalizable"]

Row = tuple[str, str, int, bool]


class CensusRows(Record):
    """The rows of one census, produced once and lazily, one block per y.

    Iterating yields, for each y in sorted order, the list of its rows
    (y, x, order, diagonalizable) in sorted x order, with y and x as text.
    ``ys`` and ``xs`` are the sorted element texts, and ``table`` maps
    ``y == 0`` to the per-x (order, diagonalizable) values of every y on
    that side of the test.
    """

    __slots__ = ("field", "n", "ys", "xs", "table", "blocks")

    def __init__(
        self,
        field: Field,
        n: int,
        ys: list[str],
        xs: list[str],
        table: dict[bool, list[tuple[OrderResult, bool]]],
        blocks: Iterator[list[Row]],
    ):
        super().__init__(field, n, ys, xs, table, blocks)

    def __iter__(self) -> Iterator[list[Row]]:
        return self.blocks


def census_rows(
    field: Field,
    n: int,
    mismatches: list[str] | None = None,
    cap: int | None = None,
) -> CensusRows:
    """The census rows of field and n, with the preconditions checked now.

    When a ``mismatches`` list is given, every row is checked against the
    brute-force order oracle (capped by ``cap``) and the rank-based
    diagonalizability oracle while the rows are iterated, and each
    disagreement is appended to the list as one line of text.
    """
    if not field.is_finite:
        raise InfiniteField("census requires a finite field")
    check_params(n)
    if mismatches is not None and cap is not None:
        check_cap(cap)
    named = sorted((str(a), a) for a in field.elements())  # texts are unique, so no two elements are compared
    xs = [a for _, a in named if a]
    x_texts = [text for text, a in named if a]
    table = {
        y.is_zero(): [(q_order(y, x, n), is_diagonalizable(y, x, n)) for x in xs] for y in (field.zero(), field.one())
    }

    def blocks() -> Iterator[list[Row]]:
        for y_text, y in named:
            entries = table[y.is_zero()]
            if mismatches is not None:
                for x, (order, diag) in zip(xs, entries):
                    brute = q_order_bruteforce(y, x, n, cap)
                    if not oracle_agrees(order, brute):
                        mismatches.append(f"order mismatch at (y={y}, x={x}): formula={order}, oracle={brute}")
                    if diag != diagonalizable_oracle(q_matrix(y, x, n)):
                        mismatches.append(f"diagonalizability mismatch at (y={y}, x={x}): criterion={diag}")
            yield [(y_text, x, order.value, diag) for x, (order, diag) in zip(x_texts, entries)]

    return CensusRows(field, n, [text for text, _ in named], x_texts, table, blocks())


def census_csv(rows: CensusRows, out: TextIO) -> None:
    """Write the rows as CSV with a header line, one chunk per y."""
    out.write(",".join(CSV_HEADER) + "\n")
    quoted = {x: _csv_fields(x) for x in rows.xs}
    for block in rows:
        head = _csv_fields(rows.field.spec(), rows.n, block[0][0])
        out.write(
            "".join(f"{head},{quoted[x]},{order},{'true' if diag else 'false'}\n" for _, x, order, diag in block)
        )


def _csv_fields(*fields) -> str:
    """Fields as csv.writer writes them: each quoted on its own, then joined."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    return buf.getvalue()


def census_json(rows: CensusRows, out: TextIO) -> None:
    """Write {"field", "n", "rows"} as json.dumps(..., indent=2) would, and a
    newline, one chunk per y.  Each row is {"y", "x", "order", "diagonalizable"}."""
    quoted = {x: json.dumps(x) for x in rows.xs}
    out.write(f'{{\n  "field": {json.dumps(rows.field.spec())},\n  "n": {rows.n},\n  "rows": [')
    sep = "\n"
    for block in rows:
        y = json.dumps(block[0][0])
        out.write(
            sep
            + ",\n".join(
                f'    {{\n      "y": {y},\n      "x": {quoted[x]},\n      "order": {order},\n'
                f'      "diagonalizable": {"true" if diag else "false"}\n    }}'
                for _, x, order, diag in block
            )
        )
        sep = ",\n"
    out.write("\n  ]\n}\n")


def census_table(rows: CensusRows, out: TextIO) -> None:
    """Write the rows as left-aligned columns y, x, order, diag, one chunk per y."""
    values = [(str(order.value), "true" if diag else "false") for col in rows.table.values() for order, diag in col]
    widths = [
        max(len("y"), *map(len, rows.ys)),
        max(len("x"), *map(len, rows.xs)),
        max(len("order"), *(len(order) for order, _ in values)),
        max(len("diag"), *(len(diag) for _, diag in values)),
    ]
    line = "  ".join(f"{{:<{w}}}" for w in widths) + "\n"
    out.write(line.format("y", "x", "order", "diag"))
    for block in rows:
        out.write("".join(line.format(y, x, order, "true" if diag else "false") for y, x, order, diag in block))
