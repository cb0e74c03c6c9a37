"""Per-layer tracing of the zhangliu package, from outside the package.

``Tracer.install`` replaces every binding of each traced function: the
defining module's attribute, every ``from .x import y`` copy in the other
package modules, and methods on their classes.  A wrapper either records a
span (label, start, end, the span that caused it) or only counts calls.
Span stacks are thread-local because ``census --jobs 2`` computes rows in
worker threads; a worker thread's outermost span gets as its parent the
innermost open span of the thread that installed the tracer.  Spans stay
in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import gzip
import sys
import threading
import time
from collections import Counter

# label -> functions recorded as spans, as "module.qualname" in zhangliu
SPANS = {
    "fields.build": [
        "fields.parse_field_spec",
        "fields.make_prime_field",
        "fields.make_extension_field",
        "fields.make_rational_field",
    ],
    "fields.parse_element": ["fields.parse_element"],
    "fields.order": ["fields.multiplicative_order"],
    "matrices.build": [
        "matrices.q_matrix",
        "matrices.p1_matrix",
        "matrices.p2_matrix",
        "matrices.d_matrix",
        "matrices.identity",
    ],
    "matrices.matmul": ["matrices.SquareMatrix.__matmul__"],
    "matrices.rank": ["matrices.SquareMatrix.rank"],
    "orders.formula": ["orders.q_order"],
    "orders.bruteforce": ["orders.q_order_bruteforce"],
    "spectral.factorize": ["spectral.factorize_q"],
    "spectral.verify": ["spectral.verify_factorization"],
    "spectral.criterion": ["spectral.is_diagonalizable"],
    "spectral.oracle": ["spectral.diagonalizable_oracle"],
    "census.rows": ["census.census_rows"],
    "census.render": ["census.census_csv", "census.census_json", "census.census_table"],
    "cli.main": ["cli.main"],
}

# label -> functions only counted: they run millions of times, and a span
# each would cost more than the work it measures
COUNTS = {
    "fields.mul": ["fields.FieldElement.__mul__"],
    "fields.inv": ["fields.FieldElement.inv"],
    "matrices.binomial": ["matrices.binomial"],
}

PACKAGE = "zhangliu"


class Span:
    __slots__ = ("label", "parent", "start", "end", "self_s", "is_open", "open_children")

    def __init__(self, label: str, parent: Span | None):
        self.label = label
        self.parent = parent
        self.self_s = 0.0
        self.is_open = False
        self.open_children = 0


class _ThreadState:
    def __init__(self):
        self.stack: list[Span] = []
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.order_args: set = set()
        self.exceeded = 0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._root = self._state()
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._threads.append(st)
            return st

    def _spanned(self, label: str, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = tracer._root.stack[-1]
                except IndexError:
                    parent = None
            if parent is not None and parent.label == label:
                return fn(*args, **kwargs)  # re-entry into one layer call is one span
            span = Span(label, parent)
            stack.append(span)
            st.spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if label == "fields.order":
                a = args[0]
                st.order_args.add((a.field, a.value))
            elif label == "orders.bruteforce" and result.is_exceeded:
                st.exceeded += 1
            return result

        return wrapper

    def _counted(self, label: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._state().counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every binding of every traced function in the loaded package."""
        modules = [m for name, m in list(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for table, make in ((SPANS, self._spanned), (COUNTS, self._counted)):
            for label, targets in table.items():
                for target in targets:
                    module_name, *path = target.split(".")
                    owner = sys.modules[f"{PACKAGE}.{module_name}"]
                    for part in path[:-1]:
                        owner = getattr(owner, part)
                    original = getattr(owner, path[-1])
                    wrapper = make(label, original)
                    if len(path) > 1:  # a method: its class is its one binding
                        self._patch(owner, path[-1], wrapper)
                        continue
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def spans(self) -> list[Span]:
        with self._lock:
            return [s for st in self._threads for s in st.spans]

    def compute_self_times(self) -> None:
        """Self time of every span, by a sweep over all start and end times.

        At each instant the elapsed time goes to the open spans that have no
        open child, split evenly when several threads have one each.  With
        one thread this is a span's duration minus the time its children
        cover; in all cases the self times add up to the time covered by
        some span, so they never exceed the traced wall time.
        """
        events = []
        for s in self.spans():
            s.self_s = 0.0
            events.append((s.start, 0, s))
            events.append((s.end, 1, s))
        events.sort(key=lambda e: (e[0], e[1]))
        active: set[Span] = set()
        prev = events[0][0] if events else 0.0
        for t, is_end, s in events:
            if active and t > prev:
                share = (t - prev) / len(active)
                for a in active:
                    a.self_s += share
            prev = t
            p = s.parent
            if not is_end:
                s.is_open = True
                if s.open_children == 0:
                    active.add(s)
                if p is not None:
                    p.open_children += 1
                    active.discard(p)
            else:
                s.is_open = False
                active.discard(s)
                if p is not None:
                    p.open_children -= 1
                    if p.is_open and p.open_children == 0:
                        active.add(p)

    def metrics(self) -> dict[str, float]:
        """Per-layer calls and self seconds, plus the derived counts."""
        self.compute_self_times()
        out: dict[str, float] = {}
        for label in SPANS:
            out[f"{label}.calls"] = 0
            out[f"{label}.self_s"] = 0.0
        steps = 0
        for s in self.spans():
            out[f"{s.label}.calls"] += 1
            out[f"{s.label}.self_s"] += s.self_s
            steps += s.label == "matrices.matmul" and s.parent is not None and s.parent.label == "orders.bruteforce"
        with self._lock:
            threads = list(self._threads)
        for label in COUNTS:
            out[f"{label}.calls"] = sum(st.counts[label] for st in threads)
        out["orders.bruteforce.steps"] = steps
        out["orders.bruteforce.exceeded"] = sum(st.exceeded for st in threads)
        distinct = len(set().union(*(st.order_args for st in threads)))
        out["census.order_distinct_x2"] = distinct
        calls = out["fields.order.calls"]
        out["census.order_useful_ratio"] = distinct / calls if calls else 0.0
        return out

    def write_spans(self, path) -> None:
        """All spans as gzipped TSV: id, parent id, label, start, end, self_s."""
        spans = self.spans()
        ids = {id(s): i for i, s in enumerate(spans)}
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\tlabel\tstart\tend\tself_s\n")
            for i, s in enumerate(spans):
                parent = ids[id(s.parent)] if s.parent is not None else -1
                f.write(f"{i}\t{parent}\t{s.label}\t{s.start:.9f}\t{s.end:.9f}\t{s.self_s:.9f}\n")
