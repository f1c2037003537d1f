"""Spans and counters recorded from outside the package.

Each wrapper replaces the module attribute its caller looks up at call
time (``cli.py`` imported ``check`` and ``parse`` by name, so those are
wrapped on ``s5bke.cli``; ``search.py`` calls ``fasteval.<name>`` and
``frames.<name>``, so those are wrapped on their own modules).  Nothing in
the package is edited.  A span records its name, start, end, parent span
and query id; spans live in memory until :meth:`Tracer.write`.

For a function that reaches itself again through a wrapped attribute
(recursion in ``frames.satisfies_at``, ``frames.denote``,
``algebra.eval_algebra``; ``fasteval.eval_batch`` under
``satisfied_at_designated``) only the outermost call is recorded.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

# (module, attribute, span name); the span name is the layer and operation.
SPAN_TARGETS = (
    ("s5bke.jsonio", "load_path", "jsonio.load"),
    ("s5bke.cli", "parse", "syntax.parse"),
    ("s5bke.kernel", "parse", "syntax.parse"),
    ("s5bke.kernel", "is_classical_tautology", "syntax.taut"),
    ("s5bke.cli", "parse_derivation", "kernel.parse_derivation"),
    ("s5bke.cli", "check", "kernel.check"),
    ("s5bke.cli", "find_countermodel", "search.find"),
    ("s5bke.search", "_recheck_found", "search.recheck"),
    ("s5bke.search", "_model_from_batch_row", "search.decode"),
    ("s5bke.fasteval", "compile_formula", "fasteval.compile"),
    ("s5bke.fasteval", "satisfied_at_designated", "fasteval.eval"),
    ("s5bke.fasteval", "eval_batch", "fasteval.eval"),
    ("s5bke.frames", "satisfies_at", "frames.satisfies"),
    ("s5bke.frames", "denote", "frames.denote"),
    ("s5bke.frames", "validate_model", "frames.validate"),
    ("s5bke.algebra", "validate_algebra", "algebra.validate"),
    ("s5bke.algebra", "eval_algebra", "algebra.eval"),
    ("s5bke.algebra", "algebra_to_frame", "algebra.to_frame"),
)
# Counted, not spanned: one span per proof line would cost more than the
# line check itself.
COUNT_TARGETS = (
    ("s5bke.kernel", "_check_line", "kernel.lines_checked"),
    ("s5bke.kernel", "match_axiom", "kernel.match_axiom_calls"),
)
ENUMERATE_TARGET = ("s5bke.search", "_enumerate_batches", "search.enumerate")


class Tracer:
    """Installs the wrappers and holds every span of one run."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, query id]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.queries = 0
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._query: Optional[int] = None
        self._installed: list[tuple[object, str, Callable]] = []
        # rows of the batches enumerated so far in the current query
        self._rows_in_query = 0
        self._last_batch = 0
        # row of the last batch that search decoded as the witness, if any
        self._decoded_row: Optional[int] = None

    # -- span bookkeeping --------------------------------------------------

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._query])
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        self._open[self.spans[idx][0]] -= 1

    def query(self, qid: int, fn: Callable[[], int]) -> int:
        """Run one query under a root ``cli.run`` span."""
        self._query = qid
        self._rows_in_query = self._last_batch = 0
        self._decoded_row = None
        idx = self._begin("cli.run")
        try:
            return fn()
        finally:
            self._end(idx)
            self.queries += 1
            self._query = None
            examined = self._rows_in_query
            if self._decoded_row is not None:
                examined += self._decoded_row + 1 - self._last_batch
            self.counts["search.rows_before_verdict"] += examined

    # -- wrappers ----------------------------------------------------------

    def _wrap_span(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._query is None or self._open[name]:
                return fn(*args, **kwargs)
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            self._count(name, args, result)
            return result

        return wrapper

    def _count(self, name: str, args: tuple, result: object) -> None:
        self.counts[name + ".calls"] += 1
        if name == "fasteval.compile":
            self.counts["fasteval.program_ops"] += len(result.code)
        elif name == "fasteval.eval":
            self.counts["fasteval.rows_evaluated"] += len(args[1])
        elif name == "search.decode":
            self._decoded_row = args[1]

    def _wrap_count(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._query is not None:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_enumerate(self, fn: Callable, name: str) -> Callable:
        """Time a batch generator across each ``next()``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self._begin(name) if self._query is not None else None
                try:
                    batch = next(gen)
                except StopIteration:
                    return
                finally:
                    if idx is not None:
                        self._end(idx)
                if self._query is not None:
                    self.counts["search.batches"] += 1
                    self.counts["search.rows_enumerated"] += len(batch)
                    self._rows_in_query += len(batch)
                    self._last_batch = len(batch)
                yield batch

        return wrapper

    def install(self) -> None:
        plan = [(t, self._wrap_span) for t in SPAN_TARGETS]
        plan += [(t, self._wrap_count) for t in COUNT_TARGETS]
        plan.append((ENUMERATE_TARGET, self._wrap_enumerate))
        for (module_name, attr, name), wrap in plan:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: total duration and self time, in seconds."""
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
        return total, own

    def duration_under(self, name: str, parent_name: str) -> float:
        """Total duration of ``name`` spans whose parent is a ``parent_name`` span."""
        spans = self.spans
        return sum(
            end - start
            for n, start, end, parent, _ in spans
            if n == name and parent >= 0 and spans[parent][0] == parent_name
        )

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: times are self time per query in ms, counts are
        per query, rates are over the run."""
        total, own = self.self_times()
        q = max(self.queries, 1)
        c = self.counts

        def ms(name: str) -> float:
            return own.get(name, 0.0) * 1000 / q

        def per_query(key: str) -> float:
            return c.get(key, 0) / q

        def rate(count: int, seconds: float) -> float:
            return count / seconds if seconds > 0 else 0.0

        rows_eval = c.get("fasteval.rows_evaluated", 0)
        return {
            "cli.self_ms": (ms("cli.run"), "ms"),
            "jsonio.load_ms": (ms("jsonio.load"), "ms"),
            "syntax.parse_ms": (ms("syntax.parse"), "ms"),
            "syntax.taut_ms": (ms("syntax.taut"), "ms"),
            "syntax.taut_calls": (per_query("syntax.taut.calls"), "count"),
            "kernel.parse_derivation_ms": (ms("kernel.parse_derivation"), "ms"),
            "kernel.check_ms": (ms("kernel.check"), "ms"),
            "kernel.lines_checked": (per_query("kernel.lines_checked"), "count"),
            "kernel.match_axiom_calls": (per_query("kernel.match_axiom_calls"), "count"),
            "search.find_self_ms": (ms("search.find"), "ms"),
            "search.enumerate_ms": (ms("search.enumerate"), "ms"),
            "search.batches": (per_query("search.batches"), "count"),
            "search.rows_enumerated": (per_query("search.rows_enumerated"), "count"),
            "search.models_per_s": (
                rate(c.get("search.rows_enumerated", 0), own.get("search.enumerate", 0.0)),
                "1/s",
            ),
            "search.decode_ms": (ms("search.decode"), "ms"),
            "search.recheck_ms": (total.get("search.recheck", 0.0) * 1000 / q, "ms"),
            "search.trace_ms": (
                self.duration_under("frames.satisfies", "search.find") * 1000 / q, "ms"
            ),
            "search.useful_row_ratio": (
                c.get("search.rows_before_verdict", 0) / rows_eval if rows_eval else 0.0,
                "ratio",
            ),
            "fasteval.compile_ms": (ms("fasteval.compile"), "ms"),
            "fasteval.program_ops": (per_query("fasteval.program_ops"), "count"),
            "fasteval.eval_ms": (ms("fasteval.eval"), "ms"),
            "fasteval.rows_evaluated": (per_query("fasteval.rows_evaluated"), "count"),
            "fasteval.rows_per_s": (rate(rows_eval, own.get("fasteval.eval", 0.0)), "1/s"),
            "frames.satisfies_ms": (ms("frames.satisfies"), "ms"),
            "frames.denote_ms": (ms("frames.denote"), "ms"),
            "frames.validate_ms": (ms("frames.validate"), "ms"),
            "algebra.validate_ms": (ms("algebra.validate"), "ms"),
            "algebra.eval_ms": (ms("algebra.eval"), "ms"),
            "algebra.to_frame_ms": (ms("algebra.to_frame"), "ms"),
        }

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent, query."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
