"""In-memory span tracer installed around calls into hostcap's modules.

The tracer replaces a function at the *call site's* module attribute (for
example ``hostcap.hccore.solve_newton``, which ``adjust_power_factor``
looks up at call time) with a shim that records a span, and puts the
original back afterwards.  hostcap's own code is not changed.

A span holds its name, start, end, parent span and op id.  Spans opened in
a thread that has no open span of its own (the partitioned solve's worker
threads) take the op's innermost span on the main thread as their parent.
Self time is a span's duration minus the union of its children's
intervals.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from contextlib import contextmanager

# (module, attribute, span name).  The same name may be shimmed at several
# call sites; spans are aggregated by name.
SHIMS = (
    ("hostcap.cli", "main", "cli.main"),
    ("hostcap.cli", "parse_case", "netmodel.parse_case"),
    ("hostcap.netmodel", "parse_case", "netmodel.parse_case"),
    ("hostcap.netmodel", "build_ybus", "netmodel.build_ybus"),
    ("hostcap.hccore", "bfs_tree", "netmodel.bfs_tree"),
    ("hostcap.partition", "bfs_tree", "netmodel.bfs_tree"),
    ("hostcap.oracle", "bfs_tree", "netmodel.bfs_tree"),
    ("hostcap.hccore", "solve_newton", "powerflow.solve_newton"),
    ("hostcap.hccore", "evaluate_injections", "powerflow.evaluate_injections"),
    ("hostcap.partition", "evaluate_injections", "powerflow.evaluate_injections"),
    ("hostcap.cli", "solve_hc_stages", "hccore.solve_hc_stages"),
    ("hostcap.hccore", "solve_hc_stages", "hccore.solve_hc_stages"),
    ("hostcap.partition", "solve_hc_stages", "hccore.solve_hc_stages"),
    ("hostcap.hccore", "solve_hc", "hccore.solve_hc"),
    ("hostcap.partition", "solve_hc", "hccore.solve_hc"),
    ("hostcap.hccore", "adjust_thermal", "hccore.adjust_thermal"),
    ("hostcap.hccore", "adjust_power_factor", "hccore.adjust_power_factor"),
    ("hostcap.hccore", "finalize_solution", "hccore.finalize_solution"),
    ("hostcap.partition", "finalize_solution", "hccore.finalize_solution"),
    ("hostcap.oracle", "finalize_solution", "hccore.finalize_solution"),
    ("hostcap.cli", "make_partition", "partition.make_partition"),
    ("hostcap.cli", "solve_distributed_hc", "partition.solve_distributed_hc"),
    ("hostcap.cli", "parse_case3", "sequence.parse_case3"),
    ("hostcap.cli", "solve_unbalanced_hc", "sequence.solve_unbalanced_hc"),
    ("hostcap.sequence", "build_ybus3", "sequence.build_ybus3"),
    ("hostcap.sequence", "sequence_ybus", "sequence.sequence_ybus"),
    ("hostcap.sequence", "solve_hc", "sequence.positive_solve"),
    ("hostcap.sequence", "_solve_sequence_nodal", "sequence.nodal"),
    ("hostcap.oracle", "grid_search_hc", "oracle.grid_search_hc"),
    ("hostcap.oracle", "grid_error_bound", "oracle.grid_error_bound"),
)

NAME, START, END, PARENT, OP, ERROR = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()  # partition worker threads append spans concurrently
        self._main_stack: list[int] = []
        self._observers: dict[str, Callable] = {}

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, span: list) -> int:
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    def observe(self, name: str, fn) -> None:
        """Call ``fn(span, args, result)`` after each span ``name`` ends without error."""
        self._observers[name] = fn

    def wrap(self, name: str, fn):
        def shim(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = [name, time.perf_counter(), None, parent, self.op, None]
            stack.append(self._add(span))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            observer = self._observers.get(name)
            if observer is not None:
                # a span of its own, so observing stays out of the parent's self time
                watch = ["trace.observe", time.perf_counter(), None, parent, self.op, None]
                observer(span, args, result)
                watch[END] = time.perf_counter()
                self._add(watch)
            return result

        shim.__wrapped__ = fn
        return shim

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name in SHIMS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def op_span(self, op_id: int):
        """Root span of one op; every shim span inside it carries ``op_id``."""
        self.op = op_id
        span = ["op", time.perf_counter(), None, None, op_id, None]
        self._main_stack.append(self._add(span))
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._main_stack.pop()
            self.op = None

    def self_times(self) -> dict[int, float]:
        """Self time (s) of every span, keyed by span index."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[PARENT] is not None:
                children[span[PARENT]].append((span[START], span[END]))
        out = {}
        for idx, span in enumerate(self.spans):
            covered = 0.0
            hi = -float("inf")
            for start, end in sorted(children.get(idx, ())):
                start = max(start, hi)
                if end > start:
                    covered += end - start
                hi = max(hi, end)
            out[idx] = (span[END] - span[START]) - covered
        return out
