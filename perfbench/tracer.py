"""Span tracing of the program's layers, installed from outside the program.

The tracer replaces module-attribute bindings with timing wrappers: every
``handlenu`` module attribute that is a given function object is rebound to
one wrapper for it, so calls made through ``handlenu.cli.search_min_nu``,
``handlenu.nu.replay``, ``handlenu.trace.attach`` and so on are all seen,
including recursive calls inside a module.  Bindings are put back by
``uninstall``; nothing in the program changes.

A span is (name, start, end, parent index).  Spans of one op are kept in
memory; at the end of the op they are folded into per-name call counts and
self times (a span's duration minus the time its child spans cover).  The
raw spans of the first op are kept so they can be written out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
import sys
from time import perf_counter

# (module that defines the function, function name, span name)
TARGETS = (
    ("handlenu.cli", "main", "cli.main"),
    ("handlenu.trace", "trace_from_json", "cli.trace_from_json"),
    ("handlenu.trace", "validate", "cli.validate"),
    ("handlenu.trace", "canonical_dumps", "cli.canonical_dumps"),
    ("handlenu.trace", "trace_to_json", "cli.trace_to_json"),
    ("handlenu.nu", "search_min_nu", "nu.search_min_nu"),
    ("handlenu.nu", "nu_of_ordering", "nu.nu_of_ordering"),
    ("handlenu.nu", "e_mu", "nu.e_mu"),
    ("handlenu.nu", "lower_bound_rules", "nu.lower_bound_rules"),
    ("handlenu.trace", "attach", "trace.attach"),
    ("handlenu.trace", "replay", "trace.replay"),
    ("handlenu.trace", "reorder", "trace.reorder"),
    ("handlenu.homology", "total_betti", "homology.total_betti"),
    ("handlenu.homology", "betti", "homology.betti"),
    ("handlenu.homology", "normalize", "homology.normalize"),
    ("handlenu.union", "compose", "union.compose"),
    ("handlenu.union", "check_key_inequality", "union.check_key_inequality"),
    ("handlenu.catalog", "verify_all", "catalog.verify_all"),
)
# Generator functions: the count is the number of items the caller drew.
COUNTED = (("handlenu.nu", "iter_linear_extensions", "nu.orderings"),)

KEPT_OPS = 1


@dataclass
class OpTotals:
    calls: dict[str, int] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    items: dict[str, int] = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.items: dict[str, int] = {}
        self.kept: list[list[dict]] = []
        self.missing: list[str] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        self._prepare()

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "handlenu" or name.startswith("handlenu."))]

    def _prepare(self) -> None:
        modules = self._modules()
        for module_name, attr, span_name in TARGETS + COUNTED:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:  # gone from the program: its metrics read 0
                self.missing.append(f"{module_name}.{attr}")
                continue
            if span_name in self.names:
                raise ValueError(f"span name {span_name} used twice")
            self.names.append(span_name)
            if (module_name, attr, span_name) in COUNTED:
                wrapper = self._counting(span_name, original)
            else:
                wrapper = self._timing(len(self.names) - 1, original)
            for module in modules:
                for binding, value in vars(module).items():
                    if value is original:
                        self._bindings.append((module, binding, original, wrapper))

    def _timing(self, name_id: int, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent)

        return wrapper

    def _counting(self, name: str, fn):
        items = self.items

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            def drawn(iterator):
                for item in iterator:
                    items[name] = items.get(name, 0) + 1
                    yield item

            return drawn(fn(*args, **kwargs))

        return wrapper

    def install(self) -> None:
        for module, binding, _, wrapper in self._bindings:
            setattr(module, binding, wrapper)

    def uninstall(self) -> None:
        for module, binding, original, _ in self._bindings:
            setattr(module, binding, original)

    def run(self, fn, *args):
        """Call ``fn`` with the wrappers installed; return its result and the op's totals."""
        self.spans.clear()
        self.stack.clear()
        self.items.clear()
        self.install()
        try:
            result = fn(*args)
        finally:
            self.uninstall()
        return result, self._fold()

    def _fold(self) -> OpTotals:
        spans = self.spans
        child = [0.0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        totals = OpTotals(items=dict(self.items))
        for (name_id, start, end, _), covered in zip(spans, child):
            name = self.names[name_id]
            totals.calls[name] = totals.calls.get(name, 0) + 1
            totals.self_s[name] = totals.self_s.get(name, 0.0) + (end - start - covered)
        if len(self.kept) < KEPT_OPS:
            origin = spans[0][1] if spans else 0.0
            self.kept.append([
                {"name": self.names[n], "start_us": round((s - origin) * 1e6, 3),
                 "end_us": round((e - origin) * 1e6, 3), "parent": p}
                for n, s, e, p in spans
            ])
        return totals
