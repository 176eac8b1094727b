"""Span tracer for the benchmark's traced run.

A function is wrapped at every place it is bound: module globals (so a call
through `from .core import validate` is seen, not only one through
`core.validate`) and values of module-level dicts.  Each span records its
calls per binding, its inclusive time, its self time (its duration minus the
durations of the spans it caused), which span caused it, and the layer an
exception first left.  Totals stay in memory until the worker reports them.
"""

from __future__ import annotations

import time
from collections import Counter


class Tracer:
    def __init__(self, targets, scan_modules, capture=()):
        """targets: (owner module, attribute, layer) triples; a span is named
        "<layer>.<attribute>".  scan_modules: modules whose bindings get
        patched.  capture: span names whose (function, first argument) pairs
        are kept in `captured`."""
        self.targets = list(targets)
        self.scan_modules = list(scan_modules)
        self.capture = frozenset(capture)
        self._patches: list[tuple[dict, str, object]] = []
        self.calls: Counter = Counter()
        self.binding_calls: Counter = Counter()
        self.edges: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.errors: Counter = Counter()
        self.captured: list = []
        self._stack: list[list] = []

    def reset(self) -> None:
        """Clear the totals in place, so that wrappers made earlier record into them."""
        for totals in (self.calls, self.binding_calls, self.edges, self.self_ns,
                       self.incl_ns, self.errors, self.captured, self._stack):
            totals.clear()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, layer in self.targets:
            orig = getattr(owner, attr, None)
            if orig is None:
                continue  # gone from the program; the zero-calls guard reports it
            span = f"{layer}.{attr}"
            for mod in self.scan_modules:
                binding = mod.__name__.rsplit(".", 1)[-1]
                namespace = vars(mod)
                for name, value in list(namespace.items()):
                    if value is orig:
                        self._patch(namespace, name, self._wrap(orig, span, binding))
                    elif type(value) is dict:
                        for key, item in list(value.items()):
                            if item is orig:
                                self._patch(value, key, self._wrap(orig, span, binding))

    def uninstall(self) -> None:
        for container, key, orig in reversed(self._patches):
            container[key] = orig
        self._patches.clear()

    def _patch(self, container: dict, key, wrapper) -> None:
        self._patches.append((container, key, container[key]))
        container[key] = wrapper

    def _wrap(self, fn, span: str, binding: str):
        layer = span.split(".", 1)[0]
        key = f"{span}@{binding}"
        capture = span in self.capture
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [span, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if not getattr(exc, "_perfbench_layer", None):
                    exc._perfbench_layer = layer
                    self.errors[layer] += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                self.calls[span] += 1
                self.binding_calls[key] += 1
                self.incl_ns[span] += duration
                self.self_ns[span] += duration - frame[1]
                if parent is None:
                    self.edges[f"client>{span}"] += 1
                else:
                    parent[1] += duration
                    self.edges[f"{parent[0].split('.', 1)[0]}>{span}"] += 1
            if capture:
                self.captured.append((fn, args[0]))
            return result

        return traced
