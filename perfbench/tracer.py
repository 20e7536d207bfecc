"""In-memory span tracer that wraps the bound methods of live objects.

Wrappers are installed on *instances* (``obj.method = wrapper``), never on
classes, so a subclass override is what gets wrapped and other sessions in
the same process stay untraced.  Each timed call records one span
``[layer, start, end, parent]``; a layer's self time is the sum over its
spans of duration minus the time its direct child spans cover.  Methods
called millions of times are wrapped with :meth:`Tracer.count`, which
only counts.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        #: ``[layer, name, start, end, parent_index]`` per timed call.
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.calls: Counter[str] = Counter()
        #: Free-form accumulators (e.g. requests scanned per census call).
        self.sums: Counter[str] = Counter()

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def timed(
        self,
        layer: str,
        name: str,
        fn: Callable,
        before: Callable[..., None] | None = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``before(*args)`` runs first, untimed."""
        spans, stack, calls = self.spans, self._stack, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if before is not None:
                before(*args)
            rec = [layer, name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return wrapper

    def count(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap(
        self,
        obj: Any,
        method: str,
        layer: str | None,
        name: str,
        before: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``obj.method`` by a timed (``layer``) or counting
        (``layer=None``) wrapper of its current bound method."""
        fn = getattr(obj, method)
        if layer is None:
            setattr(obj, method, self.count(name, fn))
        else:
            setattr(obj, method, self.timed(layer, name, fn, before))

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def times(self) -> tuple[Counter[str], Counter[str], Counter[str]]:
        """Seconds as (self per layer, self per span name, inclusive per
        span name)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            parent = rec[4]
            if parent >= 0:
                child[parent] += rec[3] - rec[2]
        layer_self: Counter[str] = Counter()
        name_self: Counter[str] = Counter()
        inclusive: Counter[str] = Counter()
        for i, rec in enumerate(spans):
            dur = rec[3] - rec[2]
            layer_self[rec[0]] += dur - child[i]
            name_self[rec[1]] += dur - child[i]
            inclusive[rec[1]] += dur
        return layer_self, name_self, inclusive

    def dump(self, path) -> None:
        """Write the spans as TSV: layer, name, start_s, end_s, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("layer\tname\tstart_s\tend_s\tparent\n")
            for layer, name, start, end, parent in self.spans:
                fh.write(f"{layer}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
