"""Span tracer that wraps contexture's public functions from outside the package.

Each traced function is replaced, in every ``contexture`` module namespace
that binds it, by a wrapper recording one span: name, start, end and the
index of the enclosing span. Replacing the binding in each namespace is
what makes the wrapper visible to the callers that resolve the name there
(``harness`` calls its own ``contexture_svd`` binding, not the one in
``spectral``). ``remove`` restores every binding and checks the originals
are back. Nothing under ``src/`` changes.

Counts derived from argument shapes ("computed" counts) are recorded at the
same boundaries; they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``name`` is the span name, or a callable of the bound arguments that
    returns it. ``count`` receives (tracer, bound arguments, result) and adds
    computed counts. ``memory`` measures the span's peak traced allocation.
    ``span`` false records counts only, with no span.
    """

    module: str
    attr: str
    name: str | Callable | None = None
    count: Callable | None = None
    memory: bool = False
    span: bool = True


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list = []  # (name, start, end, parent index or None)
        self.counts: dict = defaultdict(int)
        self.peaks: dict = defaultdict(float)
        self.seen: dict = defaultdict(set)
        self._stack: list[int] = []
        self._patches: list = []  # (module, attr, original)

    # -- wrapping ---------------------------------------------------------

    def install(self, targets) -> None:
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "contexture" or key.startswith("contexture.")]
        for target in targets:
            original = getattr(sys.modules[target.module], target.attr)
            wrapper = self._wrap(original, target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        leftover = [f"{mod.__name__}.{attr}" for mod, attr, original in self._patches
                    if getattr(mod, attr) is not original]
        self._patches = []
        if leftover:
            raise RuntimeError(f"wrappers still installed: {leftover}")

    @property
    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _wrap(self, fn, target: Target):
        signature = inspect.signature(fn)

        def bind(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        if not target.span:
            @functools.wraps(fn)
            def counter(*args, **kwargs):
                result = fn(*args, **kwargs)
                target.count(self, bind(args, kwargs), result)
                return result
            return counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = target.name
            if callable(name):
                name = name(bind(args, kwargs))
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, 0.0, 0.0, parent])
            self._stack.append(index)
            own_memory = target.memory and not tracemalloc.is_tracing()
            if own_memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if own_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peaks[name] = max(self.peaks[name], peak / 2 ** 20)
                self._stack.pop()
                self.spans[index][1:3] = [start, end]
            if target.count is not None:
                target.count(self, bind(args, kwargs), result)
            return result

        return wrapper

    # -- aggregation --------------------------------------------------------

    def span_stats(self) -> dict:
        """Per span name: call count (outermost of nested same-name spans) and self time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = stats[name]
            entry["self_s"] += (end - start) - child_time[i]
            if parent is None or self.spans[parent][0] != name:
                entry["calls"] += 1
        return stats

    def covered_seconds(self, start: float, end: float) -> float:
        """Time inside [start, end] covered by top-level spans."""
        return sum(min(e, end) - max(s, start)
                   for _, s, e, parent in self.spans
                   if parent is None and e > start and s < end)

    def span_records(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "workload": self.workload}
                for name, start, end, parent in self.spans]


def array_digest(values) -> str:
    arr = np.ascontiguousarray(values)
    return hashlib.sha1(arr.tobytes() + str(arr.shape).encode()).hexdigest()
