"""Span tracer that wraps a package's public functions from outside.

Installing the tracer rebinds every wrapped function at each place that
binds it: the defining module and every ``from .x import y`` copy in the
package's other modules, so calls between modules are traced as well.
Spans stay in memory as ``(name, start, end, parent, command)`` tuples and
are turned into self times only after the run.  Outside ``command`` the
original functions are bound, so untraced commands pay nothing.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = "bench.command"


class Tracer:
    """Wraps the public functions of ``package.<layer>`` for each layer.

    ``observers`` maps a wrapped name such as ``"iterative.solve_iterative"``
    to ``f(args, kwargs, result) -> dict`` of counts; each traced call of
    that function adds one ``(span index, counts)`` entry to ``counts``.
    """

    def __init__(self, package: str, layers, observers=None) -> None:
        self.names = [ROOT]
        self.spans: list = []
        self.counts: list[tuple[int, dict]] = []
        self._observers = observers or {}
        self._stack = [-1]
        self._command = -1
        self._bindings = []  # (module, attribute, original, wrapper)
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for layer in layers:
            module = sys.modules[f"{package}.{layer}"]
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    for bound, value in list(vars(m).items()):
                        if value is fn:
                            self._bindings.append((m, bound, fn, wrapper))

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self._command)
            if observe is not None:
                self.counts.append((index, observe(args, kwargs, result)))
            return result

        return traced

    @contextmanager
    def command(self, command_id: int):
        """Bind the wrappers and record a root span around one command."""
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        self._command = command_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (0, start, end, -1, command_id)
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns, plus each span's self time (duration minus children)."""
        if self.spans:
            name, start, end, parent, command = (np.array(col) for col in zip(*self.spans))
        else:
            name = parent = command = np.zeros(0, dtype=np.int64)
            start = end = np.zeros(0)
        duration = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        return {"name": name, "start": start, "end": end, "parent": parent,
                "command": command, "duration": duration, "self": duration - children}

    def within(self, spans: dict[str, np.ndarray], ancestor: str) -> np.ndarray:
        """Mask of spans that run inside a span named ``ancestor``."""
        target = self.names.index(ancestor)
        names = spans["name"].tolist()
        inside = [False] * len(names)
        for i, parent in enumerate(spans["parent"].tolist()):
            inside[i] = parent >= 0 and (inside[parent] or names[parent] == target)
        return np.array(inside, dtype=bool)

    def save(self, path: Path, spans: dict[str, np.ndarray]) -> None:
        np.savez_compressed(path, names=np.array(self.names), **{
            k: spans[k] for k in ("name", "start", "end", "parent", "command")})
