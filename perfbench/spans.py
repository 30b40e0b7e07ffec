"""Span tracing from outside the package.

``Tracer.install`` replaces every public function of the traced modules with
a wrapper, at each module attribute where a caller looks it up (for example
``crumby.survey.recognize_tw2`` as well as ``crumby.minorfree.recognize_tw2``),
and ``uninstall`` puts the originals back.  The package source is untouched.

A span is (name, start, end, parent index); spans live in a list in memory
until the run ends.  Counts are taken from return values at the same
boundaries, so ratios such as nodes per second are measured where the work
happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict

LAYERS = ("graphs", "coloring", "minorfree", "lemmas", "survey", "gadgets", "checks")


# per-function counters, read off the return value's attributes (a sequence
# counts its length)
COUNTERS = {
    "coloring.backtracking_solve": ("nodes", "propagations"),
    "coloring.dpll_solve": ("nodes", "propagations"),
    "coloring.exhaustive_solve": ("nodes", "propagations"),
    "survey.survey_stream": ("tested", "filtered_out", "skipped"),
}


def _count(value) -> int:
    return value if isinstance(value, int) else len(value)


def public_functions(module):
    """Functions a module defines itself and exports (no leading underscore)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Tracer:
    def __init__(self, clock) -> None:
        self.clock = clock  # timestamps spans
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.names: list[str] = []  # every wrapped function
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        keys = COUNTERS.get(name, ())
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])
            for key in keys:
                counts[name][key] += _count(getattr(result, key))
            return result

        return traced

    def install(self) -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"crumby.{layer}")
            for fname, fn in public_functions(module).items():
                self.names.append(f"{layer}.{fname}")
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "crumby" and not modname.startswith("crumby."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def table(self, duration=lambda start, end: end - start) -> dict[str, float]:
        """Per-function totals keyed ``<layer>.<function>.<stat>``.

        ``s`` is inclusive time of the outermost spans of that name, ``self_s``
        subtracts the time covered by child spans, ``calls`` counts spans.
        `duration` turns a span's (start, end) into seconds.  Functions never
        called read 0.
        """
        lengths = [duration(start, end) for _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for (_, _, _, parent), length in zip(self.spans, lengths):
            if parent >= 0:
                child_time[parent] += length
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, _, _, _) in enumerate(self.spans):
            calls[name] += 1
            own[name] += lengths[i] - child_time[i]
            if not self._has_ancestor(i, name):
                inclusive[name] += lengths[i]
        out: dict[str, float] = {}
        for name, keys in COUNTERS.items():
            for key in keys:
                out[f"{name}.{key}"] = self.counts[name][key]
        for name in self.names:
            out[f"{name}.s"] = inclusive[name]
            out[f"{name}.self_s"] = own[name]
            out[f"{name}.calls"] = calls[name]
        return out

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]
