"""Timing spans around the public functions of the pohst layers.

The benchmark installs these wrappers from outside the package, so the
code under test is the code as committed.  ``from module import name``
copies the binding into the importing module, so a function is replaced
in every ``pohst`` namespace that holds it: ``pohst.analysis`` calls its
own copy of ``validate_partition``, ``pohst.cli`` its own copy of
``construct_eta``, and so on.

Each span records its name, start, end, parent span and the operation it
belongs to.  Spans stay in flat arrays in memory until the run ends; self
time is a span's duration minus the durations of its direct children
(calls are single-threaded and nested, so children never overlap).

Generator functions (``pohst.analysis.sweep``) are not wrapped: their body
runs interleaved with the consumer, so a span around them would charge
the consumer's work to the generator.  Their work shows up in the spans
of the functions they call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from typing import Callable, Optional

LAYERS = ("signs", "partition", "certify", "analysis", "cli")


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.op_id = -1
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(
        self, span: str, func: Callable, on_result: Optional[Callable] = None
    ) -> Callable:
        nid = self._name_ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self, hooks: Optional[dict[str, Callable]] = None) -> None:
        """Wrap every public function of the layer modules, in every namespace.

        ``hooks`` maps a span name to a callback that sees the wrapped
        function's return value (used for counters such as ladder use).
        """
        hooks = hooks or {}
        wrapped: dict[int, tuple[object, Callable]] = {}
        for layer in LAYERS:
            module = sys.modules[f"pohst.{layer}"]
            for name, obj in vars(module).items():
                if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue
                span = f"{layer}.{name}"
                wrapped[id(obj)] = (obj, self.wrap(span, obj, hooks.get(span)))
        for modname, module in list(sys.modules.items()):
            if modname != "pohst" and not modname.startswith("pohst."):
                continue
            for name, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, name, value))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            module, name, value = self._patches.pop()
            setattr(module, name, value)

    def __len__(self) -> int:
        return len(self.start)

    def profile(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds), over every recorded span."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child = [0.0] * n
        for k in range(n):
            p = parent[k]
            if p >= 0:
                child[p] += end[k] - start[k]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        name_id = self.name_id
        for k in range(n):
            nid = name_id[k]
            calls[nid] += 1
            self_s[nid] += end[k] - start[k] - child[k]
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}
