"""Per-layer tracing from outside the program.

`install` replaces every public function of every loaded hblab module by
a timing wrapper, in every module namespace that binds it (cyclicity
imports make_element by name, the package re-exports most functions), so
calls between modules are seen whichever name they go through.  A layer
is a module; a counter is named `<module>.<function>`.

Self time is a call's duration minus the time of the wrapped calls it
made.  Total time counts only the outermost active call of a function,
so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.events = Counter()
        self._stack = []
        self._active = Counter()
        self._hooks = {"clark.clark_measure": self._clark_hook}

    def _clark_hook(self, result):
        if getattr(result, "atoms", None):
            self.events["clark.measures_with_atoms"] += 1

    def wrap(self, name: str, fn):
        stack, active, hook = self._stack, self._active, self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            active[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                active[name] -= 1
                self.self_time[name] += dt - stack.pop()
                if not active[name]:
                    self.total[name] += dt
                if stack:
                    stack[-1] += dt
            if hook is not None:
                hook(result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def stats(self) -> dict:
        """Counters as plain JSON: calls, total and self times in ms."""
        return {"calls": dict(self.calls),
                "total_ms": {k: v * 1e3 for k, v in self.total.items()},
                "self_ms": {k: v * 1e3 for k, v in self.self_time.items()},
                "events": dict(self.events)}


def hblab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hblab" or name.startswith("hblab."))]


def install(tracer: Tracer) -> int:
    """Wrap the public functions of all loaded hblab modules; returns the
    number of distinct functions wrapped."""
    wrappers = {}
    modules = hblab_modules()
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if not (obj.__module__ or "").startswith("hblab"):
                continue
            fn = getattr(obj, "__perfbench_original__", obj)
            if id(fn) not in wrappers:
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                wrappers[id(fn)] = tracer.wrap(name, fn)
            setattr(mod, attr, wrappers[id(fn)])
    return len(wrappers)


def merge(stats_list) -> dict:
    """Sum several `Tracer.stats()` results (one per traced process)."""
    out = {"calls": Counter(), "total_ms": defaultdict(float),
           "self_ms": defaultdict(float), "events": Counter()}
    for st in stats_list:
        for key in out:
            for name, v in st.get(key, {}).items():
                out[key][name] += v
    return {k: dict(v) for k, v in out.items()}
