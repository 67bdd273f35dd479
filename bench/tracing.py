"""Span tracing of varpert from outside the package.

``Tracer.install`` replaces every public function of every varpert module,
plus ``exact._integrate``, with a wrapper that records one span per call:
(name, start, end, parent). The wrapper is bound under every name through
which the package looks the function up (``varpert.helium.slater_radial``
as well as ``varpert.polyexp.slater_radial``), so calls between modules
are seen. Spans stay in memory until ``write`` saves them.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict
from pathlib import Path

PRIVATE_TRACED = ("exact._integrate",)
ARGS_RECORDED = ("helium.y_integral",)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        # one [name index, start, end, parent span index or -1] per call
        self.spans: list[list] = []
        self.args: dict[str, list[tuple]] = defaultdict(list)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        arg_log = self.args[name] if name in ARGS_RECORDED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            if arg_log is not None:
                arg_log.append(args)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self, package) -> None:
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]
        prefix = package.__name__ + "."
        wrappers = {}
        for mod in modules[1:]:
            short = mod.__name__[len(prefix):]
            for attr, fn in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and (not attr.startswith("_") or name in PRIVATE_TRACED)):
                    wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, total span seconds and total self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i, (name_id, start, end, _) in enumerate(self.spans):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")
